#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

namespace perfbench {

using vastats::AggregateKind;
using vastats::AnswerStatistics;
using vastats::GridDensity;

namespace {

struct ComponentStats {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int holders = 0;
};

// Order statistic k (0-based) of `values`.
double OrderStat(std::vector<double> values, size_t k) {
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

// Slack for sums evaluated in a different order than ours.
double Slack(double scale) { return 1e-9 * (std::fabs(scale) + 1.0); }

bool Same(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameVector(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!Same(a[i], b[i])) return false;
  }
  return true;
}

bool SamePoint(const vastats::PointEstimate& a,
               const vastats::PointEstimate& b) {
  return Same(a.value, b.value) && Same(a.ci.lo, b.ci.lo) &&
         Same(a.ci.hi, b.ci.hi) && Same(a.ci.level, b.ci.level);
}

bool SameAccess(const vastats::AccessStats& a, const vastats::AccessStats& b) {
  return a.visits == b.visits && a.attempts == b.attempts &&
         a.retries == b.retries && a.transient_failures == b.transient_failures &&
         a.failed_visits == b.failed_visits &&
         a.breaker_open_skips == b.breaker_open_skips &&
         a.corrupt_values_rejected == b.corrupt_values_rejected &&
         a.breaker_transitions == b.breaker_transitions &&
         a.deadline_truncated_draws == b.deadline_truncated_draws &&
         Same(a.virtual_ms, b.virtual_ms) && Same(a.backoff_ms, b.backoff_ms) &&
         a.breaker_severity == b.breaker_severity;
}

}  // namespace

QueryTruth ComputeTruth(const vastats::SourceSet& sources,
                        const vastats::AggregateQuery& query) {
  std::unordered_map<vastats::ComponentId, ComponentStats> per_component;
  for (const vastats::ComponentId c : query.components) per_component[c];
  for (const vastats::DataSource& source : sources.sources()) {
    for (const auto& [component, value] : source.bindings()) {
      const auto it = per_component.find(component);
      if (it == per_component.end()) continue;
      ComponentStats& stats = it->second;
      stats.sum += value;
      stats.min = std::min(stats.min, value);
      stats.max = std::max(stats.max, value);
      ++stats.holders;
    }
  }

  const double n = static_cast<double>(query.components.size());
  double mean_sum = 0.0, min_sum = 0.0, max_sum = 0.0;
  double neg_sum = 0.0, pos_sum = 0.0;
  double lowest = std::numeric_limits<double>::infinity();
  double highest = -lowest;
  double max_of_mins = -std::numeric_limits<double>::infinity();
  double min_of_maxes = std::numeric_limits<double>::infinity();
  std::vector<double> mins, maxes;
  for (const vastats::ComponentId c : query.components) {
    const ComponentStats& stats = per_component[c];
    mean_sum += stats.sum / static_cast<double>(stats.holders);
    min_sum += stats.min;
    max_sum += stats.max;
    neg_sum += std::min(0.0, stats.min);
    pos_sum += std::max(0.0, stats.max);
    lowest = std::min(lowest, stats.min);
    highest = std::max(highest, stats.max);
    max_of_mins = std::max(max_of_mins, stats.min);
    min_of_maxes = std::min(min_of_maxes, stats.max);
    mins.push_back(stats.min);
    maxes.push_back(stats.max);
  }

  QueryTruth truth;
  truth.kind = query.kind;
  truth.expected_mean = std::numeric_limits<double>::quiet_NaN();
  truth.partial_lo = lowest;
  truth.partial_hi = highest;
  switch (query.kind) {
    case AggregateKind::kSum:
      truth.expected_mean = mean_sum;
      truth.lo = min_sum;
      truth.hi = max_sum;
      truth.partial_lo = neg_sum;
      truth.partial_hi = pos_sum;
      break;
    case AggregateKind::kAverage:
      truth.expected_mean = mean_sum / n;
      truth.lo = min_sum / n;
      truth.hi = max_sum / n;
      break;
    case AggregateKind::kMax:
      truth.lo = max_of_mins;
      truth.hi = highest;
      break;
    case AggregateKind::kMin:
      truth.lo = lowest;
      truth.hi = min_of_maxes;
      break;
    case AggregateKind::kMedian: {
      // Any median convention lies between the lower and upper middle
      // order statistics, and order statistics are monotone in every input.
      const size_t count = mins.size();
      truth.lo = OrderStat(mins, (count - 1) / 2);
      truth.hi = OrderStat(maxes, count / 2);
      break;
    }
    case AggregateKind::kVariance:
      truth.lo = 0.0;
      truth.hi = (highest - lowest) * (highest - lowest) / 4.0;
      truth.partial_lo = truth.lo;
      truth.partial_hi = truth.hi;
      break;
    default:
      truth.lo = -std::numeric_limits<double>::infinity();
      truth.hi = std::numeric_limits<double>::infinity();
      truth.partial_lo = truth.lo;
      truth.partial_hi = truth.hi;
      break;
  }
  return truth;
}

bool MeanWithinSixSe(const AnswerStatistics& stats, double expected_mean) {
  const std::vector<double>& samples = stats.samples;
  const double n = static_cast<double>(samples.size());
  if (samples.size() < 2) return false;
  double mean = 0.0;
  for (const double v : samples) mean += v;
  mean /= n;
  double ss = 0.0;
  for (const double v : samples) ss += (v - mean) * (v - mean);
  const double se = std::sqrt(ss / (n - 1.0)) / std::sqrt(n);
  return std::fabs(stats.mean.value - expected_mean) <=
         6.0 * se + Slack(expected_mean);
}

bool SamplesInRange(const AnswerStatistics& stats, const QueryTruth& truth,
                    bool full_coverage) {
  const double lo = full_coverage ? truth.lo : truth.partial_lo;
  const double hi = full_coverage ? truth.hi : truth.partial_hi;
  const double slack = Slack(std::max(std::fabs(lo), std::fabs(hi)));
  for (const double v : stats.samples) {
    if (!(v >= lo - slack && v <= hi + slack)) return false;
  }
  return true;
}

double IntegrateGrid(const GridDensity& density, double a, double b) {
  const std::span<const double> v = density.values();
  const double x0 = density.x_min();
  const double step = density.step();
  // Integral from x_min to x: whole cells, then the partial cell with the
  // linearly interpolated right edge.
  const auto cumulative = [&](double x) {
    if (x <= x0) return 0.0;
    const double pos = std::min((x - x0) / step, static_cast<double>(v.size() - 1));
    const size_t cell = std::min(static_cast<size_t>(pos), v.size() - 2);
    double total = 0.0;
    for (size_t i = 0; i < cell; ++i) total += 0.5 * step * (v[i] + v[i + 1]);
    const double frac = pos - static_cast<double>(cell);
    const double right = v[cell] + frac * (v[cell + 1] - v[cell]);
    return total + 0.5 * step * frac * (v[cell] + right);
  };
  if (!(b > a)) return 0.0;
  return cumulative(b) - cumulative(a);
}

bool DensityNonNegative(const GridDensity& density) {
  for (const double x : density.values()) {
    if (x < 0.0) return false;
  }
  return true;
}

bool DensityIsProbability(const GridDensity& density) {
  const std::span<const double> v = density.values();
  if (v.size() < 2) return false;
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  double inner = 0.0;
  for (size_t i = 0; i + 1 < v.size(); ++i) inner += 0.5 * (v[i] + v[i + 1]);
  return std::fabs(inner * density.step() - 1.0) <= 1e-6;
}

bool IntervalsReachTheta(const GridDensity& density,
                         const vastats::CoverageResult& coverage,
                         double theta) {
  double mass = 0.0;
  for (const vastats::CoverageInterval& interval : coverage.intervals) {
    mass += IntegrateGrid(density, interval.lo, interval.hi);
  }
  return mass >= theta - 1e-9;
}

bool DriftEvicted(const vastats::serving::ExtractionCacheStats& before,
                  const vastats::serving::ExtractionCacheStats& after_drift,
                  const vastats::serving::ExtractionCacheStats& after_reread) {
  return after_drift.answer_invalidations > before.answer_invalidations &&
         after_reread.answer_misses == after_drift.answer_misses + 1 &&
         after_reread.answer_hits == after_drift.answer_hits;
}

bool CheckAnswer(const AnswerStatistics& stats, const QueryTruth& truth,
                 const AnswerCheckOptions& options, const std::string& label,
                 CheckLog& log) {
  if (options.full_coverage && std::isfinite(truth.expected_mean)) {
    log.Expect(MeanWithinSixSe(stats, truth.expected_mean),
               label + ": bagged mean outside 6 SE of closed-form E");
  }
  log.Expect(SamplesInRange(stats, truth, options.full_coverage),
             label + ": sample outside the viable range");
  log.Expect(DensityIsProbability(stats.density),
             label + ": density not finite or mass != 1");
  const bool non_negative = log.ExpectNoFault(
      DensityNonNegative(stats.density), label + ": density value below zero");
  const bool reaches_theta = log.ExpectNoFault(
      IntervalsReachTheta(stats.density, stats.coverage, options.theta),
      label + ": CIO intervals cover less than theta");
  if (options.min_modes > 0) {
    const int modes =
        static_cast<int>(stats.density.FindProminentModes(0.1).size());
    log.Expect(modes >= options.min_modes,
               label + ": " + std::to_string(modes) + " prominent modes < " +
                   std::to_string(options.min_modes));
  }
  return non_negative && reaches_theta;
}

bool BitIdentical(const AnswerStatistics& a, const AnswerStatistics& b) {
  if (!SamePoint(a.mean, b.mean) || !SamePoint(a.variance, b.variance) ||
      !SamePoint(a.std_dev, b.std_dev) || !SamePoint(a.skewness, b.skewness)) {
    return false;
  }
  if (!Same(a.density.x_min(), b.density.x_min()) ||
      !Same(a.density.x_max(), b.density.x_max()) ||
      !SameVector(a.density.values(), b.density.values())) {
    return false;
  }
  if (a.coverage.intervals.size() != b.coverage.intervals.size() ||
      !Same(a.coverage.total_length_fraction, b.coverage.total_length_fraction) ||
      !Same(a.coverage.total_coverage, b.coverage.total_coverage)) {
    return false;
  }
  for (size_t i = 0; i < a.coverage.intervals.size(); ++i) {
    const vastats::CoverageInterval& x = a.coverage.intervals[i];
    const vastats::CoverageInterval& y = b.coverage.intervals[i];
    if (!Same(x.lo, y.lo) || !Same(x.hi, y.hi) || !Same(x.coverage, y.coverage)) {
      return false;
    }
  }
  const vastats::StabilityReport& s = a.stability;
  const vastats::StabilityReport& t = b.stability;
  if (!Same(s.stab_l2, t.stab_l2) || !Same(s.stab_bh, t.stab_bh) ||
      !Same(s.change_ratio, t.change_ratio) || !Same(s.y, t.y) ||
      !Same(s.bandwidth, t.bandwidth) || !Same(s.psi, t.psi) ||
      s.psi_mode != t.psi_mode || s.r != t.r) {
    return false;
  }
  const vastats::DegradationReport& d = a.degradation;
  const vastats::DegradationReport& e = b.degradation;
  return SameVector(a.samples, b.samples) &&
         Same(a.answer_weight_y, b.answer_weight_y) &&
         d.degraded == e.degraded && d.draws_requested == e.draws_requested &&
         d.draws_kept == e.draws_kept && d.draws_dropped == e.draws_dropped &&
         Same(d.min_coverage, e.min_coverage) &&
         Same(d.mean_coverage, e.mean_coverage) && SameAccess(d.access, e.access);
}

}  // namespace perfbench
