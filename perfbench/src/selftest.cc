// Self-tests of the benchmark's checks (vastats_perfbench --self-test):
//
//  * the closed-form E[Sum] / E[Avg] and the viable ranges agree with
//    exhaustive enumeration on a tiny universe;
//  * every check fires on a planted perturbation of a real answer (shifted
//    samples, a density scaled by 1.01, a negative density value, a dropped
//    CIO interval, a one-ulp change, a single-mode density against a
//    two-mode bound, a drift on a source outside a cached query's closure);
//  * one round of every workload at a seed other than the default passes
//    every check, and fails on known faults exactly as many answers as a
//    round at the default seed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vastats::AggregateKind;

int failures = 0;

void Expect(bool ok, const std::string& name) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", name.c_str());
  if (!ok) ++failures;
}

// Five sources over six components with uneven redundancy (1 to 4
// holders per component) and conflicting values.
vastats::SourceSet TinyUniverse() {
  vastats::SourceSet sources;
  const double values[5][6] = {{10, 0, 3, 0, 7, 0},
                               {12, 5, 0, 0, 0, -2},
                               {0, 8, 4, 1, 0, 0},
                               {11, 0, 9, 0, 0, 6},
                               {0, 4, 2, 0, 0, 1}};
  for (int s = 0; s < 5; ++s) {
    vastats::DataSource source(std::string("s") + std::to_string(s));
    for (int c = 0; c < 6; ++c) {
      if (values[s][c] != 0) source.Bind(c, values[s][c]);
    }
    sources.AddSource(std::move(source));
  }
  return sources;
}

void TestClosedForms() {
  const vastats::SourceSet sources = TinyUniverse();
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kMax,
        AggregateKind::kMedian, AggregateKind::kVariance}) {
    const vastats::AggregateQuery query =
        vastats::MakeRangeQuery("tiny", kind, 0, 6);
    const std::string label(vastats::AggregateKindToString(kind));
    const QueryTruth truth = ComputeTruth(sources, query);
    const auto orders = vastats::EnumerateOrderAnswers(sources, query);
    const auto assignments = vastats::EnumerateAssignmentAnswers(sources, query);
    Expect(orders.ok() && assignments.ok(), "enumerate tiny universe " + label);
    if (!orders.ok() || !assignments.ok()) continue;
    if (kind == AggregateKind::kSum || kind == AggregateKind::kAverage) {
      double mean = 0.0;
      for (const double v : *orders) mean += v;
      mean /= static_cast<double>(orders->size());
      Expect(std::fabs(mean - truth.expected_mean) <= 1e-9,
             "closed-form E[" + label + "] equals the mean over all visit orders");
    }
    bool inside = true;
    for (const double v : *assignments) {
      inside = inside && v >= truth.lo - 1e-9 && v <= truth.hi + 1e-9;
    }
    Expect(inside, "every assignment answer of " + label + " lies in the range");
  }
}

void TestPlantedPerturbations() {
  const auto d2 = vastats::MakeD2(2);
  vastats::SyntheticSourceSetOptions build;
  build.seed = 3;
  const vastats::SourceSet sources =
      vastats::BuildSyntheticSourceSet(*d2, build).value();
  const vastats::AggregateQuery query =
      vastats::MakeRangeQuery("d2", AggregateKind::kSum, 0, 500);
  const vastats::ExtractorOptions options;
  const auto extractor = MakeExtractor(&sources, query, options, 20261018);
  const auto answer = extractor.ok() ? extractor->Extract()
                                     : vastats::Result<vastats::AnswerStatistics>(
                                           extractor.status());
  Expect(answer.ok(), "reference answer extracts");
  if (!answer.ok()) return;
  const vastats::AnswerStatistics& stats = *answer;
  const QueryTruth truth = ComputeTruth(sources, query);

  Expect(MeanWithinSixSe(stats, truth.expected_mean), "unperturbed mean passes");
  vastats::AnswerStatistics shifted = stats;
  double mean = 0.0, ss = 0.0;
  for (const double v : stats.samples) mean += v;
  mean /= static_cast<double>(stats.samples.size());
  for (const double v : stats.samples) ss += (v - mean) * (v - mean);
  const double n = static_cast<double>(stats.samples.size());
  const double se = std::sqrt(ss / (n - 1.0) / n);
  for (double& v : shifted.samples) v += 8.0 * se;
  shifted.mean.value += 8.0 * se;
  Expect(!MeanWithinSixSe(shifted, truth.expected_mean),
         "mean check fires on samples shifted by 8 SE");

  Expect(SamplesInRange(stats, truth, true), "unperturbed range passes");
  vastats::AnswerStatistics outside = stats;
  outside.samples.back() = truth.hi + 1e-6 * std::fabs(truth.hi) + 1.0;
  Expect(!SamplesInRange(outside, truth, true),
         "range check fires on a sample above sup V");

  Expect(DensityIsProbability(stats.density), "unperturbed density passes");
  std::vector<double> scaled(stats.density.values().begin(),
                             stats.density.values().end());
  for (double& v : scaled) v *= 1.01;
  const auto heavier = vastats::GridDensity::Create(
      stats.density.x_min(), stats.density.x_max(), scaled);
  Expect(heavier.ok() && !DensityIsProbability(*heavier),
         "density check fires on a density scaled by 1.01");

  Expect(DensityNonNegative(stats.density), "unperturbed density is non-negative");
  const auto flat = vastats::GridDensity::Create(
      stats.density.x_min(), stats.density.x_max(),
      std::vector<double>(stats.density.size(), 1.0));
  // Lowered so that its smallest value lands just below zero.
  const double smallest = *std::min_element(stats.density.values().begin(),
                                            stats.density.values().end());
  vastats::GridDensity lowered = stats.density;
  if (flat.ok()) lowered.AccumulateScaled(*flat, -2.0 * smallest - 1e-25);
  Expect(flat.ok() && !DensityNonNegative(lowered),
         "non-negativity check fires on a density dipping below zero");

  // The re-integration agrees with the coverage the library reports for
  // its own intervals (default CIO may stop short of theta; README.md,
  // "Known faults"), and falls short once an interval is dropped.
  const double reached = stats.coverage.total_coverage;
  Expect(IntervalsReachTheta(stats.density, stats.coverage, reached - 1e-6),
         "unperturbed CIO intervals reach their reported coverage");
  vastats::CoverageResult dropped = stats.coverage;
  size_t widest = 0;
  for (size_t i = 1; i < dropped.intervals.size(); ++i) {
    if (dropped.intervals[i].coverage > dropped.intervals[widest].coverage) {
      widest = i;
    }
  }
  dropped.intervals.erase(dropped.intervals.begin() + static_cast<long>(widest));
  Expect(!IntervalsReachTheta(stats.density, dropped, reached - 1e-6),
         "CIO check fires when an interval is dropped");

  Expect(BitIdentical(stats, stats), "an answer is bit-identical to itself");
  vastats::AnswerStatistics nudged = stats;
  nudged.samples[0] = std::nextafter(nudged.samples[0], INFINITY);
  Expect(!BitIdentical(stats, nudged), "bit-identity fires on a one-ulp change");

  std::vector<double> bell(512);
  for (size_t i = 0; i < bell.size(); ++i) {
    const double x = (static_cast<double>(i) - 256.0) / 40.0;
    bell[i] = std::exp(-0.5 * x * x);
  }
  auto single = vastats::GridDensity::Create(-1.0, 1.0, bell);
  Expect(single.ok() && single->Normalize().ok(), "single-mode density builds");
  if (single.ok()) {
    CheckLog log;
    AnswerCheckOptions check;
    check.min_modes = 2;
    vastats::AnswerStatistics one_mode = stats;
    one_mode.density = *single;
    one_mode.coverage = vastats::GreedyCio(*single, options.cio).value();
    CheckAnswer(one_mode, truth, check, "one-mode", log);
    Expect(log.failed() == 1 && log.first_failures()[0].find("modes") !=
                                    std::string::npos,
           "mode check fires on a single-mode density against 2 modes");
  }
}

void TestDriftCheck() {
  const auto archive =
      vastats::ClimateArchive::Build(vastats::ClimateArchiveOptions{});
  const auto sources = archive.ok() ? archive->MakeSourceSet()
                                    : vastats::Result<vastats::SourceSet>(
                                          archive.status());
  Expect(sources.ok(), "climate archive builds");
  if (!sources.ok()) return;
  vastats::serving::QueryRequest request;
  request.query.name = "district0";
  request.query.kind = AggregateKind::kSum;
  for (int m = 1; m <= 6; ++m) {
    request.query.components.push_back(vastats::ClimateArchive::ComponentFor(
        vastats::ClimateAttribute::kMeanTemperature, 0, m));
  }
  // A station of district 0 that reports, and one of a district the query
  // does not touch.
  int inside = -1, outside = -1;
  for (size_t s = 0; s < archive->stations().size(); ++s) {
    const int district = archive->stations()[s].district;
    const bool holds = sources->sources()[s].Has(request.query.components[0]);
    if (district == 0 && holds && inside < 0) inside = static_cast<int>(s);
    if (district == 50 && outside < 0) outside = static_cast<int>(s);
  }
  auto server = vastats::serving::ExtractionServer::Create(
      &*sources, vastats::serving::ServingOptions{});
  Expect(server.ok() && inside >= 0 && outside >= 0, "drift test server builds");
  if (!server.ok() || inside < 0 || outside < 0) return;
  const auto drift_then_reread = [&](int station) {
    const bool read = (*server)->Extract(request).ok();
    const auto before = (*server)->CacheStats();
    (*server)->OnSourceDrift(station);
    const auto after_drift = (*server)->CacheStats();
    const bool reread = (*server)->Extract(request).ok();
    return read && reread &&
           DriftEvicted(before, after_drift, (*server)->CacheStats());
  };
  Expect(!drift_then_reread(outside),
         "drift check fires on a drift outside the query's closure");
  Expect(drift_then_reread(inside),
         "drift check passes on a drift inside the query's closure");
}

void TestSecondSeed() {
  constexpr uint64_t kSeeds[] = {1, 20261018};
  for (const std::string& name : WorkloadNames()) {
    int faulted[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const std::string at = " at seed " + std::to_string(kSeeds[k]);
      std::unique_ptr<Workload> workload = MakeWorkload(name);
      const vastats::Status setup = workload->Setup(kSeeds[k]);
      Expect(setup.ok(), name + " sets up" + at);
      if (!setup.ok()) continue;
      CheckLog log;
      for (int64_t i = 0; i < workload->RoundSize(); ++i) {
        faulted[k] += workload->RunOp(i, nullptr, log).failed;
      }
      for (const std::string& failure : log.first_failures()) {
        std::printf("  %s\n", failure.c_str());
      }
      for (const auto& [fault, count] : log.faults()) {
        std::printf("  known fault, %lld answer(s): %s\n",
                    static_cast<long long>(count), fault.c_str());
      }
      Expect(log.failed() == 0 && log.performed() > 0,
             name + ": one round passes all " +
                 std::to_string(log.performed()) + " checks" + at);
    }
    Expect(faulted[0] == faulted[1],
           name + ": " + std::to_string(faulted[1]) +
               " answers per round fail on known faults at either seed");
  }
}

}  // namespace

int RunSelfTests() {
  TestClosedForms();
  TestPlantedPerturbations();
  TestDriftCheck();
  TestSecondSeed();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
