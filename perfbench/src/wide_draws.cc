// wide_draws: a wide synthetic universe (200 sources x 2000 components)
// with 1000 uniS draws per answer under the shared Botev bandwidth, so
// sampling dominates an answer and bagging stays small. A round is three
// fixed extraction seeds on each of Sum, Avg, Median and Var, in an order
// the run seed shuffles; serial sampling, no pool. Home of the per-draw
// sampling metrics.
//
// One Median slot holds a seed on which bagging yields a density value
// below zero (GridDensity::ValueAt extrapolates past the last grid cell;
// README.md, "Known faults"), so every run shows that fault.

#include <iterator>
#include <utility>

#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vastats::AggregateKind;
using vastats::Result;
using vastats::Status;

constexpr int kSources = 200;
constexpr int kComponents = 2000;
constexpr int kDraws = 1000;
constexpr int kLayerReps = 3;

struct Kind {
  AggregateKind kind;
  const char* label;
};
constexpr Kind kKinds[] = {{AggregateKind::kSum, "sum"},
                           {AggregateKind::kAverage, "avg"},
                           {AggregateKind::kMedian, "median"},
                           {AggregateKind::kVariance, "var"}};
constexpr size_t kNumKinds = std::size(kKinds);
// Extraction seeds per kind in a round, MixSeed(kPoolSeed, slot) ...
constexpr int kPerKind = 3;
constexpr uint64_t kPoolSeed = 0x3d1de;
// ... except in slot kMedianFaultSlot, a Median answer whose bagged density
// holds a negative value.
constexpr int kMedianFaultSlot = 2;
const uint64_t kMedianFaultSeed = MixSeed(308, 306);

class WideDraws final : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    const auto mixture = vastats::MakeD2(4241);
    vastats::SyntheticSourceSetOptions build;
    build.num_sources = kSources;
    build.num_components = kComponents;
    build.seed = 4242;
    VASTATS_ASSIGN_OR_RETURN(vastats::SourceSet sources,
                             vastats::BuildSyntheticSourceSet(*mixture, build));
    sources_ = std::make_unique<vastats::SourceSet>(std::move(sources));
    queries_.clear();
    truths_.clear();
    for (const Kind& kind : kKinds) {
      queries_.push_back(vastats::MakeRangeQuery(std::string("wide-") + kind.label,
                                                 kind.kind, 0, kComponents));
      truths_.push_back(ComputeTruth(*sources_, queries_.back()));
    }
    options_ = vastats::ExtractorOptions{};
    options_.initial_sample_size = kDraws;
    options_.kde_bandwidth_mode = vastats::BandwidthMode::kShared;
    options_.sampling_threads = 1;
    order_ = RoundOrder(seed, RoundSize());
    VASTATS_ASSIGN_OR_RETURN(
        const vastats::AnswerStatisticsExtractor warm,
        MakeExtractor(sources_.get(), queries_[0], options_, kWarmSeed));
    VASTATS_ASSIGN_OR_RETURN(const vastats::AnswerStatistics warmed, warm.Extract());
    (void)warmed;
    return Status::Ok();
  }

  int RoundSize() const override { return static_cast<int>(kNumKinds) * kPerKind; }

  OpOutcome RunOp(int64_t index, SpanRecorder* spans, CheckLog& log) override {
    OpOutcome out;
    const int slot = order_.SlotOf(index);
    const size_t k = static_cast<size_t>(slot) % kNumKinds;
    const uint64_t answer_seed = slot == kMedianFaultSlot
                                     ? kMedianFaultSeed
                                     : MixSeed(kPoolSeed, static_cast<uint64_t>(slot));
    Result<vastats::AnswerStatisticsExtractor> extractor =
        MakeExtractor(sources_.get(), queries_[k], options_, answer_seed);
    if (!extractor.ok()) {
      out.failed = 1;
      out.latencies.push_back(0.0);
      return out;
    }
    const Section section;
    Result<vastats::AnswerStatistics> stats =
        spans == nullptr ? extractor->Extract()
                         : ExtractByLayers(*extractor, spans, index, nullptr);
    out.seconds = section.WallSeconds();
    out.cpu_seconds = section.CpuSeconds();
    out.latencies.push_back(out.seconds);
    out.draws = kDraws;
    if (!stats.ok()) {
      out.failed = 1;
      return out;
    }
    AnswerCheckOptions check;
    check.theta = options_.cio.theta;
    if (!CheckAnswer(*stats, truths_[k], check, queries_[k].name, log)) {
      out.failed = 1;
    }
    return out;
  }

  void MeasureLayers(LayerReport& report, SpanRecorder* spans,
                     CheckLog& log) override {
    for (size_t k = 0; k < queries_.size(); ++k) {
      Result<vastats::UniSSampler> sampler =
          vastats::UniSSampler::Create(sources_.get(), queries_[k]);
      log.Expect(sampler.ok(), "layers: wide sampler");
      if (!sampler.ok()) return;
      std::vector<double> per_draw;
      for (int r = 0; r < kLayerReps; ++r) {
        vastats::Rng rng(MixSeed(seed_, 9000 + 10 * k + static_cast<uint64_t>(r)));
        Span span(spans, "sampling.sample", static_cast<int64_t>(9000 + 10 * k + r));
        const double start = WallNow();
        const bool ok = sampler->Sample(kDraws, rng).ok();
        per_draw.push_back((WallNow() - start) / kDraws);
        log.Expect(ok, "layers: wide sampling");
      }
      report[std::string("sampling.draw_us.") + kKinds[k].label] = {
          Median(per_draw) * 1e6, "us"};
    }

    // Source visits and component take-overs per draw, from the sampler's
    // own counters on a fixed-seed Sum run.
    Result<vastats::UniSSampler> sampler =
        vastats::UniSSampler::Create(sources_.get(), queries_[0]);
    if (!sampler.ok()) return;
    vastats::MetricsRegistry metrics;
    vastats::ObsOptions obs;
    obs.metrics = &metrics;
    vastats::Rng rng(MixSeed(seed_, 9100));
    log.Expect(sampler->Sample(kDraws, rng, obs).ok(), "layers: counted sampling");
    const vastats::MetricsSnapshot snapshot = metrics.Snapshot();
    const auto count = [&](const char* name) {
      const vastats::CounterSample* c = snapshot.FindCounter(name);
      return c == nullptr ? 0.0 : static_cast<double>(c->value);
    };
    const double draws = count("unis_draws_total");
    report["sampling.visits_per_draw"] = {
        draws > 0 ? count("unis_source_visits_total") / draws : 0.0, "count"};
    report["sampling.takeovers_per_draw"] = {
        draws > 0 ? count("unis_component_takeovers_total") / draws : 0.0, "count"};
  }

 private:
  uint64_t seed_ = 0;
  RoundOrder order_;
  std::unique_ptr<vastats::SourceSet> sources_;
  std::vector<vastats::AggregateQuery> queries_;
  std::vector<QueryTruth> truths_;
  vastats::ExtractorOptions options_;
};

}  // namespace

std::unique_ptr<Workload> MakeWideDraws() { return std::make_unique<WideDraws>(); }

}  // namespace perfbench
