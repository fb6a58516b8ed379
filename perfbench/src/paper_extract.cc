// paper_extract: Table 2 defaults over D2 Sum and the Figure 7
// aggregations S1-S4, serial sampling and no pool. A round is the same
// kPerInput extraction seeds on each of the five inputs, in an order the run
// seed shuffles. Home of the util, density, stats, core and obs per-layer
// metrics, and of datagen.build_ms.

#include <algorithm>
#include <utility>

#include "bench/workloads.h"
#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vastats::Result;
using vastats::Status;

// Figure 7's mode counts are lower bounds at FindProminentModes(0.1).
constexpr int kMinModes[] = {0, 2, 2, 7, 8};
// Answers measured per layer sweep.
constexpr int kLayerAnswers = 12;
// Extraction seeds per input in a round, MixSeed(kPoolSeed, slot).
constexpr int kInputs = 5;
constexpr int kPerInput = 20;
constexpr uint64_t kPoolSeed = 0x9a9e12;

struct Input {
  vastats::bench::Workload workload;
  QueryTruth truth;
};

class PaperExtract final : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    seed_ = seed;
    inputs_.clear();
    inputs_.push_back({vastats::bench::MakeD2Workload(), {}});
    inputs_.push_back({vastats::bench::MakeS1(), {}});
    inputs_.push_back({vastats::bench::MakeS2(), {}});
    inputs_.push_back({vastats::bench::MakeS3(), {}});
    inputs_.push_back({vastats::bench::MakeS4(), {}});
    for (Input& input : inputs_) {
      input.truth =
          ComputeTruth(*input.workload.sources, input.workload.query);
    }
    options_ = vastats::ExtractorOptions{};
    options_.sampling_threads = 1;
    order_ = RoundOrder(seed, RoundSize());
    // Warm the per-thread plans with one untimed answer.
    VASTATS_ASSIGN_OR_RETURN(const vastats::AnswerStatisticsExtractor warm,
                             MakeExtractor(inputs_[0].workload.sources.get(),
                                           inputs_[0].workload.query, options_,
                                           kWarmSeed));
    VASTATS_ASSIGN_OR_RETURN(const vastats::AnswerStatistics warmed,
                             warm.Extract());
    (void)warmed;
    return Status::Ok();
  }

  int RoundSize() const override { return kInputs * kPerInput; }

  OpOutcome RunOp(int64_t index, SpanRecorder* spans, CheckLog& log) override {
    OpOutcome out;
    const int slot = order_.SlotOf(index);
    const size_t w = static_cast<size_t>(slot % kInputs);
    const Input& input = inputs_[w];
    Result<vastats::AnswerStatisticsExtractor> extractor =
        MakeExtractor(input.workload.sources.get(), input.workload.query,
                      options_, MixSeed(kPoolSeed, static_cast<uint64_t>(slot)));
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
    out.draws = options_.initial_sample_size;
    if (!stats.ok()) {
      out.failed = 1;
      return out;
    }
    AnswerCheckOptions check;
    check.theta = options_.cio.theta;
    check.min_modes = kMinModes[w];
    if (!CheckAnswer(*stats, input.truth, check, input.workload.label, log)) {
      out.failed = 1;
    }
    return out;
  }

  void MeasureLayers(LayerReport& report, SpanRecorder* spans,
                     CheckLog& log) override;

 private:
  uint64_t seed_ = 0;
  RoundOrder order_;
  std::vector<Input> inputs_;
  vastats::ExtractorOptions options_;
};

double MedianUs(std::vector<double> seconds) { return Median(std::move(seconds)) * 1e6; }
double MedianMs(std::vector<double> seconds) { return Median(std::move(seconds)) * 1e3; }

void PaperExtract::MeasureLayers(LayerReport& report, SpanRecorder* spans,
                                 CheckLog& log) {
  const Input& d2 = inputs_[0];
  std::vector<double> bootstrap, bca, bagged, cio, stability, extract,
      unattributed, telemetry, fit;
  uint64_t botev_evals = 0, kde_sets = 0;
  vastats::DctPlan fit_plan;
  for (int a = 0; a < kLayerAnswers; ++a) {
    const uint64_t seed = MixSeed(seed_, 7000 + static_cast<uint64_t>(a));
    Result<vastats::AnswerStatisticsExtractor> extractor = MakeExtractor(
        d2.workload.sources.get(), d2.workload.query, options_, seed);
    log.Expect(extractor.ok(), "layers: extractor creation");
    if (!extractor.ok()) return;

    // The layer calls, then one whole Extract() on the same seed.
    LayerTimes times;
    std::vector<std::vector<double>> sets;
    Result<vastats::AnswerStatistics> by_layers =
        ExtractByLayers(*extractor, spans, 7000 + a, &times, &sets);
    double extract_s = 0.0;
    Result<vastats::AnswerStatistics> whole = [&] {
      Span span(spans, "core.extract", 7000 + a);
      const double start = WallNow();
      Result<vastats::AnswerStatistics> r = extractor->Extract();
      extract_s = WallNow() - start;
      return r;
    }();
    log.Expect(by_layers.ok() && whole.ok() && BitIdentical(*by_layers, *whole),
               "layers: layer calls reproduce Extract() bit for bit");
    if (!by_layers.ok() || !whole.ok()) return;
    bootstrap.push_back(times.bootstrap);
    bca.push_back(times.bca);
    bagged.push_back(times.bagged_kde);
    cio.push_back(times.cio);
    stability.push_back(times.stability);
    extract.push_back(extract_s);
    unattributed.push_back(extract_s - times.Total());

    // The same Extract() with every telemetry sink attached.
    vastats::Trace trace;
    vastats::MetricsRegistry metrics;
    vastats::FlightRecorder recorder;
    vastats::ExtractorOptions observed = options_;
    observed.obs = {&trace, &metrics, &recorder};
    Result<vastats::AnswerStatisticsExtractor> traced = MakeExtractor(
        d2.workload.sources.get(), d2.workload.query, observed, seed);
    if (traced.ok()) {
      Span span(spans, "obs.telemetry_extract", 7000 + a);
      const double start = WallNow();
      Result<vastats::AnswerStatistics> r = traced->Extract();
      telemetry.push_back(WallNow() - start);
      log.Expect(r.ok() && BitIdentical(*r, *whole),
                 "layers: telemetry leaves the answer unchanged");
    }

    // One KDE fit on the common grid of the bagged estimate, and the Botev
    // evaluation count of the whole bagged estimate (counted untimed).
    vastats::KdeOptions fit_options = options_.kde;
    fit_options.x_min = by_layers->density.x_min();
    fit_options.x_max = by_layers->density.x_max();
    {
      Span span(spans, "density.kde_fit", 7000 + a);
      const double start = WallNow();
      Result<vastats::Kde> kde =
          vastats::EstimateKde(sets[0], fit_options, {}, &fit_plan);
      fit.push_back(WallNow() - start);
      log.Expect(kde.ok(), "layers: single KDE fit");
    }
    vastats::MetricsRegistry kde_metrics;
    vastats::BaggedKdeOptions bagged_options;
    bagged_options.kde = options_.kde;
    bagged_options.bandwidth_mode = options_.kde_bandwidth_mode;
    vastats::ObsOptions kde_obs;
    kde_obs.metrics = &kde_metrics;
    log.Expect(vastats::EstimateBaggedKde(sets, by_layers->samples,
                                          bagged_options, kde_obs)
                   .ok(),
               "layers: counted bagged KDE");
    const vastats::MetricsSnapshot snapshot = kde_metrics.Snapshot();
    if (const auto* c = snapshot.FindCounter("kde_botev_iterations_total")) {
      botev_evals += c->value;
    }
    if (const auto* c = snapshot.FindCounter("bagged_kde_sets_total")) {
      kde_sets += c->value;
    }
  }

  // One DCT-II + DCT-III pair on a cached 4096-point plan.
  std::vector<double> pair_us;
  {
    vastats::DctPlan plan;
    std::vector<double> input(4096), spectrum, back;
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = static_cast<double>((i * 2654435761u) % 1000) * 1e-3;
    }
    (void)plan.Dct2(input, spectrum);
    (void)plan.Dct3(spectrum, back);
    constexpr int kPairs = 100;
    for (int batch = 0; batch < 9; ++batch) {
      const double start = WallNow();
      for (int p = 0; p < kPairs; ++p) {
        (void)plan.Dct2(input, spectrum);
        (void)plan.Dct3(spectrum, back);
      }
      pair_us.push_back((WallNow() - start) / kPairs);
    }
  }

  // Building the synthetic and climate inputs every workload starts from.
  std::vector<double> build;
  for (int r = 0; r < 3; ++r) {
    Span span(spans, "datagen.build");
    const double start = WallNow();
    const vastats::bench::Workload d2_again = vastats::bench::MakeD2Workload();
    const Result<vastats::ClimateArchive> archive =
        vastats::ClimateArchive::Build(vastats::ClimateArchiveOptions{});
    const bool ok = archive.ok() && archive->MakeSourceSet().ok() &&
                    d2_again.sources->NumSources() > 0;
    build.push_back(WallNow() - start);
    log.Expect(ok, "layers: datagen build");
  }

  report["util.dct_pair_us"] = {MedianUs(pair_us), "us"};
  report["density.bagged_kde_ms"] = {MedianMs(bagged), "ms"};
  report["density.kde_fit_us"] = {MedianUs(fit), "us"};
  report["density.botev_evals_per_fit"] = {
      kde_sets == 0 ? 0.0
                    : static_cast<double>(botev_evals) / static_cast<double>(kde_sets),
      "count"};
  report["stats.bootstrap_ms"] = {MedianMs(bootstrap), "ms"};
  report["stats.bca_us"] = {MedianUs(bca), "us"};
  report["core.cio_us"] = {MedianUs(cio), "us"};
  report["core.stability_us"] = {MedianUs(stability), "us"};
  report["core.extract_ms"] = {MedianMs(extract), "ms"};
  report["core.unattributed_ms"] = {MedianMs(unattributed), "ms"};
  report["obs.telemetry_extract_ms"] = {MedianMs(telemetry), "ms"};
  report["datagen.build_ms"] = {MedianMs(build), "ms"};
}

}  // namespace

std::unique_ptr<Workload> MakePaperExtract() {
  return std::make_unique<PaperExtract>();
}

}  // namespace perfbench
