// ExtractByLayers: one extraction as separate, individually timed calls into
// the sampling, stats, density and core layers.

#include <utility>

#include "workloads.h"

namespace perfbench {

using vastats::MomentStatistic;
using vastats::Result;

namespace {

// Times one layer call into `*slot` and wraps it in a span.
template <typename Fn>
auto TimeLayer(SpanRecorder* spans, const char* name, double* slot, Fn&& fn) {
  Span span(spans, name);
  const double start = WallNow();
  auto result = fn();
  *slot += WallNow() - start;
  return result;
}

}  // namespace

Result<vastats::AnswerStatisticsExtractor> MakeExtractor(
    const vastats::SourceSet* sources, const vastats::AggregateQuery& query,
    vastats::ExtractorOptions options, uint64_t seed) {
  options.seed = seed;
  return vastats::AnswerStatisticsExtractor::Create(sources, query,
                                                    std::move(options));
}

Result<vastats::AnswerStatistics> ExtractByLayers(
    const vastats::AnswerStatisticsExtractor& extractor, SpanRecorder* spans,
    int64_t request, LayerTimes* times,
    std::vector<std::vector<double>>* sets_out) {
  const vastats::ExtractorOptions& options = extractor.options();
  if (options.fault_tolerance.has_value() || options.adaptive.has_value() ||
      options.sampling_threads != 1 || options.ci_method != vastats::CiMethod::kBca ||
      options.bag_aggregator != vastats::BagAggregator::kMean) {
    return vastats::Status::InvalidArgument(
        "ExtractByLayers covers the serial fault-free BCa configuration only");
  }
  Span answer_span(spans, "core.extract_by_layers", request);
  LayerTimes local;
  LayerTimes& t = times != nullptr ? *times : local;
  vastats::Rng rng(options.seed);

  vastats::AnswerStatistics stats{
      .mean = {},
      .variance = {},
      .std_dev = {},
      .skewness = {},
      .density = vastats::GridDensity::Create(0.0, 1.0, {0.0, 0.0}).value(),
      .coverage = {},
      .stability = {},
      .samples = {},
      .answer_weight_y = 0.0,
      .timings = {},
      .degradation = {}};

  VASTATS_ASSIGN_OR_RETURN(
      stats.samples, TimeLayer(spans, "sampling.sample", &t.sampling, [&] {
        return extractor.sampler().Sample(options.initial_sample_size, rng);
      }));
  const std::vector<double>& samples = stats.samples;

  // Bootstrap indices (same rng stream as BootstrapSets) and the replicate
  // ensembles of the four point statistics Extract() reports.
  const MomentStatistic kStatistics[] = {
      MomentStatistic::kMean, MomentStatistic::kVariance,
      MomentStatistic::kStdDev, MomentStatistic::kSkewness};
  vastats::PointEstimate* const kTargets[] = {&stats.mean, &stats.variance,
                                              &stats.std_dev, &stats.skewness};
  std::vector<std::vector<int>> index_sets;
  std::vector<std::vector<double>> replicates(4);
  {
    Span span(spans, "stats.bootstrap");
    const double start = WallNow();
    VASTATS_ASSIGN_OR_RETURN(
        index_sets,
        vastats::BootstrapIndexSets(static_cast<int>(samples.size()),
                                    options.bootstrap, rng));
    for (int s = 0; s < 4; ++s) {
      VASTATS_ASSIGN_OR_RETURN(
          replicates[static_cast<size_t>(s)],
          vastats::ReplicatesFromIndexSets(
              samples, index_sets, vastats::MomentStatisticFn(kStatistics[s])));
    }
    t.bootstrap += WallNow() - start;
  }
  {
    Span span(spans, "stats.bca");
    const double start = WallNow();
    for (int s = 0; s < 4; ++s) {
      const std::vector<double>& reps = replicates[static_cast<size_t>(s)];
      vastats::PointEstimate& target = *kTargets[s];
      VASTATS_ASSIGN_OR_RETURN(target.value,
                               vastats::Bag(reps, options.bag_aggregator));
      VASTATS_ASSIGN_OR_RETURN(const std::vector<double> jackknife,
                               vastats::JackknifeMoment(samples, kStatistics[s]));
      const double plug_in =
          vastats::EvaluateMomentStatistic(kStatistics[s], samples);
      VASTATS_ASSIGN_OR_RETURN(
          target.ci, vastats::BcaCi(reps, plug_in, options.confidence_level,
                                    jackknife));
    }
    t.bca += WallNow() - start;
  }

  // The bagged KDE consumes materialized sets, as Extract() builds them.
  std::vector<std::vector<double>> sets(index_sets.size());
  for (size_t s = 0; s < index_sets.size(); ++s) {
    sets[s].reserve(index_sets[s].size());
    for (const int i : index_sets[s]) {
      sets[s].push_back(samples[static_cast<size_t>(i)]);
    }
  }
  vastats::BaggedKdeOptions bagged;
  bagged.kde = options.kde;
  bagged.bandwidth_mode = options.kde_bandwidth_mode;
  VASTATS_ASSIGN_OR_RETURN(
      const vastats::BaggedKde kde,
      TimeLayer(spans, "density.bagged_kde", &t.bagged_kde, [&] {
        return vastats::EstimateBaggedKde(sets, samples, bagged);
      }));
  stats.density = kde.density;

  VASTATS_ASSIGN_OR_RETURN(
      stats.coverage, TimeLayer(spans, "core.cio", &t.cio, [&] {
        return vastats::GreedyCio(stats.density, options.cio);
      }));

  thread_local vastats::DctPlan stability_plan;
  {
    Span span(spans, "core.stability");
    const double start = WallNow();
    VASTATS_ASSIGN_OR_RETURN(
        stats.answer_weight_y,
        extractor.sampler().EstimateSourcesPerAnswer(options.weight_probes, rng));
    VASTATS_ASSIGN_OR_RETURN(
        stats.stability,
        vastats::ComputeStability(
            samples, kde.bandwidth, stats.answer_weight_y,
            extractor.sampler().sources().NumSources(), options.stability_r,
            options.change_ratio_estimator, options.stability, {},
            &stability_plan));
    t.stability += WallNow() - start;
  }
  if (sets_out != nullptr) *sets_out = std::move(sets);
  return stats;
}

}  // namespace perfbench
