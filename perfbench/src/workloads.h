// The benchmark's workloads. Each one builds its inputs from the run seed,
// runs a closed loop of operations whose timed sections wrap only the
// library calls, checks every answer outside those sections, and measures
// the per-layer metrics it is home to with a fixed amount of work.

#ifndef VASTATS_PERFBENCH_WORKLOADS_H_
#define VASTATS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "vastats/vastats.h"

namespace perfbench {

// Extraction seed of the untimed warm-up answer every Setup() ends with;
// fixed, so that set-up does the same work whatever the run seed.
inline constexpr uint64_t kWarmSeed = 0x5e7c0ffee;

// What one operation did inside its timed section.
struct OpOutcome {
  // One latency (seconds) per answer; members of a batch share the batch's.
  std::vector<double> latencies;
  int failed = 0;             // answers whose library call returned an error
  double seconds = 0.0;       // wall time of the timed section
  double cpu_seconds = 0.0;   // process CPU time of the timed section
  int64_t draws = 0;          // uniS draws actually sampled (S_uniS draws)
  int cache_hits = 0;         // answers served from an answer cache
};

struct LayerMetric {
  double value = 0.0;
  std::string unit;
};
using LayerReport = std::map<std::string, LayerMetric>;

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input, creates the extractor/server/transport, and warms
  // plans and caches with one untimed answer. Everything here counts
  // towards setup_s.
  virtual vastats::Status Setup(uint64_t seed) = 0;
  // Operations per round; a run always completes whole rounds.
  virtual int RoundSize() const = 0;
  // Runs operation `index`: the timed section, then the checks on its
  // answers. With `spans`, the operation records the benchmark's spans
  // around each layer call.
  virtual OpOutcome RunOp(int64_t index, SpanRecorder* spans,
                          CheckLog& log) = 0;
  // Measures the per-layer metrics this workload is home to, with a fixed
  // amount of work so that counts repeat exactly for one seed.
  virtual void MeasureLayers(LayerReport& report, SpanRecorder* spans,
                             CheckLog& log) = 0;
};

std::unique_ptr<Workload> MakePaperExtract();
std::unique_ptr<Workload> MakeWideDraws();
std::unique_ptr<Workload> MakeServedMix();
std::unique_ptr<Workload> MakeChaosTransport();

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

// Wall times of the layer calls one extraction is made of.
struct LayerTimes {
  double sampling = 0.0;
  double bootstrap = 0.0;   // BootstrapIndexSets + ReplicatesFromIndexSets
  double bca = 0.0;         // JackknifeMoment + BcaCi per point statistic
  double bagged_kde = 0.0;  // EstimateBaggedKde
  double cio = 0.0;         // GreedyCio
  double stability = 0.0;   // EstimateSourcesPerAnswer + ComputeStability
  double Total() const {
    return sampling + bootstrap + bca + bagged_kde + cio + stability;
  }
};

// Runs what AnswerStatisticsExtractor::Extract() runs — for the serial,
// fault-free, BCa/mean-bagging configuration — as separate calls into each
// layer's public functions, timing each call (and recording a span per
// call when `spans` is set). The result is bit-identical to Extract() on
// the same extractor; the sets it bootstrapped are returned through `sets`
// when non-null.
vastats::Result<vastats::AnswerStatistics> ExtractByLayers(
    const vastats::AnswerStatisticsExtractor& extractor, SpanRecorder* spans,
    int64_t request, LayerTimes* times,
    std::vector<std::vector<double>>* sets = nullptr);

// Creates an extractor for `query` with `options` and the given seed.
vastats::Result<vastats::AnswerStatisticsExtractor> MakeExtractor(
    const vastats::SourceSet* sources, const vastats::AggregateQuery& query,
    vastats::ExtractorOptions options, uint64_t seed);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_WORKLOADS_H_
