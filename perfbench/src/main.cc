// vastats_perfbench — one closed-loop workload per process.
//
//   vastats_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <path>]
//   vastats_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (the benchmark's spans around every layer call),
// reports each span's self time and the tracing overhead, and measures
// every per-layer metric on its home workload. The last line of standard
// output is the result object; lines before it are the run's self-report.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTests();

namespace {

// Set-ups per timed run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool self_test = false;
};

// Every per-layer metric a traced run must report.
const char* const kLayerMetrics[] = {
    "util.dct_pair_us",
    "density.bagged_kde_ms",
    "density.kde_fit_us",
    "density.botev_evals_per_fit",
    "stats.bootstrap_ms",
    "stats.bca_us",
    "sampling.draw_us.sum",
    "sampling.draw_us.avg",
    "sampling.draw_us.median",
    "sampling.draw_us.var",
    "sampling.visits_per_draw",
    "sampling.takeovers_per_draw",
    "sampling.degraded_draw_us",
    "datagen.build_ms",
    "datagen.attempts_per_visit",
    "datagen.draws_dropped",
    "core.cio_us",
    "core.stability_us",
    "core.extract_ms",
    "core.unattributed_ms",
    "serving.hit_us",
    "serving.miss_ms",
    "serving.batch_member_ms",
    "serving.answer_hits",
    "serving.answer_misses",
    "serving.bandwidth_hits",
    "serving.answer_invalidations",
    "transport.codec_ns_per_frame",
    "transport.visit_us",
    "transport.requests_per_draw",
    "transport.prefetch_use_ratio",
    "transport.peak_in_flight",
    "obs.telemetry_extract_ms",
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->self_test ||
         (!args->workload.empty() && args->seconds > 0.0 &&
          (args->trace == 0 || args->trace == 1));
}

// Accumulates the outcome of a stretch of operations.
struct Tally {
  std::vector<double> latencies;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  int64_t draws = 0;
  int64_t failed = 0;
  int64_t ops = 0;
  int64_t cache_hits = 0;

  void Add(const OpOutcome& op) {
    latencies.insert(latencies.end(), op.latencies.begin(), op.latencies.end());
    seconds += op.seconds;
    cpu_seconds += op.cpu_seconds;
    draws += op.draws;
    failed += op.failed;
    cache_hits += op.cache_hits;
    ++ops;
  }
};

// Runs whole rounds from op 0 until `stop(tally)` holds at a round boundary
// or the wall cap passes.
template <typename Stop>
Tally RunLoop(Workload& workload, SpanRecorder* spans, CheckLog& log,
              ThreadWatch& threads, double wall_cap_s, Stop stop) {
  Tally tally;
  const double start = WallNow();
  const int round = workload.RoundSize();
  for (int64_t i = 0;; ++i) {
    if (i % round == 0 && (stop(tally) || WallNow() - start > wall_cap_s)) {
      break;
    }
    tally.Add(workload.RunOp(i, spans, log));
    threads.Sample();
  }
  return tally;
}

std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed) {
  std::unique_ptr<Workload> workload = MakeWorkload(name);
  const vastats::Status status = workload->Setup(seed);
  if (!status.ok()) {
    std::fprintf(stderr, "%s setup failed: %s\n", name.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
  return workload;
}

void PrintFailures(const CheckLog& log) {
  for (const std::string& failure : log.first_failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
}

// Answers failed on a known fault, per check, as a JSON object.
std::string FaultsJson(const CheckLog& log) {
  std::string out = "{";
  for (const auto& [fault, count] : log.faults()) {
    if (out.size() > 1) out += ", ";
    out += "\"" + fault + "\": " + std::to_string(count);
  }
  return out + "}";
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ", ";
    out += FormatNumber(v);
  }
  return out;
}

std::string Metric(const char* name, double value, const char* unit) {
  return std::string("\"") + name + "\": {\"value\": " + FormatNumber(value) +
         ", \"unit\": \"" + unit + "\"}";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<std::string>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += metrics[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintHost(double probe_before_ms, double probe_after_ms, int peak_threads,
               int nproc) {
  std::printf(
      "{\"host\": {\"nproc\": %d, \"cpu_model\": \"%s\", "
      "\"probe_ms_before\": %s, \"probe_ms_after\": %s, "
      "\"peak_threads\": %d}}\n",
      nproc, CpuModel().c_str(), FormatNumber(probe_before_ms).c_str(),
      FormatNumber(probe_after_ms).c_str(), peak_threads);
}

int RunTimed(const Args& args) {
  const int nproc = OnlineCpus();
  ThreadWatch threads;
  const double probe_before = HostProbeMs();
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    const double start = WallNow();
    workload = SetUp(args.workload, args.seed);
    setup_s.push_back(WallNow() - start);
    threads.Sample();
  }

  CheckLog log;
  // At least 100 answers so that p90 has ten answers beyond it.
  const Tally tally = RunLoop(
      *workload, nullptr, log, threads, std::max(60.0, 4.0 * args.seconds),
      [&](const Tally& t) {
        return t.seconds >= args.seconds && t.latencies.size() >= 100;
      });
  const double probe_after = HostProbeMs();
  threads.Sample();

  const int64_t answers = static_cast<int64_t>(tally.latencies.size());
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"ops\": %lld, "
      "\"answers\": %lld, \"failed\": %lld, \"cache_hits\": %lld, \"timed_s\": %s, "
      "\"checks\": %lld, \"checks_failed\": %lld, \"faults\": %s, "
      "\"setup_s_each\": [%s]}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<long long>(tally.ops), static_cast<long long>(answers),
      static_cast<long long>(tally.failed),
      static_cast<long long>(tally.cache_hits), FormatNumber(tally.seconds).c_str(),
      static_cast<long long>(log.performed()),
      static_cast<long long>(log.failed()), FaultsJson(log).c_str(),
      Join(setup_s).c_str());
  PrintHost(probe_before, probe_after, threads.peak(), nproc);
  PrintFailures(log);
  const bool threads_ok = threads.peak() <= nproc;
  if (!threads_ok) {
    std::fprintf(stderr, "peak thread count %d exceeds nproc %d\n",
                 threads.peak(), nproc);
  }

  const double n = static_cast<double>(std::max<int64_t>(answers, 1));
  PrintResult(
      log.failed() == 0 && threads_ok && answers > 0, answers, tally.failed,
      {Metric("setup_s", Median(setup_s), "s"),
       Metric("latency_ms_p50", Percentile(tally.latencies, 0.5) * 1e3, "ms"),
       Metric("latency_ms_p90", Percentile(tally.latencies, 0.9) * 1e3, "ms"),
       Metric("answers_per_s", static_cast<double>(answers) / tally.seconds,
              "1/s"),
       Metric("draws_per_s", static_cast<double>(tally.draws) / tally.seconds,
              "1/s"),
       Metric("cpu_ms_per_answer", tally.cpu_seconds * 1e3 / n, "ms"),
       Metric("peak_rss_mb", PeakRssMiB(), "MiB")});
  return 0;
}

int RunTraced(const Args& args) {
  const int nproc = OnlineCpus();
  ThreadWatch threads;
  CheckLog log;
  const double probe_before = HostProbeMs();

  // Untraced, then the same operations traced on a freshly set-up
  // workload (so caches start equally cold).
  std::unique_ptr<Workload> workload = SetUp(args.workload, args.seed);
  const Tally untraced = RunLoop(
      *workload, nullptr, log, threads, std::max(30.0, 2.0 * args.seconds),
      [&](const Tally& t) { return t.seconds >= args.seconds / 2.0; });
  workload = SetUp(args.workload, args.seed);
  SpanRecorder spans;
  const Tally traced =
      RunLoop(*workload, &spans, log, threads, std::max(30.0, 2.0 * args.seconds),
              [&](const Tally& t) { return t.ops >= untraced.ops; });
  workload.reset();
  // Share of a layer-by-layer answer that no layer span covers.
  double by_layers = 0.0;
  for (const double d : spans.Durations("core.extract_by_layers")) by_layers += d;
  const auto self_before_sweep = spans.SelfSeconds();
  const auto glue = self_before_sweep.find("core.extract_by_layers");
  const double unattributed_pct =
      by_layers > 0.0 && glue != self_before_sweep.end()
          ? glue->second / by_layers * 100.0
          : 0.0;

  // Every per-layer metric, each measured on its home workload.
  LayerReport report;
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> home = SetUp(name, args.seed);
    home->MeasureLayers(report, &spans, log);
    threads.Sample();
  }
  const double probe_after = HostProbeMs();

  if (!args.trace_out.empty() && !spans.WriteJsonLines(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  std::string self = "{\"trace_self_ms\": {";
  bool first = true;
  for (const auto& [name, seconds] : spans.SelfSeconds()) {
    if (!first) self += ", ";
    first = false;
    self += "\"" + name + "\": " + FormatNumber(seconds * 1e3);
  }
  self += "}}";
  std::printf("%s\n", self.c_str());
  const double p50_untraced = Percentile(untraced.latencies, 0.5);
  const double p50_traced = Percentile(traced.latencies, 0.5);
  std::printf(
      "{\"trace_overhead\": {\"ops\": %lld, \"untraced_p50_ms\": %s, "
      "\"traced_p50_ms\": %s, \"overhead_pct\": %s, "
      "\"unattributed_pct\": %s, \"faults\": %s}}\n",
      static_cast<long long>(traced.ops), FormatNumber(p50_untraced * 1e3).c_str(),
      FormatNumber(p50_traced * 1e3).c_str(),
      FormatNumber((p50_traced / p50_untraced - 1.0) * 100.0).c_str(),
      FormatNumber(unattributed_pct).c_str(), FaultsJson(log).c_str());
  PrintHost(probe_before, probe_after, threads.peak(), nproc);
  PrintFailures(log);

  bool complete = true;
  std::vector<std::string> metrics;
  for (const char* name : kLayerMetrics) {
    const auto it = report.find(name);
    if (it == report.end()) {
      std::fprintf(stderr, "per-layer metric %s was not measured\n", name);
      complete = false;
      continue;
    }
    metrics.push_back(Metric(name, it->second.value, it->second.unit.c_str()));
  }
  const bool threads_ok = threads.peak() <= nproc;
  const int64_t answers = static_cast<int64_t>(untraced.latencies.size() +
                                               traced.latencies.size());
  PrintResult(log.failed() == 0 && threads_ok && complete && answers > 0,
              answers, untraced.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>] | "
                 "--self-test\n",
                 argv[0]);
    return 2;
  }
  if (args.self_test) return perfbench::RunSelfTests();
  if (perfbench::MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace == 1 ? perfbench::RunTraced(args)
                         : perfbench::RunTimed(args);
}
