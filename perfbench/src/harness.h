// Measurement plumbing shared by the benchmark's workloads: clocks, robust
// statistics, the process self-report read from /proc, the host-speed
// probe, the benchmark's own span recorder, and the check ledger.
//
// Nothing here calls into vastats: the clocks, statistics and checks are the
// benchmark's own, so a fault in the library cannot bend the measurement
// that judges it.

#ifndef VASTATS_PERFBENCH_HARNESS_H_
#define VASTATS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic wall clock, seconds.
double WallNow();
// CPU time of the whole process (every thread), seconds.
double ProcessCpuNow();

// Wall + process-CPU stopwatch around one timed section.
class Section {
 public:
  Section() : wall_(WallNow()), cpu_(ProcessCpuNow()) {}
  double WallSeconds() const { return WallNow() - wall_; }
  double CpuSeconds() const { return ProcessCpuNow() - cpu_; }

 private:
  double wall_;
  double cpu_;
};

// Nearest-rank-free percentile: linear interpolation between order
// statistics (q in [0, 1]). Returns 0 for an empty input.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// splitmix64 — derives independent per-answer seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t index);

// The order of a workload's rounds. Every round runs the same fixed set of
// operations, whose inputs do not depend on the run seed; the seed only
// shuffles their order, afresh each round. So every run, whatever its seed
// and length, attempts the same operations in the same proportions, and
// answers that fail on a known fault are the same share of every run.
class RoundOrder {
 public:
  RoundOrder() = default;
  RoundOrder(uint64_t seed, int size) : seed_(seed), size_(size) {}
  // Slot in [0, size) that operation `index` runs.
  int SlotOf(int64_t index);

 private:
  uint64_t seed_ = 0;
  int size_ = 1;
  int64_t round_ = -1;
  std::vector<int> slots_;
};

// /proc/self/status fields.
double PeakRssMiB();        // VmHWM
int CurrentThreads();       // Threads
int OnlineCpus();           // sysconf(_SC_NPROCESSORS_ONLN)
std::string CpuModel();     // /proc/cpuinfo "model name"

// Fixed arithmetic loop that touches no library code; its wall time is a
// fingerprint of the host's speed at that moment (not a metric).
double HostProbeMs();

// Tracks the peak thread count the process reached (sampled, since
// /proc only reports the current count).
class ThreadWatch {
 public:
  void Sample() {
    const int now = CurrentThreads();
    if (now > peak_) peak_ = now;
  }
  int peak() const { return peak_; }

 private:
  int peak_ = 0;
};

// The benchmark's span recorder: spans kept in memory, written out at the
// end. Nesting follows the RAII scopes of `Span`.
class SpanRecorder {
 public:
  struct Record {
    std::string name;
    double start = 0.0;  // seconds since the recorder was created
    double end = 0.0;
    int parent = -1;
    int64_t request = -1;
  };

  SpanRecorder() : epoch_(WallNow()) {}

  int Begin(std::string_view name, int64_t request);
  void End(int id);
  const std::vector<Record>& records() const { return records_; }

  // Wall seconds of every span named `name`, in record order.
  std::vector<double> Durations(std::string_view name) const;
  // Self time (duration minus direct children) summed per span name.
  std::map<std::string, double> SelfSeconds() const;
  // Writes one JSON object per span to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double epoch_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it free.
class Span {
 public:
  Span(SpanRecorder* recorder, std::string_view name, int64_t request = -1)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, request)) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void Close() {
    if (recorder_ != nullptr && id_ >= 0) recorder_->End(id_);
    id_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Counts correctness checks and keeps the first few failures for the log.
//
// `ExpectNoFault` is for a check that a known fault of the library fails
// (README.md, "Known faults"). Its failure does not make the run incorrect:
// the caller counts the answer as a failed answer instead, and the failure
// is tallied under `fault`.
class CheckLog {
 public:
  void Expect(bool ok, std::string_view what);
  // Returns `ok`.
  bool ExpectNoFault(bool ok, const std::string& fault);
  int64_t performed() const { return performed_; }
  // Failed checks other than known faults.
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& first_failures() const { return first_; }
  const std::map<std::string, int64_t>& faults() const { return faults_; }

 private:
  int64_t performed_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> first_;
  std::map<std::string, int64_t> faults_;
};

// Shortest round-trip decimal form of `value` (JSON-safe for finite input).
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_HARNESS_H_
