#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Value of the first "<key>:" line of /proc/self/status, as a number.
double StatusField(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

void AppendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

double WallNow() { return ClockSeconds(CLOCK_MONOTONIC); }

double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int RoundOrder::SlotOf(int64_t index) {
  const int64_t round = index / size_;
  if (round != round_) {
    round_ = round;
    slots_.resize(static_cast<size_t>(size_));
    for (int i = 0; i < size_; ++i) slots_[static_cast<size_t>(i)] = i;
    // Fisher-Yates with a splitmix stream keyed by (seed, round).
    for (int i = size_ - 1; i > 0; --i) {
      const uint64_t r = MixSeed(MixSeed(seed_, static_cast<uint64_t>(round)),
                                 static_cast<uint64_t>(i));
      std::swap(slots_[static_cast<size_t>(i)],
                slots_[static_cast<size_t>(r % static_cast<uint64_t>(i + 1))]);
    }
  }
  return slots_[static_cast<size_t>(index % size_)];
}

double PeakRssMiB() { return StatusField("VmHWM") / 1024.0; }

int CurrentThreads() { return static_cast<int>(StatusField("Threads")); }

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

double HostProbeMs() {
  const double start = WallNow();
  uint64_t x = 0x243f6a8885a308d3ULL;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += static_cast<double>(x >> 40) * 1e-9;
  }
  const double elapsed = WallNow() - start;
  // Keep the loop observable so the optimizer cannot drop it.
  if (acc < 0.0) std::fprintf(stderr, "%f\n", acc);
  return elapsed * 1e3;
}

int SpanRecorder::Begin(std::string_view name, int64_t request) {
  Record record;
  record.name = std::string(name);
  record.start = WallNow() - epoch_;
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request >= 0 || record.parent < 0
                       ? request
                       : records_[static_cast<size_t>(record.parent)].request;
  records_.push_back(std::move(record));
  const int id = static_cast<int>(records_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  records_[static_cast<size_t>(id)].end = WallNow() - epoch_;
  // Spans close in LIFO order under RAII; tolerate out-of-order closes.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

std::vector<double> SpanRecorder::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Record& record : records_) {
    if (record.name == name) out.push_back(record.end - record.start);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<double> child_total(records_.size(), 0.0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_total[static_cast<size_t>(record.parent)] +=
          record.end - record.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    self[record.name] += record.end - record.start - child_total[i];
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Record& record : records_) {
    std::string line = "{\"name\": \"";
    AppendEscaped(line, record.name);
    line += "\", \"start_s\": " + FormatNumber(record.start) +
            ", \"end_s\": " + FormatNumber(record.end) +
            ", \"parent\": " + std::to_string(record.parent) +
            ", \"request\": " + std::to_string(record.request) + "}\n";
    out << line;
  }
  return static_cast<bool>(out);
}

void CheckLog::Expect(bool ok, std::string_view what) {
  ++performed_;
  if (ok) return;
  ++failed_;
  if (first_.size() < 8) first_.emplace_back(what);
}

bool CheckLog::ExpectNoFault(bool ok, const std::string& fault) {
  ++performed_;
  if (!ok) ++faults_[fault];
  return ok;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench
