// served_mix: an ExtractionServer over the climate archive (1672 stations,
// 104 districts). A catalogue of 180 Sum/Avg/Max queries over windows of
// districts x months — more than the 64-entry answer cache holds — is
// requested with Zipf popularity. A round is a fixed stream of kRoundOps
// operations, shuffled by the run seed: every 8th is a batch of 6 requests
// (two uniformly drawn windows x three kinds), every 16th a write, and the
// rest single requests. A write reads a popular query, calls
// OnSourceDrift(station) for a station in that query's closure, and reads
// the query again, which must be a miss. The batch pool is an explicit
// 2-thread pool. Every served answer is compared bit for bit with an
// isolated extractor built from DerivedOptions(). Home of the serving
// per-layer metrics.

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <utility>

#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vastats::Result;
using vastats::Status;
namespace serving = vastats::serving;

constexpr int kWindows = 60;
constexpr int kKindsPerWindow = 3;
constexpr int kQueries = kWindows * kKindsPerWindow;
// Every window has the same size, so cold answers cost about the same and
// the p50 lands inside one cost cluster.
constexpr int kWindowDistricts = 10;
constexpr int kWindowMonths = 9;
constexpr double kZipfExponent = 0.3;
constexpr int kBatchWindows = 2;
constexpr int kLayerOps = 160;
// Operations per round, and the seed of the fixed traffic they are drawn
// from (popularity ranks included).
constexpr int kRoundOps = 256;
constexpr uint64_t kTrafficSeed = 0x5e4d;

constexpr vastats::AggregateKind kKinds[kKindsPerWindow] = {
    vastats::AggregateKind::kSum, vastats::AggregateKind::kAverage,
    vastats::AggregateKind::kMax};

enum class OpKind { kSingle, kBatch, kDrift };

struct Op {
  OpKind kind = OpKind::kSingle;
  std::vector<int> queries;  // catalogue indices; a write reads queries[0]
  int station = 0;           // a write's drifting station
};

// Last phase timings seen per query: a served answer whose timings repeat
// them exactly came from the answer cache (wall-clock timings of two real
// extractions never coincide), which tells how many draws an operation
// actually sampled without switching the server's telemetry on.
using TimingKey = std::array<double, 4>;

TimingKey KeyOf(const vastats::AnswerStatistics& stats) {
  return {stats.timings.sampling_seconds, stats.timings.bootstrap_seconds,
          stats.timings.kde_seconds, stats.timings.stability_seconds};
}

class ServedMix final : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    VASTATS_ASSIGN_OR_RETURN(
        vastats::ClimateArchive archive,
        vastats::ClimateArchive::Build(vastats::ClimateArchiveOptions{}));
    district_stations_.assign(
        static_cast<size_t>(archive.options().num_districts), {});
    for (size_t s = 0; s < archive.stations().size(); ++s) {
      district_stations_[static_cast<size_t>(archive.stations()[s].district)]
          .push_back(static_cast<int>(s));
    }
    VASTATS_ASSIGN_OR_RETURN(vastats::SourceSet sources, archive.MakeSourceSet());
    sources_ = std::make_unique<vastats::SourceSet>(std::move(sources));

    // Fixed catalogue: windows at fixed pseudo-random positions.
    catalogue_.clear();
    window_first_district_.clear();
    vastats::Rng shape(0xca7a);
    num_districts_ = archive.options().num_districts;
    for (int w = 0; w < kWindows; ++w) {
      const int first = static_cast<int>(
          shape.UniformInt(0, num_districts_ - kWindowDistricts));
      const int first_month =
          static_cast<int>(shape.UniformInt(1, 13 - kWindowMonths));
      window_first_district_.push_back(first);
      std::vector<vastats::ComponentId> components;
      for (int d = first; d < first + kWindowDistricts; ++d) {
        for (int m = first_month; m < first_month + kWindowMonths; ++m) {
          components.push_back(vastats::ClimateArchive::ComponentFor(
              vastats::ClimateAttribute::kMeanTemperature, d, m));
        }
      }
      for (int k = 0; k < kKindsPerWindow; ++k) {
        serving::QueryRequest request;
        request.query.name =
            std::string("window") + std::to_string(w) + "-" + std::to_string(k);
        request.query.kind = kKinds[k];
        request.query.components = components;
        catalogue_.push_back(std::move(request));
      }
    }

    // Popularity: a fixed permutation of the catalogue, Zipf over ranks.
    vastats::Rng popularity(kTrafficSeed);
    rank_to_query_ = popularity.Permutation(kQueries);
    cdf_.assign(kQueries, 0.0);
    double total = 0.0;
    for (int r = 0; r < kQueries; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[static_cast<size_t>(r)] = total;
    }
    for (double& c : cdf_) c /= total;
    round_.clear();
    for (int j = 0; j < kRoundOps; ++j) round_.push_back(OpAt(j));
    order_ = RoundOrder(seed, kRoundOps);

    pool_ = std::make_unique<vastats::ThreadPool>(vastats::ThreadPoolOptions{2});
    plans_ = std::make_unique<serving::DctPlanCache>();
    serving::ServingOptions options;
    options.base.sampling_threads = 1;
    options.batch_pool = pool_.get();
    options.plan_cache = plans_.get();
    VASTATS_ASSIGN_OR_RETURN(server_, serving::ExtractionServer::Create(
                                          sources_.get(), std::move(options)));
    draws_per_extraction_ = server_->options().base.initial_sample_size;

    references_.assign(kQueries, std::nullopt);
    truths_.assign(kQueries, std::nullopt);
    last_seen_.assign(kQueries, std::nullopt);
    // Warm plans and the caches with one untimed request.
    VASTATS_ASSIGN_OR_RETURN(const vastats::AnswerStatistics warmed,
                             server_->Extract(catalogue_[0]));
    last_seen_[0] = KeyOf(warmed);
    return Status::Ok();
  }

  int RoundSize() const override { return kRoundOps; }

  OpOutcome RunOp(int64_t index, SpanRecorder* spans, CheckLog& log) override {
    const Op& op = round_[static_cast<size_t>(order_.SlotOf(index))];
    if (op.kind == OpKind::kDrift) return RunWrite(op, index, spans, log);
    OpOutcome out;
    std::vector<serving::QueryRequest> requests;
    for (const int q : op.queries) requests.push_back(catalogue_[static_cast<size_t>(q)]);
    std::vector<Result<vastats::AnswerStatistics>> results;
    const Section section;
    if (op.kind == OpKind::kSingle) {
      Span span(spans, "serving.extract", index);
      results.push_back(server_->Extract(requests[0]));
    } else {
      Span span(spans, "serving.batch", index);
      results = server_->ExtractBatch(requests);
    }
    out.seconds = section.WallSeconds();
    out.cpu_seconds = section.CpuSeconds();

    // Draws: one sampling pass per window with at least one recomputed
    // member (a batch group shares its pass; a cache hit draws none).
    std::vector<int> sampled_windows;
    for (size_t i = 0; i < results.size(); ++i) {
      out.latencies.push_back(out.seconds);
      bool hit = false;
      Tally(op.queries[i], results[i], out, log, &hit);
      const int window = op.queries[i] / kKindsPerWindow;
      if (results[i].ok() && !hit &&
          std::find(sampled_windows.begin(), sampled_windows.end(), window) ==
              sampled_windows.end()) {
        sampled_windows.push_back(window);
      }
    }
    out.draws = static_cast<int64_t>(sampled_windows.size()) * draws_per_extraction_;
    return out;
  }

  void MeasureLayers(LayerReport& report, SpanRecorder* spans,
                     CheckLog& log) override {
    std::vector<double> hit_us, miss_ms, member_ms;
    for (int64_t i = 0; i < kLayerOps; ++i) {
      const Op& op = round_[static_cast<size_t>(i % kRoundOps)];
      const uint64_t hits_before = server_->CacheStats().answer_hits;
      const double start = WallNow();
      if (op.kind == OpKind::kDrift) {
        // The write alone; its reads are timed on the timed path.
        Span span(spans, "serving.drift", 9300 + i);
        server_->OnSourceDrift(op.station);
        continue;
      }
      if (op.kind == OpKind::kBatch) {
        std::vector<serving::QueryRequest> requests;
        for (const int q : op.queries) {
          requests.push_back(catalogue_[static_cast<size_t>(q)]);
        }
        Span span(spans, "serving.batch", 9300 + i);
        const auto results = server_->ExtractBatch(requests);
        member_ms.push_back((WallNow() - start) * 1e3 /
                            static_cast<double>(requests.size()));
        for (const auto& r : results) log.Expect(r.ok(), "layers: served batch");
        continue;
      }
      Span span(spans, "serving.extract", 9300 + i);
      const bool ok =
          server_->Extract(catalogue_[static_cast<size_t>(op.queries[0])]).ok();
      const double elapsed = WallNow() - start;
      log.Expect(ok, "layers: served request");
      if (server_->CacheStats().answer_hits > hits_before) {
        hit_us.push_back(elapsed * 1e6);
      } else {
        miss_ms.push_back(elapsed * 1e3);
      }
    }
    const serving::ExtractionCacheStats stats = server_->CacheStats();
    report["serving.hit_us"] = {Median(hit_us), "us"};
    report["serving.miss_ms"] = {Median(miss_ms), "ms"};
    report["serving.batch_member_ms"] = {Median(member_ms), "ms"};
    report["serving.answer_hits"] = {static_cast<double>(stats.answer_hits), "count"};
    report["serving.answer_misses"] = {static_cast<double>(stats.answer_misses),
                                       "count"};
    report["serving.bandwidth_hits"] = {static_cast<double>(stats.bandwidth_hits),
                                        "count"};
    report["serving.answer_invalidations"] = {
        static_cast<double>(stats.answer_invalidations), "count"};
  }

 private:
  int Popular(vastats::Rng& rng) const {
    const double u = rng.Uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const size_t rank = std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return rank_to_query_[rank];
  }

  // Operation `index` of the fixed traffic (independent of earlier ops).
  Op OpAt(int64_t index) const {
    vastats::Rng rng(MixSeed(kTrafficSeed, 0x7aff1c00 + static_cast<uint64_t>(index)));
    Op op;
    if (index % 16 == 15) {
      // Writes follow the reads' popularity: a station holding a component
      // of a popular query drifts.
      op.kind = OpKind::kDrift;
      const int q = Popular(rng);
      op.queries.push_back(q);
      const int first = window_first_district_[static_cast<size_t>(q / kKindsPerWindow)];
      const std::vector<vastats::ComponentId>& components =
          catalogue_[static_cast<size_t>(q)].query.components;
      do {
        const auto& stations = district_stations_[static_cast<size_t>(
            rng.UniformInt(first, first + kWindowDistricts - 1))];
        op.station = stations[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stations.size()) - 1))];
      } while (std::none_of(components.begin(), components.end(),
                            [&](vastats::ComponentId c) {
                              return sources_->sources()[static_cast<size_t>(op.station)].Has(c);
                            }));
    } else if (index % 8 == 7) {
      // A batch refreshes windows drawn uniformly, not by popularity: most
      // of its members are cold, so batches cost about the same every time.
      op.kind = OpKind::kBatch;
      std::vector<int> windows;
      while (static_cast<int>(windows.size()) < kBatchWindows) {
        const int window = static_cast<int>(rng.UniformInt(0, kWindows - 1));
        if (std::find(windows.begin(), windows.end(), window) == windows.end()) {
          windows.push_back(window);
        }
      }
      for (const int window : windows) {
        for (int k = 0; k < kKindsPerWindow; ++k) {
          op.queries.push_back(window * kKindsPerWindow + k);
        }
      }
    } else {
      op.queries.push_back(Popular(rng));
    }
    return op;
  }

  // A write: read a query (now cached), drift a station of its closure,
  // read it again. The reads are the write's answers; the drift call's
  // time counts towards the operation but is no answer's latency.
  OpOutcome RunWrite(const Op& op, int64_t index, SpanRecorder* spans,
                     CheckLog& log) {
    OpOutcome out;
    const int q = op.queries[0];
    const auto timed = [&](auto&& call) {
      const Section section;
      call();
      const double seconds = section.WallSeconds();
      out.seconds += seconds;
      out.cpu_seconds += section.CpuSeconds();
      return seconds;
    };
    const auto read = [&] {
      std::optional<Result<vastats::AnswerStatistics>> result;
      out.latencies.push_back(timed([&] {
        Span span(spans, "serving.extract", index);
        result.emplace(server_->Extract(catalogue_[static_cast<size_t>(q)]));
      }));
      bool hit = false;
      Tally(q, *result, out, log, &hit);
      if (result->ok() && !hit) out.draws += draws_per_extraction_;
    };
    read();
    const serving::ExtractionCacheStats before = server_->CacheStats();
    timed([&] {
      Span span(spans, "serving.drift", index);
      server_->OnSourceDrift(op.station);
    });
    const serving::ExtractionCacheStats after_drift = server_->CacheStats();
    read();
    log.Expect(DriftEvicted(before, after_drift, server_->CacheStats()),
               "served: a drift on a source of a cached query left it cached");
    return out;
  }

  // Books one served answer: failed when the call failed or the answer
  // fails a known-fault check; `hit` tells whether it came from the cache.
  void Tally(int q, const Result<vastats::AnswerStatistics>& result,
             OpOutcome& out, CheckLog& log, bool* hit) {
    if (!result.ok()) {
      ++out.failed;
      return;
    }
    const size_t slot = static_cast<size_t>(q);
    const TimingKey key = KeyOf(*result);
    *hit = last_seen_[slot].has_value() && *last_seen_[slot] == key;
    last_seen_[slot] = key;
    out.cache_hits += *hit ? 1 : 0;
    if (!Check(q, *result, log)) ++out.failed;
  }

  // False when the answer fails a known-fault check.
  bool Check(int q, const vastats::AnswerStatistics& served, CheckLog& log) {
    const size_t slot = static_cast<size_t>(q);
    const serving::QueryRequest& request = catalogue_[slot];
    if (!references_[slot].has_value()) {
      Result<vastats::ExtractorOptions> derived = server_->DerivedOptions(request);
      Result<vastats::AnswerStatisticsExtractor> isolated =
          derived.ok() ? vastats::AnswerStatisticsExtractor::Create(
                             sources_.get(), request.query, *derived)
                       : Result<vastats::AnswerStatisticsExtractor>(derived.status());
      Result<vastats::AnswerStatistics> reference =
          isolated.ok() ? isolated->Extract()
                        : Result<vastats::AnswerStatistics>(isolated.status());
      log.Expect(reference.ok(), "served: isolated reference extraction");
      if (!reference.ok()) return true;
      references_[slot] = std::move(reference).value();
      truths_[slot] = ComputeTruth(*sources_, request.query);
    }
    log.Expect(BitIdentical(served, *references_[slot]),
               "served: answer differs from the isolated extractor");
    AnswerCheckOptions check;
    check.theta = server_->options().base.cio.theta;
    return CheckAnswer(served, *truths_[slot], check, request.query.name, log);
  }

  RoundOrder order_;
  std::vector<Op> round_;
  std::vector<std::vector<int>> district_stations_;
  int num_districts_ = 0;
  std::vector<int> window_first_district_;
  int64_t draws_per_extraction_ = 0;
  std::unique_ptr<vastats::SourceSet> sources_;
  std::vector<serving::QueryRequest> catalogue_;
  std::vector<int> rank_to_query_;
  std::vector<double> cdf_;
  std::unique_ptr<vastats::ThreadPool> pool_;
  std::unique_ptr<serving::DctPlanCache> plans_;
  std::unique_ptr<serving::ExtractionServer> server_;
  std::vector<std::optional<vastats::AnswerStatistics>> references_;
  std::vector<std::optional<QueryTruth>> truths_;
  std::vector<std::optional<TimingKey>> last_seen_;
};

}  // namespace

std::unique_ptr<Workload> MakeServedMix() { return std::make_unique<ServedMix>(); }

}  // namespace perfbench
