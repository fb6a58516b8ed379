// chaos_transport: fault-injected extraction through the async transport
// over AF_UNIX socket pairs — 2 service threads, pipelined max_in_flight 8,
// transient failures, rare corrupt values and a scheduled partial outage,
// latency charged in virtual time, no wall-realized latency, hedging off.
// A round is kRoundAnswers fixed extraction seeds in an order the run seed
// shuffles. Every answer is compared bit for bit with the simulated seam.
// Home of the transport, degraded-draw and access-seam per-layer metrics.

#include <utility>

#include "checks.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vastats::Result;
using vastats::Status;
namespace transport = vastats::transport;

constexpr int kSources = 40;
constexpr int kComponents = 120;
constexpr int kDraws = 400;
constexpr double kMinCoverage = 0.5;
constexpr int kLayerReps = 3;
// Extraction seeds in a round, MixSeed(kPoolSeed, slot).
constexpr int kRoundAnswers = 8;
constexpr uint64_t kPoolSeed = 0xc4a0;

vastats::FaultModelOptions ModelOptions() {
  vastats::FaultModelOptions options;
  options.transient_failure_prob = 0.05;
  options.failure_spread_sigma = 0.5;
  options.corrupt_value_prob = 0.001;
  options.latency_base_ms = 1.0;
  options.latency_per_component_ms = 0.05;
  options.latency_jitter_sigma = 0.3;
  // A tenth of the sources go dark half-way through every extraction.
  options.outage_fraction = 0.1;
  options.outage_epoch = kDraws / 2;
  options.seed = 0xc4a05;
  return options;
}

transport::TransportOptions TransportConfig() {
  transport::TransportOptions options;
  options.endpoint.backend = transport::EndpointBackend::kSocketPair;
  options.endpoint.service_threads = 2;
  options.endpoint.wall_ms_per_virtual_ms = 0.0;
  options.max_in_flight = 8;
  options.latency_mode = transport::LatencyChargeMode::kModelVirtual;
  options.hedge.enabled = false;
  return options;
}

class ChaosTransport final : public Workload {
 public:
  ~ChaosTransport() override {
    // The transport's endpoint threads must stop before the model goes.
    transport_.reset();
  }

  Status Setup(uint64_t seed) override {
    seed_ = seed;
    const auto mixture = vastats::MakeD2(5151);
    vastats::SyntheticSourceSetOptions build;
    build.num_sources = kSources;
    build.num_components = kComponents;
    build.min_copies = 2;
    build.max_copies = 6;
    build.seed = 5152;
    VASTATS_ASSIGN_OR_RETURN(vastats::SourceSet sources,
                             vastats::BuildSyntheticSourceSet(*mixture, build));
    sources_ = std::make_unique<vastats::SourceSet>(std::move(sources));
    query_ = vastats::MakeRangeQuery("chaos-sum", vastats::AggregateKind::kSum,
                                     0, kComponents);
    truth_ = ComputeTruth(*sources_, query_);
    VASTATS_ASSIGN_OR_RETURN(vastats::FaultModel model,
                             vastats::FaultModel::Create(kSources, ModelOptions()));
    model_ = std::make_unique<vastats::FaultModel>(std::move(model));
    VASTATS_ASSIGN_OR_RETURN(
        transport_, transport::AsyncSourceTransport::Create(*sources_, model_.get(),
                                                            TransportConfig()));

    vastats::FaultToleranceOptions fault;
    fault.model = model_.get();
    fault.min_draw_coverage = kMinCoverage;
    simulated_ = vastats::ExtractorOptions{};
    simulated_.initial_sample_size = kDraws;
    simulated_.sampling_threads = 1;
    simulated_.fault_tolerance = fault;
    transported_ = simulated_;
    order_ = RoundOrder(seed, kRoundAnswers);
    transported_.fault_tolerance->transport = transport_.get();

    VASTATS_ASSIGN_OR_RETURN(
        const vastats::AnswerStatisticsExtractor warm,
        MakeExtractor(sources_.get(), query_, transported_, kWarmSeed));
    VASTATS_ASSIGN_OR_RETURN(const vastats::AnswerStatistics warmed, warm.Extract());
    (void)warmed;
    return Status::Ok();
  }

  int RoundSize() const override { return kRoundAnswers; }

  OpOutcome RunOp(int64_t index, SpanRecorder* spans, CheckLog& log) override {
    OpOutcome out;
    const uint64_t seed =
        MixSeed(kPoolSeed, static_cast<uint64_t>(order_.SlotOf(index)));
    Result<vastats::AnswerStatisticsExtractor> extractor =
        MakeExtractor(sources_.get(), query_, transported_, seed);
    if (!extractor.ok()) {
      out.failed = 1;
      out.latencies.push_back(0.0);
      return out;
    }
    const Section section;
    Result<vastats::AnswerStatistics> stats = [&] {
      Span span(spans, "core.extract", index);
      return extractor->Extract();
    }();
    out.seconds = section.WallSeconds();
    out.cpu_seconds = section.CpuSeconds();
    out.latencies.push_back(out.seconds);
    out.draws = kDraws;
    if (!stats.ok()) {
      out.failed = 1;
      return out;
    }
    Result<vastats::AnswerStatisticsExtractor> reference_extractor =
        MakeExtractor(sources_.get(), query_, simulated_, seed);
    Result<vastats::AnswerStatistics> reference =
        reference_extractor.ok() ? reference_extractor->Extract()
                                 : Result<vastats::AnswerStatistics>(
                                       reference_extractor.status());
    log.Expect(reference.ok() && BitIdentical(*stats, *reference),
               "chaos: transported answer differs from the simulated seam");
    AnswerCheckOptions check;
    check.theta = simulated_.cio.theta;
    check.full_coverage = stats->degradation.min_coverage == 1.0;
    if (!CheckAnswer(*stats, truth_, check, query_.name, log)) out.failed = 1;
    return out;
  }

  void MeasureLayers(LayerReport& report, SpanRecorder* spans,
                     CheckLog& log) override;

 private:
  uint64_t seed_ = 0;
  RoundOrder order_;
  std::unique_ptr<vastats::SourceSet> sources_;
  vastats::AggregateQuery query_;
  QueryTruth truth_;
  std::unique_ptr<vastats::FaultModel> model_;
  std::unique_ptr<transport::AsyncSourceTransport> transport_;
  vastats::ExtractorOptions simulated_;
  vastats::ExtractorOptions transported_;
};

bool SameSampling(const vastats::FaultAwareSampleResult& a,
                  const vastats::FaultAwareSampleResult& b) {
  return a.values == b.values && a.coverages == b.coverages &&
         a.dropped_draws == b.dropped_draws && a.access.visits == b.access.visits &&
         a.access.attempts == b.access.attempts &&
         a.access.failed_visits == b.access.failed_visits &&
         a.access.virtual_ms == b.access.virtual_ms;
}

void ChaosTransport::MeasureLayers(LayerReport& report, SpanRecorder* spans,
                                   CheckLog& log) {
  Result<vastats::UniSSampler> sampler =
      vastats::UniSSampler::Create(sources_.get(), query_);
  Result<vastats::SourceAccessor> accessor = vastats::SourceAccessor::Create(
      kSources, model_.get(), vastats::RetryPolicy{}, vastats::CircuitBreakerOptions{});
  log.Expect(sampler.ok() && accessor.ok(), "layers: chaos sampler");
  if (!sampler.ok() || !accessor.ok()) return;

  std::vector<double> degraded_us, visit_us;
  uint64_t visits = 0, attempts = 0, dropped = 0;
  const transport::TransportCounters before = transport_->counters();
  for (int r = 0; r < kLayerReps; ++r) {
    vastats::ParallelSampleOptions options;
    options.num_threads = 1;
    options.seed = MixSeed(seed_, 9200 + static_cast<uint64_t>(r));
    Result<vastats::FaultAwareSampleResult> simulated = [&] {
      Span span(spans, "sampling.degraded", 9200 + r);
      const double start = WallNow();
      Result<vastats::FaultAwareSampleResult> result =
          vastats::ParallelUniSSampleWithFaults(*sampler, kDraws, *accessor,
                                                kMinCoverage, options);
      degraded_us.push_back((WallNow() - start) / kDraws * 1e6);
      return result;
    }();

    transport::AsyncSourceTransport* async = transport_.get();
    options.transport_factory = [async]() -> std::unique_ptr<vastats::VisitTransport> {
      auto channel = async->OpenChannel();
      return channel.ok() ? std::move(channel).value() : nullptr;
    };
    Result<vastats::FaultAwareSampleResult> transported = [&] {
      Span span(spans, "transport.sample", 9200 + r);
      const double start = WallNow();
      Result<vastats::FaultAwareSampleResult> result =
          vastats::ParallelUniSSampleWithFaults(*sampler, kDraws, *accessor,
                                                kMinCoverage, options);
      const double elapsed = WallNow() - start;
      if (result.ok() && result->access.visits > 0) {
        visit_us.push_back(elapsed / static_cast<double>(result->access.visits) * 1e6);
      }
      return result;
    }();
    log.Expect(simulated.ok() && transported.ok() &&
                   SameSampling(*simulated, *transported),
               "layers: transported draws equal the simulated seam");
    if (!simulated.ok()) return;
    visits += simulated->access.visits;
    attempts += simulated->access.attempts;
    dropped += static_cast<uint64_t>(simulated->dropped_draws);
  }
  const transport::TransportCounters after = transport_->counters();
  const double requests = static_cast<double>(after.requests - before.requests);
  const double issued =
      static_cast<double>(after.prefetches_issued - before.prefetches_issued);
  const double wasted =
      static_cast<double>(after.prefetches_wasted - before.prefetches_wasted);

  // Wire codec: encode + decode of one request frame and one response frame
  // carrying a typical source payload.
  std::vector<vastats::TransportBinding> bindings;
  for (const auto& [component, value] : sources_->source(0).SortedBindings()) {
    bindings.push_back({component, value});
  }
  const std::string payload = transport::EncodeBindings(bindings);
  std::vector<double> codec_ns;
  std::string buffer;
  constexpr int kFrames = 200000;
  for (int batch = 0; batch < 5; ++batch) {
    const double start = WallNow();
    bool ok = true;
    for (int i = 0; i < kFrames; ++i) {
      transport::WireRequest request;
      request.id = static_cast<uint64_t>(i);
      request.channel = 1;
      request.source = i % kSources;
      request.epoch = i;
      request.num_components = kComponents;
      buffer.clear();
      transport::AppendRequestFrame(request, &buffer);
      transport::WireRequest decoded;
      ok = ok && transport::DecodeRequestFrame(buffer, &decoded).ok() &&
           decoded.id == request.id;
      buffer.clear();
      transport::AppendResponseFrame(request.id, false, 1.5, payload, &buffer);
      transport::WireResponse response;
      ok = ok && transport::DecodeResponseFrame(buffer, &response).ok() &&
           response.payload.size() == bindings.size();
    }
    codec_ns.push_back((WallNow() - start) / (2.0 * kFrames) * 1e9);
    log.Expect(ok, "layers: wire codec round trip");
  }

  const double draws = static_cast<double>(kLayerReps * kDraws);
  report["sampling.degraded_draw_us"] = {Median(degraded_us), "us"};
  report["datagen.attempts_per_visit"] = {
      visits > 0 ? static_cast<double>(attempts) / static_cast<double>(visits) : 0.0,
      "count"};
  report["datagen.draws_dropped"] = {static_cast<double>(dropped), "count"};
  report["transport.codec_ns_per_frame"] = {Median(codec_ns), "ns"};
  report["transport.visit_us"] = {Median(visit_us), "us"};
  report["transport.requests_per_draw"] = {requests / draws, "count"};
  report["transport.prefetch_use_ratio"] = {issued > 0 ? 1.0 - wasted / issued : 0.0,
                                            "ratio"};
  report["transport.peak_in_flight"] = {static_cast<double>(after.peak_in_flight),
                                        "count"};
}

}  // namespace

std::unique_ptr<Workload> MakeChaosTransport() {
  return std::make_unique<ChaosTransport>();
}

}  // namespace perfbench
