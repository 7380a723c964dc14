// Microbenchmarks for the network serving subsystem: end-to-end prediction
// throughput through PredictionServer over real loopback TCP, at 1 and 4
// client connections, with adaptive micro-batching on and off. Each
// configuration reports throughput (qps) and client-observed latency
// quantiles (p50/p95/p99 us) as user counters, which bench_json forwards
// into BENCH_net_serving.json for cross-PR telemetry.
//
// The server predicts every batch on its reactor thread, so each scenario
// is bounded by one core's decode + predict + encode rate: prediction no
// longer overlaps decoding on other cores, which caps the batched-client
// scenarios (BM_NetServingBatchedClient) below what a pool hop reached.
// On a single-core container the absolute numbers mostly measure scheduler
// churn; the interesting signal is the batching-on/off delta (dispatch
// amortization) and that the 4-connection configs don't collapse.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "bench/check.h"
#include "net/client.h"
#include "net/server.h"
#include "qpp/predictor.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workload/synthetic.h"

namespace qpp {
namespace {

/// Requests pushed through the server per benchmark iteration (split across
/// the configured connections).
constexpr int kRequestsPerIteration = 240;

PredictorConfig ServeConfig() {
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kOperatorLevel;
  cfg.hybrid.max_iterations = 3;
  cfg.hybrid.min_occurrences = 6;
  return cfg;
}

struct Fixture {
  QueryLog log;
  serve::ModelRegistry registry;
  std::unique_ptr<serve::PredictionService> service;
};

Fixture& SharedFixture() {
  // Leaked intentionally: ModelRegistry is neither movable nor copyable.
  static Fixture* f = [] {
    // qpp-lint: allow(naked-new): shared benchmark fixture, leaked on purpose
    auto* fx = new Fixture;
    fx->log = SyntheticServingLog(120);
    auto p = std::make_unique<QueryPerformancePredictor>(ServeConfig());
    bench::CheckOk(p->Train(fx->log), "Train");
    fx->registry.Publish(std::move(p), "bench-initial");
    fx->service = std::make_unique<serve::PredictionService>(&fx->registry);
    return fx;
  }();
  return *f;
}

// One full load-generator run per iteration: `conns` pipelined connections
// pushing kRequestsPerIteration requests total through the reactor.
void BM_NetServing(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const bool batching = state.range(1) != 0;
  Fixture& f = SharedFixture();

  net::ServerConfig config;
  // Batching off = dispatch every request as its own batch the moment it is
  // read; on = amortize dispatch across up to 16 requests or 200 us.
  config.max_batch = batching ? 16 : 1;
  config.max_delay_us = batching ? 200 : 0;
  net::PredictionServer server(f.service.get(), config);
  bench::CheckOk(server.Start(), "PredictionServer::Start");

  net::LoadGenOptions options;
  options.connections = conns;
  options.requests_per_connection = kRequestsPerIteration / conns;
  options.window = 16;

  uint64_t total_ok = 0;
  net::LoadGenReport last;
  for (auto _ : state) {
    auto report =
        net::RunLoadGenerator("127.0.0.1", server.port(), f.log, options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      break;
    }
    total_ok += report->ok;
    last = *report;
  }
  server.Shutdown();

  state.SetItemsProcessed(static_cast<int64_t>(total_ok));
  state.counters["qps"] = last.qps;
  state.counters["p50_us"] = last.p50_us;
  state.counters["p95_us"] = last.p95_us;
  state.counters["p99_us"] = last.p99_us;
}
BENCHMARK(BM_NetServing)
    ->ArgNames({"conns", "batch"})
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The batched fast path: clients send `cbatch` requests at a time through
// SendBatch (binary-encoded records, pipelined frames in one scatter-gather
// write), and the server flushes each dispatched micro-batch's replies
// together. Same request count and counter keys as BM_NetServing, so the
// qps numbers are directly comparable across the scenarios.
void BM_NetServingBatchedClient(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  const int cbatch = static_cast<int>(state.range(1));
  Fixture& f = SharedFixture();

  net::ServerConfig config;
  // Dispatch fires the moment one full client batch lands instead of
  // stalling on the delay timer waiting for a larger batch.
  config.max_batch = static_cast<size_t>(cbatch);
  config.max_delay_us = 200;
  net::PredictionServer server(f.service.get(), config);
  bench::CheckOk(server.Start(), "PredictionServer::Start");

  net::LoadGenOptions options;
  options.connections = conns;
  options.requests_per_connection = kRequestsPerIteration / conns;
  // Two batches in flight per connection, so the next batch is already
  // queued while the server computes the previous one (no stop-and-wait).
  options.window = cbatch * 2;
  options.batch = cbatch;

  uint64_t total_ok = 0;
  net::LoadGenReport last;
  for (auto _ : state) {
    auto report =
        net::RunLoadGenerator("127.0.0.1", server.port(), f.log, options);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      break;
    }
    total_ok += report->ok;
    last = *report;
  }
  server.Shutdown();

  state.SetItemsProcessed(static_cast<int64_t>(total_ok));
  state.counters["qps"] = last.qps;
  state.counters["p50_us"] = last.p50_us;
  state.counters["p95_us"] = last.p95_us;
  state.counters["p99_us"] = last.p99_us;
}
BENCHMARK(BM_NetServingBatchedClient)
    ->ArgNames({"conns", "cbatch"})
    ->ArgsProduct({{1, 4}, {16, 64}})
    ->Unit(benchmark::kMillisecond);

// Frame codec in isolation: encode+decode cost per request record, the
// per-message CPU tax the wire protocol adds on top of prediction itself.
void BM_FrameRoundTrip(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const QueryRecord& record = f.log.queries.front();
  uint64_t id = 0;
  for (auto _ : state) {
    net::Frame frame;
    frame.type = net::FrameType::kRequest;
    frame.request_id = ++id;
    frame.payload = net::EncodeRequestPayload(0, record);
    const std::string wire = net::EncodeFrame(frame);
    net::FrameDecoder decoder;
    bench::CheckOk(decoder.Feed(wire.data(), wire.size()), "Feed");
    auto decoded = decoder.Next();
    if (!decoded.has_value()) {
      state.SkipWithError("frame did not decode");
      break;
    }
    auto req = net::DecodeRequestPayload(decoded->payload);
    if (!req.ok()) {
      state.SkipWithError(req.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(req->record.ops.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRoundTrip);

// Same round trip through the binary record codec + zero-copy decode
// (NextView): the per-message tax of the batched fast path.
void BM_FrameRoundTripBinary(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const QueryRecord& record = f.log.queries.front();
  uint64_t id = 0;
  for (auto _ : state) {
    net::Frame frame;
    frame.type = net::FrameType::kRequest;
    frame.request_id = ++id;
    frame.payload = net::EncodeRequestPayloadBinary(0, record);
    const std::string wire = net::EncodeFrame(frame);
    net::FrameDecoder decoder;
    bench::CheckOk(decoder.Feed(wire.data(), wire.size()), "Feed");
    auto decoded = decoder.NextView();
    if (!decoded.has_value()) {
      state.SkipWithError("frame did not decode");
      break;
    }
    auto req = net::DecodeRequestPayload(decoded->payload);
    if (!req.ok()) {
      state.SkipWithError(req.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(req->record.ops.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRoundTripBinary);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("net_serving");
