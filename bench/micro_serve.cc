// Microbenchmarks for the serving subsystem: sustained prediction
// throughput through PredictionService at 1 and N threads (registry
// snapshot + predict + stats accounting per request), and the cost of a
// full retrain-and-publish cycle — the work the feedback loop pays off
// the request path when drift triggers a model refresh.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_json.h"
#include "bench/check.h"
#include "qpp/predictor.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "workload/synthetic.h"

namespace qpp {
namespace {

// Shared deterministic serving workload — the same generator serve_test,
// net_test and micro_net use (src/workload/synthetic.h).
QueryLog SyntheticLog(int n) { return SyntheticServingLog(n); }

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
    fx->log = SyntheticLog(120);
    auto p = std::make_unique<QueryPerformancePredictor>(ServeConfig());
    bench::CheckOk(p->Train(fx->log), "Train");
    fx->registry.Publish(std::move(p), "bench-initial");
    fx->service = std::make_unique<serve::PredictionService>(&fx->registry);
    return fx;
  }();
  return *f;
}

// Predictions/sec through the full service path (snapshot acquire, predict,
// latency accounting). ->Threads(N) runs N concurrent callers against one
// service; items_per_second in the output is aggregate throughput.
void BM_ServicePredict(benchmark::State& state) {
  Fixture& f = SharedFixture();
  size_t i = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    const QueryRecord& q = f.log.queries[i++ % f.log.queries.size()];
    benchmark::DoNotOptimize(f.service->Predict(q));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServicePredict)->Threads(1)->Threads(4);

// Raw registry snapshot acquisition — the constant overhead snapshot
// publication (common/published.h) adds to every request relative to
// calling the predictor directly.
void BM_RegistrySnapshot(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.registry.Current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrySnapshot)->Threads(1)->Threads(4);

// Full retrain-and-publish cycle: train a fresh predictor on the feedback
// corpus and hot-swap it into the registry. This is the latency between
// "drift detected" and "new model serving" (paid on a pool thread, never
// on the request path).
void BM_RetrainAndPublish(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    auto p = std::make_unique<QueryPerformancePredictor>(ServeConfig());
    benchmark::DoNotOptimize(p->Train(f.log));
    f.registry.Publish(std::move(p), "bench-retrain");
  }
}
BENCHMARK(BM_RetrainAndPublish)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("serve_throughput");
