// Cardinality-feedback quality and overhead benchmark: median/p95 q-error
// (max(est/actual, actual/est)) across all 22 TPC-H templates for the
// histogram baseline vs the learned backend, cold and warmed, plus the
// number of plans that flip shape once learned estimates kick in, and the
// planning-time cost of consulting the learned cache. Emits
// BENCH_card_qerror.json for the telemetry job.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/check.h"
#include "card/card_cache.h"
#include "card/feedback.h"
#include "card/learned_estimator.h"
#include "catalog/database.h"
#include "exec/driver.h"
#include "optimizer/optimizer.h"
#include "tpch/dbgen.h"
#include "workload/templates.h"

namespace qpp {
namespace {

constexpr uint64_t kWarmSeedBase = 1000;  // cache-warming parameter bindings
constexpr int kWarmRunsPerTemplate = 2;
constexpr uint64_t kEvalSeed = 4242;      // held-out bindings for scoring

struct BackendStats {
  std::vector<double> qerrors;  // one per executed signature-carrying node
  int plan_flips = 0;           // templates whose plan shape changed
};

struct Fixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<card::CardFeedbackLoop> loop;
  HistogramCardinalityEstimator histogram;
  BackendStats hist_stats;
  BackendStats cold_stats;
  BackendStats warm_stats;
};

Result<QueryPlan> CompileTemplate(Database* db, int template_id, uint64_t seed,
                                  const CardinalityEstimator* estimator) {
  Optimizer opt(db);
  opt.set_cardinality_estimator(estimator);
  Rng rng(seed);
  tpch::TemplateContext ctx{&opt, db, &rng};
  return tpch::GenerateTemplateQuery(template_id, &ctx);
}

void CollectQErrors(const PlanNode* root, std::vector<double>* out) {
  std::vector<const PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (const PlanNode* n : nodes) {
    if (n->card_signature == 0 || !n->actual.valid) continue;
    out->push_back(card::QError(n->est.rows, std::max(1.0, n->actual.rows)));
  }
}

/// Compiles and executes one held-out instance per template with the given
/// backend, accumulating per-node q-errors and (against the provided
/// reference shapes) plan flips.
BackendStats EvaluateBackend(Database* db, const CardinalityEstimator* est,
                             const std::vector<std::string>& reference_shapes) {
  BackendStats stats;
  ExecutionOptions opts;
  opts.cold_start = false;
  opts.collect_rows = false;
  const std::vector<int>& templates = tpch::AllTemplates();
  for (size_t i = 0; i < templates.size(); ++i) {
    auto plan = CompileTemplate(db, templates[i], kEvalSeed, est);
    bench::CheckOk(plan.status(), "CompileTemplate");
    bench::CheckOk(ExecutePlan(plan->root.get(), db, opts).status(),
                   "ExecutePlan");
    CollectQErrors(plan->root.get(), &stats.qerrors);
    if (!reference_shapes.empty() &&
        plan->root->StructuralKey() != reference_shapes[i]) {
      ++stats.plan_flips;
    }
  }
  return stats;
}

Fixture& SharedFixture() {
  static Fixture f = [] {
    Fixture fx;
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.003;
    fx.db = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    bench::CheckOk(tables.status(), "dbgen");
    bench::CheckOk(fx.db->AdoptTables(std::move(*tables)), "AdoptTables");
    bench::CheckOk(fx.db->AnalyzeAll(), "AnalyzeAll");

    // Cold learned backend: nothing harvested yet, every lookup falls back
    // to the histogram baseline. Evaluate before warming.
    fx.loop = std::make_unique<card::CardFeedbackLoop>();
    card::LearnedCardinalityEstimator learned(fx.loop.get());
    fx.hist_stats = EvaluateBackend(fx.db.get(), &fx.histogram, {});
    fx.cold_stats = EvaluateBackend(fx.db.get(), &learned, {});

    // Warm the cache: run every template under warming bindings with the
    // histogram backend (signatures stamped) and harvest the actuals.
    ExecutionOptions opts;
    opts.cold_start = false;
    opts.collect_rows = false;
    for (int tid : tpch::AllTemplates()) {
      for (int r = 0; r < kWarmRunsPerTemplate; ++r) {
        auto plan = CompileTemplate(fx.db.get(), tid,
                                    kWarmSeedBase + static_cast<uint64_t>(r),
                                    &fx.histogram);
        bench::CheckOk(plan.status(), "warm CompileTemplate");
        bench::CheckOk(ExecutePlan(plan->root.get(), fx.db.get(), opts).status(),
                       "warm ExecutePlan");
        bench::CheckOk(fx.loop->HarvestPlan(*plan->root), "HarvestPlan");
      }
    }
    fx.loop->PublishSnapshot();

    // Reference shapes for flip counting come from the histogram backend at
    // the evaluation bindings.
    std::vector<std::string> shapes;
    for (int tid : tpch::AllTemplates()) {
      auto plan = CompileTemplate(fx.db.get(), tid, kEvalSeed, &fx.histogram);
      bench::CheckOk(plan.status(), "shape CompileTemplate");
      shapes.push_back(plan->root->StructuralKey());
    }
    fx.warm_stats = EvaluateBackend(fx.db.get(), &learned, shapes);
    return fx;
  }();
  return f;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

void ReportStats(benchmark::State& state, const BackendStats& stats) {
  state.counters["median_qerror"] = Quantile(stats.qerrors, 0.5);
  state.counters["p95_qerror"] = Quantile(stats.qerrors, 0.95);
  state.counters["nodes_scored"] = static_cast<double>(stats.qerrors.size());
  state.counters["plan_flips"] = static_cast<double>(stats.plan_flips);
}

// The q-error benchmarks time one pass over the collected samples (cheap);
// the payload is the counters riding into BENCH_card_qerror.json.

void BM_QErrorHistogram(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.hist_stats.qerrors, 0.5));
  }
  ReportStats(state, f.hist_stats);
}
BENCHMARK(BM_QErrorHistogram);

void BM_QErrorLearnedCold(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.cold_stats.qerrors, 0.5));
  }
  ReportStats(state, f.cold_stats);
}
BENCHMARK(BM_QErrorLearnedCold);

void BM_QErrorLearnedWarm(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.warm_stats.qerrors, 0.5));
  }
  ReportStats(state, f.warm_stats);
}
BENCHMARK(BM_QErrorLearnedWarm);

// Planning time with no estimator attached, with the histogram backend
// (signature stamping plus one consult per split that always falls back),
// and with the warmed learned snapshot. The wall-time deltas between the
// three are the planning cost of the learned backend. state.range(0) is a
// template (5, and 8 for the widest join block, eight relations) planned at
// one binding, or kMixArg: the 14 operator-level templates at two bindings
// each, the mix e2ebench learn_mixed replans.

constexpr int kMixArg = 0;

void PlanOnce(Database* db, int arg, const CardinalityEstimator* estimator) {
  if (arg != kMixArg) {
    auto plan = CompileTemplate(db, arg, 7, estimator);
    benchmark::DoNotOptimize(plan);
    return;
  }
  for (int tid : tpch::OperatorLevelTemplates()) {
    for (uint64_t seed : {7, 8}) {
      auto plan = CompileTemplate(db, tid, seed, estimator);
      benchmark::DoNotOptimize(plan);
    }
  }
}

void BM_PlanBaseline(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    PlanOnce(f.db.get(), static_cast<int>(state.range(0)), nullptr);
  }
}
BENCHMARK(BM_PlanBaseline)
    ->Arg(5)
    ->Arg(8)
    ->Arg(kMixArg)
    ->Unit(benchmark::kMillisecond);

void BM_PlanHistogram(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    PlanOnce(f.db.get(), static_cast<int>(state.range(0)), &f.histogram);
  }
}
BENCHMARK(BM_PlanHistogram)
    ->Arg(5)
    ->Arg(8)
    ->Arg(kMixArg)
    ->Unit(benchmark::kMillisecond);

void BM_PlanLearnedWarm(benchmark::State& state) {
  Fixture& f = SharedFixture();
  card::LearnedCardinalityEstimator learned(f.loop.get());
  for (auto _ : state) {
    PlanOnce(f.db.get(), static_cast<int>(state.range(0)), &learned);
  }
}
BENCHMARK(BM_PlanLearnedWarm)
    ->Arg(5)
    ->Arg(8)
    ->Arg(kMixArg)
    ->Unit(benchmark::kMillisecond);

void BM_CacheLookup(benchmark::State& state) {
  Fixture& f = SharedFixture();
  card::LearnedCardinalityEstimator learned(f.loop.get());
  // A query that hits the warmed cache (lineitem scan class features).
  auto plan = CompileTemplate(f.db.get(), 6, kEvalSeed, &f.histogram);
  bench::CheckOk(plan.status(), "CompileTemplate");
  std::vector<const PlanNode*> nodes;
  CollectNodes(plan->root.get(), &nodes);
  const PlanNode* sig_node = nullptr;
  for (const PlanNode* n : nodes) {
    if (n->card_signature != 0) { sig_node = n; break; }
  }
  if (sig_node == nullptr) {
    std::fprintf(stderr, "no signature-carrying node in template 6\n");
    std::exit(1);
  }
  CardinalityQuery q;
  q.signature = sig_node->card_signature;
  q.class_hash = sig_node->card_class;
  q.features = sig_node->card_features;
  q.histogram_rows = sig_node->est.rows;
  for (auto _ : state) {
    benchmark::DoNotOptimize(learned.EstimateRows(q));
  }
}
BENCHMARK(BM_CacheLookup);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("card_qerror")
