// KDE selectivity-backend accuracy benchmark: median/p95 q-error across the
// 22 TPC-H templates and a correlated-predicate synthetic workload for four
// backends — the histogram baseline, the learned cardinality cache (warmed),
// and the KDE backend cold (Scott's-rule bandwidths) and feedback-warmed —
// plus the per-estimate cost of consulting a KDE snapshot. Emits
// BENCH_kde_accuracy.json for the telemetry job; the correlated-workload
// hist/kde_warm p95 ratio is the acceptance gate enforced by
// scripts/check_baselines.py.

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
#include "kde/estimator.h"
#include "kde/feedback.h"
#include "optimizer/optimizer.h"
#include "tpch/dbgen.h"
#include "workload/templates.h"

namespace qpp {
namespace {

constexpr uint64_t kWarmSeedBase = 1000;  // warming parameter bindings
constexpr int kWarmRunsPerTemplate = 2;
constexpr uint64_t kEvalSeed = 4242;      // held-out bindings for scoring

// The correlated pair the independence assumption gets badly wrong: y tracks
// x within ±10, so P(x ∈ B, y ∈ B) ≈ P(x ∈ B) for any wide band B while
// per-column histograms estimate P(x ∈ B) · P(y ∈ B).
constexpr int kSensorRows = 4000;
constexpr int kWarmBands = 16;
constexpr int kEvalBands = 12;
constexpr int64_t kBandWidth = 100;

std::unique_ptr<Table> MakeSensorTable() {
  Schema schema;
  schema.AddColumn("x", TypeId::kInt64);
  schema.AddColumn("y", TypeId::kInt64);
  auto table = std::make_unique<Table>(99, "sensor", std::move(schema));
  for (int i = 0; i < kSensorRows; ++i) {
    const int64_t x = (static_cast<int64_t>(i) * 37) % 1000;
    const int64_t y = x + (static_cast<int64_t>(i) * 17) % 21 - 10;
    bench::CheckOk(table->AppendRow({Value::Int64(x), Value::Int64(y)}),
                   "AppendRow");
  }
  return table;
}

int64_t WarmBandLo(int i) { return (40 * static_cast<int64_t>(i)) % 900; }
int64_t EvalBandLo(int i) { return (70 * static_cast<int64_t>(i) + 20) % 880; }

struct BackendStats {
  std::vector<double> template_qerrors;
  std::vector<double> correlated_qerrors;
};

Result<QueryPlan> CompileTemplate(Database* db, int template_id, uint64_t seed,
                                  const CardinalityEstimator* estimator) {
  Optimizer opt(db);
  opt.set_cardinality_estimator(estimator);
  Rng rng(seed);
  tpch::TemplateContext ctx{&opt, db, &rng};
  return tpch::GenerateTemplateQuery(template_id, &ctx);
}

std::unique_ptr<PlanNode> CompileBandScan(Database* db, int64_t lo,
                                          const CardinalityEstimator* est) {
  Optimizer opt(db);
  opt.set_cardinality_estimator(est);
  std::vector<ExprPtr> conj;
  conj.push_back(Ge(Col("x"), LitInt(lo)));
  conj.push_back(Le(Col("x"), LitInt(lo + kBandWidth)));
  conj.push_back(Ge(Col("y"), LitInt(lo)));
  conj.push_back(Le(Col("y"), LitInt(lo + kBandWidth)));
  auto scan = opt.MakeScan("sensor", "", And(std::move(conj)));
  bench::CheckOk(scan.status(), "MakeScan sensor");
  return std::move(*scan);
}

void CollectQErrors(const PlanNode* root, std::vector<double>* out) {
  std::vector<const PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (const PlanNode* n : nodes) {
    if (n->card_signature == 0 || !n->actual.valid) continue;
    out->push_back(card::QError(n->est.rows, std::max(1.0, n->actual.rows)));
  }
}

/// One held-out instance per template plus the correlated eval bands,
/// scored against observed actuals.
BackendStats EvaluateBackend(Database* db, const CardinalityEstimator* est) {
  BackendStats stats;
  ExecutionOptions opts;
  opts.cold_start = false;
  opts.collect_rows = false;
  for (int tid : tpch::AllTemplates()) {
    auto plan = CompileTemplate(db, tid, kEvalSeed, est);
    bench::CheckOk(plan.status(), "CompileTemplate");
    bench::CheckOk(ExecutePlan(plan->root.get(), db, opts).status(),
                   "ExecutePlan");
    CollectQErrors(plan->root.get(), &stats.template_qerrors);
  }
  for (int i = 0; i < kEvalBands; ++i) {
    auto scan = CompileBandScan(db, EvalBandLo(i), est);
    bench::CheckOk(ExecutePlan(scan.get(), db, opts).status(),
                   "ExecutePlan band");
    stats.correlated_qerrors.push_back(
        card::QError(scan->est.rows, std::max(1.0, scan->actual.rows)));
  }
  return stats;
}

struct Fixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<card::CardFeedbackLoop> card_loop;
  std::unique_ptr<kde::KdeFeedbackLoop> kde_loop;
  HistogramCardinalityEstimator histogram;
  BackendStats hist_stats;
  BackendStats card_stats;      // learned cache, warmed
  BackendStats kde_cold_stats;  // Scott's-rule bandwidths, no feedback
  BackendStats kde_warm_stats;  // after the warming workload's feedback
};

Fixture& SharedFixture() {
  static Fixture f = [] {
    Fixture fx;
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.003;
    fx.db = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    bench::CheckOk(tables.status(), "dbgen");
    bench::CheckOk(fx.db->AdoptTables(std::move(*tables)), "AdoptTables");
    bench::CheckOk(fx.db->AddTable(MakeSensorTable()), "AddTable sensor");
    bench::CheckOk(fx.db->AnalyzeAll(), "AnalyzeAll");

    fx.hist_stats = EvaluateBackend(fx.db.get(), &fx.histogram);

    // KDE cold: samples drawn, Scott's-rule bandwidths, nothing harvested.
    fx.kde_loop = std::make_unique<kde::KdeFeedbackLoop>();
    bench::CheckOk(fx.kde_loop->BuildFromDatabase(*fx.db),
                   "BuildFromDatabase");
    kde::KdeCardinalityEstimator kde_est(fx.kde_loop.get());
    fx.kde_cold_stats = EvaluateBackend(fx.db.get(), &kde_est);

    // Warming workload: every template twice plus the warm bands, executed
    // with the histogram backend (signatures + bounds stamped) and
    // harvested into both feedback loops.
    fx.card_loop = std::make_unique<card::CardFeedbackLoop>();
    ExecutionOptions opts;
    opts.cold_start = false;
    opts.collect_rows = false;
    for (int tid : tpch::AllTemplates()) {
      for (int r = 0; r < kWarmRunsPerTemplate; ++r) {
        auto plan = CompileTemplate(fx.db.get(), tid,
                                    kWarmSeedBase + static_cast<uint64_t>(r),
                                    &fx.histogram);
        bench::CheckOk(plan.status(), "warm CompileTemplate");
        bench::CheckOk(
            ExecutePlan(plan->root.get(), fx.db.get(), opts).status(),
            "warm ExecutePlan");
        bench::CheckOk(fx.card_loop->HarvestPlan(*plan->root), "HarvestPlan");
        bench::CheckOk(fx.kde_loop->HarvestPlan(*plan->root),
                       "kde HarvestPlan");
      }
    }
    for (int i = 0; i < kWarmBands; ++i) {
      auto scan = CompileBandScan(fx.db.get(), WarmBandLo(i), &fx.histogram);
      bench::CheckOk(ExecutePlan(scan.get(), fx.db.get(), opts).status(),
                     "warm ExecutePlan band");
      bench::CheckOk(fx.card_loop->HarvestPlan(*scan), "HarvestPlan band");
      bench::CheckOk(fx.kde_loop->HarvestPlan(*scan), "kde HarvestPlan band");
    }
    fx.card_loop->PublishSnapshot();
    fx.kde_loop->PublishSnapshot();

    card::LearnedCardinalityEstimator card_est(fx.card_loop.get());
    fx.card_stats = EvaluateBackend(fx.db.get(), &card_est);
    fx.kde_warm_stats = EvaluateBackend(fx.db.get(), &kde_est);
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

void ReportTemplateStats(benchmark::State& state, const BackendStats& stats) {
  state.counters["median_qerror"] = Quantile(stats.template_qerrors, 0.5);
  state.counters["p95_qerror"] = Quantile(stats.template_qerrors, 0.95);
  state.counters["nodes_scored"] =
      static_cast<double>(stats.template_qerrors.size());
}

void ReportCorrelatedStats(benchmark::State& state,
                           const BackendStats& stats) {
  state.counters["median_qerror"] = Quantile(stats.correlated_qerrors, 0.5);
  state.counters["p95_qerror"] = Quantile(stats.correlated_qerrors, 0.95);
  state.counters["queries_scored"] =
      static_cast<double>(stats.correlated_qerrors.size());
}

// The q-error benchmarks time one pass over the collected samples (cheap);
// the payload is the counters riding into BENCH_kde_accuracy.json.

void BM_TemplatesHistogram(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.hist_stats.template_qerrors, 0.5));
  }
  ReportTemplateStats(state, f.hist_stats);
}
BENCHMARK(BM_TemplatesHistogram);

void BM_TemplatesLearnedCache(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.card_stats.template_qerrors, 0.5));
  }
  ReportTemplateStats(state, f.card_stats);
}
BENCHMARK(BM_TemplatesLearnedCache);

void BM_TemplatesKdeCold(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.kde_cold_stats.template_qerrors, 0.5));
  }
  ReportTemplateStats(state, f.kde_cold_stats);
}
BENCHMARK(BM_TemplatesKdeCold);

void BM_TemplatesKdeWarm(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.kde_warm_stats.template_qerrors, 0.5));
  }
  ReportTemplateStats(state, f.kde_warm_stats);
}
BENCHMARK(BM_TemplatesKdeWarm);

void BM_CorrelatedHistogram(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.hist_stats.correlated_qerrors, 0.5));
  }
  ReportCorrelatedStats(state, f.hist_stats);
}
BENCHMARK(BM_CorrelatedHistogram);

void BM_CorrelatedLearnedCache(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantile(f.card_stats.correlated_qerrors, 0.5));
  }
  ReportCorrelatedStats(state, f.card_stats);
}
BENCHMARK(BM_CorrelatedLearnedCache);

void BM_CorrelatedKdeCold(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Quantile(f.kde_cold_stats.correlated_qerrors, 0.5));
  }
  ReportCorrelatedStats(state, f.kde_cold_stats);
}
BENCHMARK(BM_CorrelatedKdeCold);

void BM_CorrelatedKdeWarm(benchmark::State& state) {
  Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Quantile(f.kde_warm_stats.correlated_qerrors, 0.5));
  }
  ReportCorrelatedStats(state, f.kde_warm_stats);
}
BENCHMARK(BM_CorrelatedKdeWarm);

// Per-estimate cost of consulting a warmed KDE snapshot: one pass over the
// 512-row sensor sample with four constrained bound ends.

void BM_KdeEstimateLatency(benchmark::State& state) {
  Fixture& f = SharedFixture();
  kde::KdeCardinalityEstimator est(f.kde_loop.get());
  auto scan = CompileBandScan(f.db.get(), EvalBandLo(0), &f.histogram);
  if (scan->card_bounds == nullptr) {
    // Bounds are only stamped with an estimator attached; recompute.
    std::fprintf(stderr, "no bounds stamped on sensor band scan\n");
    std::exit(1);
  }
  CardinalityQuery q;
  q.bounds = scan->card_bounds.get();
  q.histogram_rows = scan->est.rows;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateRows(q));
  }
}
BENCHMARK(BM_KdeEstimateLatency);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("kde_accuracy")
