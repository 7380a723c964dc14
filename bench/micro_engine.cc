// Microbenchmarks for the engine substrate: data generation, scan and join
// throughput, template execution, decimal arithmetic, and buffer-pool access.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "bench/check.h"
#include "catalog/database.h"
#include "exec/driver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "tpch/dbgen.h"
#include "workload/templates.h"

namespace qpp {
namespace {

std::unique_ptr<Database>& SharedDb() {
  static std::unique_ptr<Database> db = [] {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.005;
    auto d = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    bench::CheckOk(tables.status(), "dbgen");
    bench::CheckOk(d->AdoptTables(std::move(*tables)), "AdoptTables");
    bench::CheckOk(d->AnalyzeAll(), "AnalyzeAll");
    return d;
  }();
  return db;
}

void BM_Dbgen(benchmark::State& state) {
  tpch::DbgenConfig cfg;
  cfg.scale_factor = 0.002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpch::Dbgen(cfg).Generate());
  }
}
BENCHMARK(BM_Dbgen);

void BM_SeqScanLineitem(benchmark::State& state) {
  Database* db = SharedDb().get();
  Optimizer opt(db);
  auto plan = opt.MakeScan("lineitem", "", nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(plan->get(), db, {}));
  }
  state.SetItemsProcessed(state.iterations() *
                          db->GetTable("lineitem")->num_rows());
}
BENCHMARK(BM_SeqScanLineitem);

// The same scan with its trace built. Spans are assembled from the actuals
// after the run, so the spread between this and BM_SeqScanLineitem is the
// entire observability overhead (required < 2%).
void BM_SeqScanLineitemTraced(benchmark::State& state) {
  Database* db = SharedDb().get();
  Optimizer opt(db);
  auto plan = opt.MakeScan("lineitem", "", nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(plan->get(), db, {}));
    benchmark::DoNotOptimize(obs::BuildTrace(**plan));
  }
  state.SetItemsProcessed(state.iterations() *
                          db->GetTable("lineitem")->num_rows());
}
BENCHMARK(BM_SeqScanLineitemTraced);

void BM_HashJoinOrdersLineitem(benchmark::State& state) {
  Database* db = SharedDb().get();
  Optimizer opt(db);
  auto l = opt.MakeScan("lineitem", "", nullptr);
  auto o = opt.MakeScan("orders", "", nullptr);
  auto join = opt.MakeJoin(PlanOp::kHashJoin, JoinType::kInner, std::move(*l),
                           std::move(*o), {{"l_orderkey", "o_orderkey"}},
                           nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutePlan(join->get(), db, {}));
  }
}
BENCHMARK(BM_HashJoinOrdersLineitem);

// The label work of training at micro scale: the 14 operator-level
// templates, planned once at two bindings each (micro_card's mix), all 28
// executed cold per iteration as the training workload runs them.
void BM_ExecuteTemplates(benchmark::State& state) {
  Database* db = SharedDb().get();
  Optimizer opt(db);
  std::vector<QueryPlan> plans;
  for (int tid : tpch::OperatorLevelTemplates()) {
    for (uint64_t seed : {7, 8}) {
      Rng rng(seed);
      tpch::TemplateContext ctx{&opt, db, &rng};
      auto plan = tpch::GenerateTemplateQuery(tid, &ctx);
      bench::CheckOk(plan.status(), "GenerateTemplateQuery");
      plans.push_back(std::move(*plan));
    }
  }
  ExecutionOptions options;
  options.collect_rows = false;
  for (auto _ : state) {
    for (QueryPlan& plan : plans) {
      auto result = ExecutePlan(plan.root.get(), db, options);
      bench::CheckOk(result.status(), "ExecutePlan");
      benchmark::DoNotOptimize(result->row_count);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_ExecuteTemplates)->Unit(benchmark::kMillisecond);

void BM_DecimalMul(benchmark::State& state) {
  const Decimal a(123456, 2);
  const Decimal b(98765, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Mul(b));
  }
}
BENCHMARK(BM_DecimalMul);

void BM_DecimalAdd(benchmark::State& state) {
  const Decimal a(123456, 2);
  const Decimal b(98765, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Add(b));
  }
}
BENCHMARK(BM_DecimalAdd);

void BM_BufferPoolColdRead(benchmark::State& state) {
  BufferPool pool;
  int64_t page = 0;
  for (auto _ : state) {
    pool.FlushAll();
    pool.AccessSequential(1, page++);
  }
}
BENCHMARK(BM_BufferPoolColdRead);

// Raw metric-update costs, to size the per-access overhead the pool and the
// serving path pay (a relaxed fetch_add / a couple of relaxed stores).
void BM_MetricsCounterIncrement(benchmark::State& state) {
  obs::Counter* c =
      obs::MetricsRegistry::Global()->GetCounter("bench.micro.counter");
  for (auto _ : state) {
    c->Increment();
  }
  benchmark::DoNotOptimize(c->Value());
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::Histogram* h = obs::MetricsRegistry::Global()->GetHistogram(
      "bench.micro.histogram", obs::ExponentialBuckets(1.0, 2.0, 16));
  double v = 0.5;
  for (auto _ : state) {
    h->Observe(v);
    v += 1.0;
    if (v > 60000.0) v = 0.5;
  }
  benchmark::DoNotOptimize(h->Count());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_OptimizeSixWayJoin(benchmark::State& state) {
  Database* db = SharedDb().get();
  Optimizer opt(db);
  for (auto _ : state) {
    JoinBlock block;
    block.AddRelation("customer");
    block.AddRelation("orders");
    block.AddRelation("lineitem");
    block.AddRelation("supplier");
    block.AddRelation("nation");
    block.AddRelation("region");
    block.AddJoin("c_custkey", "o_custkey");
    block.AddJoin("l_orderkey", "o_orderkey");
    block.AddJoin("l_suppkey", "s_suppkey");
    block.AddJoin("s_nationkey", "n_nationkey");
    block.AddJoin("n_regionkey", "r_regionkey");
    benchmark::DoNotOptimize(opt.OptimizeJoinBlock(std::move(block)));
  }
}
BENCHMARK(BM_OptimizeSixWayJoin);

}  // namespace
}  // namespace qpp

QPP_BENCHMARK_MAIN_WITH_JSON("micro_engine");
