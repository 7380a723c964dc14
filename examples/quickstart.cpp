// Quickstart: the minimal end-to-end use of the library.
//
//   1. Generate a TPC-H database (the engine substrate).
//   2. Execute a small training workload, logging per-operator features
//      and timings.
//   3. Train a hybrid query-performance predictor.
//   4. Predict the latency of new, unseen queries before running them, then
//      run them and compare.
//   5. Inspect one execution: EXPLAIN ANALYZE tree, a Chrome-traceable span
//      JSON (chrome://tracing or https://ui.perfetto.dev), and the process
//      metrics snapshot.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "catalog/database.h"
#include "exec/driver.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qpp/predictor.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"
#include "workload/templates.h"

using namespace qpp;

int main() {
  // 1. A small TPC-H database, fully in memory, statistics analyzed.
  std::printf("Generating TPC-H data (SF 0.01)...\n");
  tpch::DbgenConfig gen_cfg;
  gen_cfg.scale_factor = 0.01;
  Database db;
  auto tables = tpch::Dbgen(gen_cfg).Generate();
  if (!tables.ok()) {
    std::fprintf(stderr, "%s\n", tables.status().ToString().c_str());
    return 1;
  }
  if (Status st = db.AdoptTables(std::move(*tables)); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = db.AnalyzeAll(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Execute a training workload: queries drawn from TPC-H templates,
  //    cold-started, instrumented per operator.
  std::printf("Executing training workload...\n");
  WorkloadConfig wc;
  wc.templates = {1, 3, 4, 6, 10, 12, 14, 19};
  wc.queries_per_template = 15;
  auto log = RunWorkload(&db, wc);
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu queries executed and logged\n", log->queries.size());

  // 3. Train the hybrid predictor (operator-level models plus plan-level
  //    models for the sub-plans where composition is weak).
  std::printf("Training hybrid QPP models...\n");
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kHybrid;
  cfg.hybrid.max_iterations = 8;
  QueryPerformancePredictor predictor(cfg);
  if (Status st = predictor.Train(*log); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("  training error %.1f%% -> %.1f%% after %zu plan-level models\n",
              100.0 * predictor.hybrid().initial_error(),
              100.0 * predictor.hybrid().final_error(),
              predictor.hybrid().plan_models().size());

  // 4. New queries: predict first (static features only), then execute.
  std::printf("\n%-8s %-24s %-14s %-12s %s\n", "template", "parameters",
              "predicted_ms", "actual_ms", "rel_error");
  Optimizer opt(&db);
  Rng rng(2026);
  for (int tid : {3, 10, 14, 6, 1}) {
    tpch::TemplateContext ctx{&opt, &db, &rng};
    auto plan = tpch::GenerateTemplateQuery(tid, &ctx);
    if (!plan.ok()) continue;
    // Prediction uses only the optimizer's estimates — no execution yet.
    QueryRecord record = RecordFromPlan(*plan, /*latency_ms=*/0.0);
    auto predicted = predictor.PredictLatencyMs(record);
    // Now actually run it.
    auto result = ExecutePlan(plan->root.get(), &db, {});
    if (!predicted.ok() || !result.ok()) continue;
    const double rel =
        std::abs(result->latency_ms - *predicted) / result->latency_ms;
    std::printf("%-8d %-24s %-14.2f %-12.2f %.1f%%\n", tid,
                plan->parameter_desc.substr(0, 24).c_str(), *predicted,
                result->latency_ms, 100.0 * rel);
  }

  // 5. Observability: re-run one template and show what the obs layer
  //    derives from the actuals the execution recorded.
  {
    tpch::TemplateContext ctx{&opt, &db, &rng};
    auto plan = tpch::GenerateTemplateQuery(3, &ctx);
    if (plan.ok()) {
      auto result = ExecutePlan(plan->root.get(), &db, {});
      if (result.ok()) {
        std::printf("\nEXPLAIN ANALYZE (TPC-H template 3):\n%s",
                    obs::ExplainAnalyze(*plan->root).c_str());
        const char* trace_path = "quickstart_trace.json";
        if (std::FILE* f = std::fopen(trace_path, "w")) {
          const obs::Trace trace = obs::BuildTrace(*plan->root);
          const std::string json = trace.ToChromeTraceJson();
          std::fwrite(json.data(), 1, json.size(), f);
          std::fclose(f);
          std::printf("\nwrote %s (%zu spans; open in chrome://tracing)\n",
                      trace_path, trace.spans.size());
        }
      }
    }
  }
  std::printf("\nprocess metrics:\n%s\n", obs::DumpMetricsJson().c_str());
  return 0;
}
