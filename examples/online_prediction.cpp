// Online model building (Section 4): a workload shift scenario. The system
// is trained on one set of TPC-H templates; queries from *unseen* templates
// then arrive. The example compares, per arriving query,
//   - the static plan-level model (collapses out of template),
//   - pure operator-level composition (general but less accurate),
//   - the online predictor, which builds plan-level models for the arriving
//     query's sub-plans from the training data at prediction time and caches
//     them for later arrivals.
// It also demonstrates model materialization: the operator-level models are
// saved as a checksummed bundle and reloaded, as a deployment would.

#include <cstdio>

#include "catalog/database.h"
#include "common/stats.h"
#include "qpp/predictor.h"
#include "serve/model_store.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"
#include "workload/templates.h"

using namespace qpp;

int main() {
  std::printf("Setting up database...\n");
  tpch::DbgenConfig gen_cfg;
  gen_cfg.scale_factor = 0.01;
  Database db;
  auto tables = tpch::Dbgen(gen_cfg).Generate();
  if (!tables.ok()) return 1;
  if (!db.AdoptTables(std::move(*tables)).ok()) return 1;
  if (!db.AnalyzeAll().ok()) return 1;

  // Train on 8 templates; templates 3 and 14 are never seen in training.
  std::printf("Executing training workload (templates without 3 and 14)...\n");
  WorkloadConfig train_wc;
  train_wc.templates = {1, 4, 5, 6, 9, 10, 12, 19};
  train_wc.queries_per_template = 15;
  auto train_log = RunWorkload(&db, train_wc);
  if (!train_log.ok()) return 1;

  std::printf("Executing shifted workload (templates 3 and 14)...\n");
  WorkloadConfig test_wc;
  test_wc.templates = {3, 14};
  test_wc.queries_per_template = 10;
  auto test_log = RunWorkload(&db, test_wc);
  if (!test_log.ok()) return 1;

  auto train = [&](PredictionMethod method) {
    PredictorConfig cfg;
    cfg.method = method;
    cfg.hybrid.max_iterations = 8;
    auto p = std::make_unique<QueryPerformancePredictor>(cfg);
    Status st = p->Train(*train_log);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return p;
  };
  auto plan_level = train(PredictionMethod::kPlanLevel);
  auto op_level = train(PredictionMethod::kOperatorLevel);
  auto online = train(PredictionMethod::kOnline);

  std::printf("\nArrivals from unseen templates:\n");
  std::printf("%-8s %-10s %-12s %-10s %s\n", "template", "actual_ms",
              "plan-level", "op-level", "online");
  std::vector<double> actual, plan_pred, op_pred, online_pred;
  for (const QueryRecord& q : test_log->queries) {
    auto p1 = plan_level->PredictLatencyMs(q);
    auto p2 = op_level->PredictLatencyMs(q);
    auto p3 = online->PredictLatencyMs(q);
    if (!p1.ok() || !p2.ok() || !p3.ok()) continue;
    actual.push_back(q.latency_ms);
    plan_pred.push_back(*p1);
    op_pred.push_back(*p2);
    online_pred.push_back(*p3);
    std::printf("%-8d %-10.2f %-12.2f %-10.2f %.2f\n", q.template_id,
                q.latency_ms, *p1, *p2, *p3);
  }
  std::printf("\nMean relative error on the shifted workload:\n");
  std::printf("  plan-level      %.1f%%   (static model, unseen plans)\n",
              100.0 * MeanRelativeError(actual, plan_pred));
  std::printf("  operator-level  %.1f%%\n",
              100.0 * MeanRelativeError(actual, op_pred));
  std::printf("  online          %.1f%%\n",
              100.0 * MeanRelativeError(actual, online_pred));

  // Model materialization: persist and reload the operator-level models as
  // a checksummed bundle.
  const std::string path = "/tmp/qpp_example_models.qppb";
  if (serve::SaveModelBundle(*op_level, path).ok()) {
    auto reloaded = serve::LoadModelBundle(path);
    if (reloaded.ok()) {
      auto r = reloaded->PredictLatencyMs(test_log->queries.front());
      std::printf("\nMaterialized models reloaded from %s; prediction %.2f ms\n",
                  path.c_str(), r.ok() ? *r : -1.0);
    }
    std::remove(path.c_str());
  }
  return 0;
}
