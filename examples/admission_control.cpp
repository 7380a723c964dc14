// Admission control / workload management — the paper's motivating use case
// (Section 1): a resource manager that routes incoming queries to an
// interactive or a batch queue based on *predicted* latency, so that
// interactive QoS targets are met without executing anything first.
//
// This example runs the full serving stack from src/serve/: the trained
// predictor is published into a ModelRegistry, each arriving query is
// routed by comparing its PredictionService prediction with the SLO, and
// every executed query is fed back through the FeedbackLoop (which would
// hot-swap in a retrained model if the workload drifted). The trained model
// is also saved to and re-loaded from a checksummed bundle, the way a real
// deployment separates training from serving.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "catalog/database.h"
#include "common/stats.h"
#include "exec/driver.h"
#include "serve/feedback.h"
#include "serve/model_store.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"
#include "workload/templates.h"

using namespace qpp;

int main() {
  std::printf("Setting up database and training workload...\n");
  tpch::DbgenConfig gen_cfg;
  gen_cfg.scale_factor = 0.01;
  Database db;
  auto tables = tpch::Dbgen(gen_cfg).Generate();
  if (!tables.ok()) return 1;
  if (!db.AdoptTables(std::move(*tables)).ok()) return 1;
  if (!db.AnalyzeAll().ok()) return 1;

  WorkloadConfig wc;
  wc.templates = {1, 3, 4, 5, 6, 10, 12, 14, 19};
  wc.queries_per_template = 15;
  auto log = RunWorkload(&db, wc);
  if (!log.ok()) return 1;

  PredictorConfig cfg;
  cfg.method = PredictionMethod::kHybrid;
  cfg.hybrid.max_iterations = 8;
  QueryPerformancePredictor trained(cfg);
  if (!trained.Train(*log).ok()) return 1;

  // Deploy through the serving stack: persist the trained model, load it
  // back (verifying the checksum), and publish it into the registry.
  const std::string bundle_path = "admission_model.qppb";
  if (!serve::SaveModelBundle(trained, bundle_path).ok()) return 1;
  auto deployed = serve::LoadModelBundle(bundle_path);
  if (!deployed.ok()) {
    std::printf("model load failed: %s\n", deployed.status().ToString().c_str());
    return 1;
  }
  serve::ModelRegistry registry;
  registry.Publish(
      std::make_shared<QueryPerformancePredictor>(std::move(*deployed)),
      bundle_path);
  serve::PredictionService service(&registry);
  // Latency SLO of the interactive queue; predictions above it route to
  // the batch queue.
  constexpr double kSloMs = 60.0;

  serve::FeedbackConfig fcfg;
  fcfg.retrain_config = cfg;
  serve::FeedbackLoop feedback(&registry, fcfg);

  std::printf("Serving model v%llu from %s\n",
              static_cast<unsigned long long>(registry.current_version()),
              bundle_path.c_str());
  std::printf("Interactive SLO: %.0f ms. Simulating 45 arrivals...\n\n",
              kSloMs);

  Optimizer opt(&db);
  Rng rng(77);
  int correct = 0, total = 0;
  int routed_interactive = 0, routed_batch = 0;
  int violations_with_routing = 0, violations_without = 0;
  std::vector<double> interactive_latencies;
  for (int i = 0; i < 45; ++i) {
    const auto& templates = wc.templates;
    const int tid = templates[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(templates.size()) - 1))];
    tpch::TemplateContext ctx{&opt, &db, &rng};
    auto plan = tpch::GenerateTemplateQuery(tid, &ctx);
    if (!plan.ok()) continue;
    QueryRecord record = RecordFromPlan(*plan, 0.0);
    auto predicted = service.Predict(record);
    if (!predicted.ok()) continue;
    const bool predicted_slow = predicted->predicted_ms > kSloMs;
    ++(predicted_slow ? routed_batch : routed_interactive);
    auto result = ExecutePlan(plan->root.get(), &db, {});
    if (!result.ok()) continue;

    // Close the loop: the executed record (with observed latency) feeds the
    // drift detector, which would retrain + hot-swap on a drifting workload.
    record.latency_ms = result->latency_ms;
    // A failed Observe means the durable feedback log dropped this record:
    // surface it instead of silently starving the retrain corpus.
    if (Status st = feedback.Observe(record); !st.ok()) {
      std::fprintf(stderr, "feedback write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }

    const bool actually_slow = result->latency_ms > kSloMs;
    correct += predicted_slow == actually_slow;
    ++total;
    // Without routing every query hits the interactive queue.
    violations_without += actually_slow;
    if (!predicted_slow) {
      interactive_latencies.push_back(result->latency_ms);
      violations_with_routing += actually_slow;
    }
  }
  feedback.WaitForRetrain();

  std::printf("Routing accuracy (fast/slow classification): %d/%d (%.0f%%)\n",
              correct, total, 100.0 * correct / std::max(1, total));
  std::printf("SLO violations in interactive queue:\n");
  std::printf("  without prediction-based routing: %d\n", violations_without);
  std::printf("  with prediction-based routing:    %d\n",
              violations_with_routing);
  if (!interactive_latencies.empty()) {
    std::printf("Interactive queue p95 latency with routing: %.1f ms\n",
                Percentile(interactive_latencies, 95));
  }
  std::printf(
      "Routed: %d interactive, %d batch; windowed model error %.2f "
      "(drift threshold %.2f, retrains: %llu)\n",
      routed_interactive, routed_batch, feedback.WindowedError(),
      fcfg.drift_threshold,
      static_cast<unsigned long long>(feedback.retrains_published()));
  std::remove(bundle_path.c_str());
  return 0;
}
