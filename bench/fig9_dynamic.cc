// Reproduces Figure 9: dynamic-workload prediction. For each of the 12
// dynamic-workload templates, models are trained on the other 11 and tested
// on the held-out one; compared methods are plan-level, operator-level,
// hybrid (error-based), hybrid (size-based) and online model building.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

namespace {

double LeaveOneOutError(const QueryLog& log, int held_out,
                        PredictorConfig cfg) {
  QueryLog train;
  std::vector<const QueryRecord*> test;
  for (const auto& q : log.queries) {
    if (q.template_id == held_out) {
      test.push_back(&q);
    } else {
      train.queries.push_back(q);
    }
  }
  QueryPerformancePredictor predictor(cfg);
  Status st = predictor.Train(train);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::vector<double> actual, pred;
  for (const QueryRecord* q : test) {
    auto r = predictor.PredictLatencyMs(*q);
    actual.push_back(q->latency_ms);
    pred.push_back(r.ok() ? *r : 0.0);
  }
  return MeanRelativeError(actual, pred);
}

}  // namespace

int main() {
  PrintSectionHeader("Figure 9 - Dynamic Workload Prediction");
  std::printf(
      "Paper shape: plan-level performs poorly across the board; hybrid\n"
      "methods stay accurate, online modeling best on most templates, with\n"
      "size-based ordering somewhat ahead of error-based.\n");
  const QueryLog log = GetWorkload(LargeScaleFactor(),
                                   tpch::DynamicWorkloadTemplates(), "large");

  auto config = [](PredictionMethod method, PlanOrderingStrategy strategy) {
    PredictorConfig cfg;
    cfg.method = method;
    cfg.hybrid.strategy = strategy;
    cfg.hybrid.max_iterations = 15;
    return cfg;
  };

  std::printf("\nRelative error (%%) on the held-out template:\n");
  std::printf("  %-8s %-10s %-9s %-12s %-11s %s\n", "template", "plan-level",
              "op-level", "error-based", "size-based", "online");
  for (int held_out : tpch::DynamicWorkloadTemplates()) {
    const double plan = LeaveOneOutError(
        log, held_out,
        config(PredictionMethod::kPlanLevel, PlanOrderingStrategy::kErrorBased));
    const double op = LeaveOneOutError(
        log, held_out,
        config(PredictionMethod::kOperatorLevel,
               PlanOrderingStrategy::kErrorBased));
    const double hybrid_err = LeaveOneOutError(
        log, held_out,
        config(PredictionMethod::kHybrid, PlanOrderingStrategy::kErrorBased));
    const double hybrid_size = LeaveOneOutError(
        log, held_out,
        config(PredictionMethod::kHybrid, PlanOrderingStrategy::kSizeBased));
    const double online = LeaveOneOutError(
        log, held_out,
        config(PredictionMethod::kOnline, PlanOrderingStrategy::kSizeBased));
    std::printf("  %-8d %-10.1f %-9.1f %-12.1f %-11.1f %.1f\n", held_out,
                100.0 * plan, 100.0 * op, 100.0 * hybrid_err,
                100.0 * hybrid_size, 100.0 * online);
    std::fflush(stdout);
  }
  return 0;
}
