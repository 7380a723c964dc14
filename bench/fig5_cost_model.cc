// Reproduces Figure 5 and Section 5.2: predicting latency from the
// optimizer's analytical cost estimate alone. Prints the cost-vs-latency
// scatter (a stratified sample, as in the paper's figure) and the relative
// error statistics of a linear regression on cost.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

int main() {
  PrintSectionHeader(
      "Figure 5 / Section 5.2 - Prediction with Optimizer Cost Models");
  const QueryLog log = GetWorkload(LargeScaleFactor(),
                                   tpch::PlanLevelTemplates(), "large");

  PredictorConfig cfg;
  cfg.method = PredictionMethod::kOptimizerCost;
  const CvPredictions cv = CrossValidatedPredictions(log, cfg);

  std::printf("\nOptimizer cost vs execution time (one query per template):\n");
  std::printf("  %-8s %-14s %s\n", "template", "cost_estimate", "latency_ms");
  int last_template = -1;
  for (size_t i = 0; i < log.queries.size(); ++i) {
    if (log.queries[i].template_id == last_template) continue;
    last_template = log.queries[i].template_id;
    std::printf("  %-8d %-14.0f %.2f\n", last_template,
                log.queries[i].root().est.total_cost,
                log.queries[i].latency_ms);
  }

  std::printf("\nLinear regression on p_tot_cost (5-fold stratified CV):\n");
  std::printf("  min relative error   %.0f%%\n",
              100.0 * MinRelativeError(cv.actual, cv.predicted));
  std::printf("  mean relative error  %.0f%%\n",
              100.0 * MeanRelativeError(cv.actual, cv.predicted));
  std::printf("  max relative error   %.0f%%\n",
              100.0 * MaxRelativeError(cv.actual, cv.predicted));
  std::printf("  predictive risk      %.2f\n",
              PredictiveRisk(cv.actual, cv.predicted));
  if (cv.failed > 0) {
    std::printf("  failed predictions   %zu (left out above)\n", cv.failed);
  }
  std::printf(
      "\nPaper (10GB PostgreSQL): min 30%%, mean 120%%, max 1744%%, "
      "predictive risk ~0.93.\nExpected shape: high relative errors despite "
      "a deceptively high predictive risk.\n");
  PrintTemplateErrors("\nPer-template relative error of the cost baseline:",
                      ErrorsByTemplate(cv.template_ids, cv.actual, cv.predicted),
                      cv.failed);
  return 0;
}
