// Reproduces Figure 6: static-workload prediction accuracy of the
// plan-level (18 templates) and operator-level (14 templates) methods on
// the large and small databases, under 5-fold stratified cross-validation.
// Panels: (a)/(c) plan-level errors by template on large/small DBs,
// (b)/(e) true-vs-estimate pairs, (d)/(f) operator-level errors by template.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

namespace {

void RunForDatabase(const std::string& label, double sf) {
  auto db = BuildDatabase(sf);

  // Plan-level over the 18 plan-level templates.
  {
    const QueryLog log =
        GetWorkload(db.get(), sf, tpch::PlanLevelTemplates(), label);
    PredictorConfig cfg;
    cfg.method = PredictionMethod::kPlanLevel;
    const CvPredictions cv = CrossValidatedPredictions(log, cfg);
    PrintTemplateErrors(
        "\nFig 6(" + std::string(label == "large" ? "a" : "c") +
            ") plan-level errors by template (" + label + " DB):",
        ErrorsByTemplate(cv.template_ids, cv.actual, cv.predicted),
        cv.failed);
    if (label == "large") {
      std::printf("\nFig 6(b) true vs estimate (first query per template):\n");
      std::printf("  %-8s %-12s %s\n", "template", "actual_ms", "predicted_ms");
      int last = -1;
      for (size_t i = 0; i < cv.template_ids.size(); ++i) {
        if (cv.template_ids[i] == last) continue;
        last = cv.template_ids[i];
        std::printf("  %-8d %-12.2f %.2f\n", last, cv.actual[i],
                    cv.predicted[i]);
      }
    }
  }

  // Operator-level over the 14 operator-level templates.
  {
    const QueryLog log =
        GetWorkload(db.get(), sf, tpch::OperatorLevelTemplates(), label);
    PredictorConfig cfg;
    cfg.method = PredictionMethod::kOperatorLevel;
    const CvPredictions cv = CrossValidatedPredictions(log, cfg);
    PrintTemplateErrors(
        "\nFig 6(" + std::string(label == "large" ? "d" : "f") +
            ") operator-level errors by template (" + label + " DB):",
        ErrorsByTemplate(cv.template_ids, cv.actual, cv.predicted),
        cv.failed);
  }
}

}  // namespace

int main() {
  PrintSectionHeader("Figure 6 - Static Workload Prediction");
  std::printf(
      "Paper shape: plan-level mean ~6.8%% (10GB) / ~17.4%% (1GB); "
      "operator-level good on\nmost templates with a heavy tail on a few; "
      "the small DB is harder than the large one.\n");
  RunForDatabase("large", LargeScaleFactor());
  RunForDatabase("small", SmallScaleFactor());
  return 0;
}
