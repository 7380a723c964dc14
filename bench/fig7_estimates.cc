// Reproduces Figure 7 (Section 5.3.3): the impact of training/testing with
// optimizer estimates vs observed actual feature values, for both plan- and
// operator-level models on the large database.

#include <cstdio>

#include "bench/bench_util.h"
#include "ml/validation.h"
#include "qpp/operator_model.h"
#include "qpp/plan_model.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

namespace {

struct Combo {
  FeatureMode train;
  FeatureMode test;
};

// Plan-level CV error for one train/test feature-mode combination.
CvPredictions PlanLevelCv(const QueryLog& log, Combo combo) {
  std::vector<int> strata;
  for (const auto& q : log.queries) strata.push_back(q.template_id);
  Rng rng(5);
  const auto folds = StratifiedKFold(strata, 5, &rng);
  CvPredictions out;
  for (const auto& fold : folds) {
    PlanModelConfig cfg;
    cfg.feature_mode = combo.train;
    PlanLevelModel model(cfg);
    std::vector<PlanOccurrence> train;
    for (size_t i : fold.train) train.push_back({&log.queries[i], 0});
    Status st = model.Train(train);
    if (!st.ok()) {
      std::fprintf(stderr, "plan model: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    for (size_t i : fold.test) {
      out.template_ids.push_back(log.queries[i].template_id);
      out.actual.push_back(log.queries[i].latency_ms);
      out.predicted.push_back(model.Predict(log.queries[i], 0, combo.test));
    }
  }
  return out;
}

CvPredictions OperatorLevelCv(const QueryLog& log, Combo combo) {
  std::vector<int> strata;
  for (const auto& q : log.queries) strata.push_back(q.template_id);
  Rng rng(7);
  const auto folds = StratifiedKFold(strata, 5, &rng);
  CvPredictions out;
  for (const auto& fold : folds) {
    OperatorModelConfig cfg;
    cfg.train_mode = combo.train;
    OperatorModelSet models(cfg);
    std::vector<const QueryRecord*> train;
    for (size_t i : fold.train) train.push_back(&log.queries[i]);
    Status st = models.Train(train);
    if (!st.ok()) {
      std::fprintf(stderr, "operator models: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    for (size_t i : fold.test) {
      out.template_ids.push_back(log.queries[i].template_id);
      out.actual.push_back(log.queries[i].latency_ms);
      out.predicted.push_back(models.PredictQuery(log.queries[i], combo.test));
    }
  }
  return out;
}

const char* ModeName(FeatureMode m) {
  return m == FeatureMode::kEstimate ? "estimate" : "actual";
}

}  // namespace

int main() {
  PrintSectionHeader(
      "Figure 7 - Impact of Estimation Errors (actual vs estimate features)");
  std::printf(
      "Paper shape: actual/actual best, estimate/estimate a close second,\n"
      "actual/estimate much worse (models trained on clean values cannot\n"
      "absorb optimizer estimation errors at test time).\n");
  const QueryLog plan_log = GetWorkload(LargeScaleFactor(),
                                        tpch::PlanLevelTemplates(), "large");
  const QueryLog op_log = GetWorkload(LargeScaleFactor(),
                                      tpch::OperatorLevelTemplates(), "large");

  const Combo combos[] = {
      {FeatureMode::kActual, FeatureMode::kActual},
      {FeatureMode::kEstimate, FeatureMode::kEstimate},
      {FeatureMode::kActual, FeatureMode::kEstimate},
      {FeatureMode::kEstimate, FeatureMode::kActual},
  };

  std::printf("\nFig 7(a) mean relative error (%%) by train/test mode:\n");
  std::printf("  %-20s %-12s %s\n", "train/test", "plan-level",
              "operator-level");
  CvPredictions act_act_plan;
  for (const Combo& combo : combos) {
    const CvPredictions plan = PlanLevelCv(plan_log, combo);
    const CvPredictions op = OperatorLevelCv(op_log, combo);
    if (combo.train == FeatureMode::kActual &&
        combo.test == FeatureMode::kActual) {
      act_act_plan = plan;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%s/%s", ModeName(combo.train),
                  ModeName(combo.test));
    std::printf("  %-20s %-12.1f %.1f\n", label,
                100.0 * MeanRelativeError(plan.actual, plan.predicted),
                100.0 * MeanRelativeError(op.actual, op.predicted));
  }

  PrintTemplateErrors(
      "\nFig 7(b) plan-level errors by template, actual/actual (large DB):",
      ErrorsByTemplate(act_act_plan.template_ids, act_act_plan.actual,
                       act_act_plan.predicted));
  return 0;
}
