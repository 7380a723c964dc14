#include "qpp/plan_model.h"

#include <sstream>

#include "common/bundle.h"
#include "ml/svr.h"

namespace qpp {

void BuildPlanTrainingSet(const std::vector<PlanOccurrence>& occurrences,
                          FeatureMode mode, FeatureMatrix* x,
                          std::vector<double>* y) {
  x->reserve(occurrences.size());
  y->reserve(occurrences.size());
  for (const PlanOccurrence& occ : occurrences) {
    const OperatorRecord& op =
        occ.query->ops[static_cast<size_t>(occ.op_index)];
    x->push_back(ExtractPlanFeatures(*occ.query, occ.op_index, mode));
    y->push_back(op.actual.valid ? op.actual.run_time_ms
                                 : occ.query->latency_ms);
  }
}

Status PlanLevelModel::Train(const std::vector<PlanOccurrence>& occurrences) {
  if (occurrences.size() < 4) {
    return Status::InvalidArgument("too few occurrences to train on");
  }
  std::string key =
      occurrences[0]
          .query->ops[static_cast<size_t>(occurrences[0].op_index)]
          .structural_key;
  for (const PlanOccurrence& occ : occurrences) {
    const std::string& occ_key =
        occ.query->ops[static_cast<size_t>(occ.op_index)].structural_key;
    if (occ_key == key) continue;
    if (config_.require_same_key) {
      return Status::InvalidArgument("occurrences mix plan structures: " +
                                     occ_key + " vs " + key);
    }
    key = "*";  // heterogeneous global model
  }

  FeatureMatrix x;
  std::vector<double> y;
  BuildPlanTrainingSet(occurrences, config_.feature_mode, &x, &y);
  auto model = std::make_unique<SvRegression>();
  QPP_RETURN_NOT_OK(model->Fit(x, y));
  structural_key_ = std::move(key);
  model_ = std::move(model);
  return Status::OK();
}

double PlanLevelModel::Predict(const QueryRecord& query, int op_index,
                               FeatureMode mode) const {
  if (model_ == nullptr) return 0.0;
  return model_->Predict(ExtractPlanFeatures(query, op_index, mode));
}

std::string PlanLevelModel::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "planmodel\n";
  out << "key " << structural_key_ << "\n";
  out << "mode " << static_cast<int>(config_.feature_mode) << "\n";
  out << "model " << (model_ ? model_->Serialize() : "") << "\n";
  return out.str();
}

Result<PlanLevelModel> PlanLevelModel::Deserialize(const std::string& text) {
  PlanLevelModel m;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "planmodel") {
    return Status::InvalidArgument("not a plan model payload");
  }
  while (std::getline(in, line)) {
    if (line.rfind("key ", 0) == 0) {
      m.structural_key_ = line.substr(4);
    } else if (line.rfind("mode ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(m.config_.feature_mode,
                           ParseFeatureMode(line.substr(5)));
    } else if (line.rfind("model ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(m.model_, DeserializeModel(line.substr(6)));
    }
  }
  if (m.model_ == nullptr) return Status::InvalidArgument("missing model line");
  if (m.model_->width() != PlanFeatureNames().size()) {
    return Status::InvalidArgument(
        "plan model width " + std::to_string(m.model_->width()) +
        ", expected " + std::to_string(PlanFeatureNames().size()));
  }
  return m;
}

}  // namespace qpp
