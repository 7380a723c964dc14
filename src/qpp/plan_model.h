#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"
#include "qpp/features.h"

namespace qpp {

/// An occurrence of a plan structure: a query in the log and the operator
/// index of the sub-plan root (0 for the whole plan).
struct PlanOccurrence {
  const QueryRecord* query;
  int op_index;
};

/// Configuration shared by plan-level models.
struct PlanModelConfig {
  FeatureMode feature_mode = FeatureMode::kEstimate;
  /// When true (hybrid/online sub-plan models) all training occurrences
  /// must share one plan structure; the paper's global plan-level model
  /// (Section 3.1) trains across heterogeneous plans instead.
  bool require_same_key = false;
};

/// \brief Coarse-grained model (Section 3.1): predicts the execution time of
/// one plan structure directly from the Table 1 features of the (sub-)plan.
///
/// An instance is bound to one structural key; training uses every
/// occurrence of that structure in the training data, with the observed
/// sub-plan run-time as target. The model is an SVM regression, as in the
/// paper.
class PlanLevelModel {
 public:
  PlanLevelModel() = default;
  explicit PlanLevelModel(PlanModelConfig config) : config_(config) {}

  /// Trains on the given occurrences (all must share a structural key).
  /// Fits the model on all Table 1 features and records a cross-validated
  /// accuracy estimate over kCvFolds folds (plan_model.cc).
  Status Train(const std::vector<PlanOccurrence>& occurrences);

  /// Predicted run-time (ms) of the sub-plan rooted at op_index.
  double Predict(const QueryRecord& query, int op_index,
                 FeatureMode mode) const;

  bool trained() const { return model_ != nullptr; }
  const std::string& structural_key() const { return structural_key_; }
  /// CV mean relative error measured during training.
  double cv_error() const { return cv_error_; }

  /// Multi-line text serialization / parsing (model materialization).
  /// Parsing refuses a model whose width is not the Table 1 feature count.
  std::string Serialize() const;
  static Result<PlanLevelModel> Deserialize(const std::string& text);

 private:
  PlanModelConfig config_;
  std::string structural_key_;
  std::unique_ptr<RegressionModel> model_;
  double cv_error_ = 1e300;
};

}  // namespace qpp
