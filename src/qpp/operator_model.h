#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "ml/model.h"
#include "qpp/features.h"

namespace qpp {

/// Predicted start-time and run-time of a (sub-)plan, in ms (Section 3.2
/// semantics: start = until first output tuple, run = total, both covering
/// the sub-plan rooted at the operator).
struct TimePrediction {
  double start_ms = 0.0;
  double run_ms = 0.0;
};

/// Hook that lets hybrid/online prediction substitute plan-level predictions
/// for matched sub-plans during bottom-up composition: return true and fill
/// *out to take over the sub-plan rooted at op_index.
using PredictionOverride = std::function<bool(int op_index, TimePrediction* out)>;

/// Configuration for operator-level modeling.
struct OperatorModelConfig {
  /// Which static feature values to train on.
  FeatureMode train_mode = FeatureMode::kEstimate;
};

/// \brief Fine-grained QPP (Section 3.2): one start-time and one run-time
/// model per operator type, composed bottom-up along the plan structure —
/// child predictions become the st1/rt1/st2/rt2 features of the parent.
///
/// Each model is a linear regression, as in the paper, over all seven model
/// inputs (operator_model.cc); a type with fewer than kMinSamples training
/// operators falls back to an additive per-tuple default.
class OperatorModelSet {
 public:
  OperatorModelSet() = default;
  explicit OperatorModelSet(OperatorModelConfig config) : config_(config) {}

  /// Trains all per-operator-type models from the executed queries.
  Status Train(const std::vector<const QueryRecord*>& queries);

  /// Predicts the sub-plan rooted at op_index (composing children first).
  TimePrediction PredictSubplan(const QueryRecord& query, int op_index,
                                FeatureMode mode,
                                const PredictionOverride& override_fn = nullptr)
      const;

  /// Predicted end-to-end latency (root run-time).
  double PredictQuery(const QueryRecord& query, FeatureMode mode,
                      const PredictionOverride& override_fn = nullptr) const;

  bool trained() const { return trained_; }

  /// True if a dedicated model (not the fallback) exists for this type.
  bool HasModelFor(PlanOp op) const;

  std::string Serialize() const;
  /// Refuses a model whose width is not the model-input count.
  static Result<OperatorModelSet> Deserialize(const std::string& text);

 private:
  struct TypeModels {
    std::unique_ptr<RegressionModel> start_model;
    std::unique_ptr<RegressionModel> run_model;
    /// Largest training targets; predictions are clamped to a small multiple
    /// of these. A per-type linear model fit on a narrow feature manifold
    /// (e.g. one template) can otherwise extrapolate absurdly on unforeseen
    /// plans — the failure mode, not the graceful degradation, of
    /// operator-level modeling.
    double max_start_target = 0.0;
    double max_run_target = 0.0;
  };

  Status FitAllTypes(const std::vector<const QueryRecord*>& queries);

  std::vector<double> BuildFeatures(const QueryRecord& query, int op_index,
                                    FeatureMode mode,
                                    bool predicted_child_times,
                                    const PredictionOverride& override_fn) const;

  OperatorModelConfig config_;
  bool trained_ = false;
  std::array<TypeModels, kNumPlanOps> models_;
};

}  // namespace qpp
