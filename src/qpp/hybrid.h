#pragma once

#include <map>
#include <string>
#include <vector>

#include "qpp/operator_model.h"
#include "qpp/plan_model.h"

namespace qpp {

/// Plan ordering strategies for offline hybrid model selection
/// (Section 3.4).
enum class PlanOrderingStrategy {
  /// Smaller sub-plans first (ties: more frequent first).
  kSizeBased,
  /// More frequent sub-plans first (ties: smaller first).
  kFrequencyBased,
  /// Highest total error (frequency x average prediction error) first.
  kErrorBased,
};

const char* PlanOrderingStrategyName(PlanOrderingStrategy s);

/// Configuration of hybrid training (Algorithm 1's inputs; its epsilon and
/// the candidate error floor are kEpsilon and kSkipErrorThreshold in
/// hybrid.cc).
struct HybridConfig {
  PlanOrderingStrategy strategy = PlanOrderingStrategy::kErrorBased;
  /// Stop once training mean relative error drops to this.
  double target_error = 0.05;
  int max_iterations = 30;
  /// Sub-plans with fewer training occurrences are not modeled.
  int min_occurrences = 10;
};

/// A plan-level model's prediction for the sub-plan rooted at `op_index`,
/// as hybrid and online prediction substitute it during composition: the
/// model's run-time, with the start-time taken from the optimizer's
/// startup/total cost ratio.
TimePrediction PlanModelTimePrediction(const PlanLevelModel& model,
                                       const QueryRecord& query, int op_index,
                                       FeatureMode mode);

/// One Algorithm 1 iteration, for the Figure 8 convergence analysis.
struct HybridIteration {
  int iteration = 0;
  std::string structural_key;
  bool kept = false;
  /// Training mean relative error after this iteration.
  double error_after = 0.0;
};

/// \brief Hybrid QPP (Section 3.4): operator-level models everywhere, plus
/// plan-level models for the sub-plans where operator composition is weak,
/// chosen greedily by a plan ordering strategy (Algorithm 1). With
/// max_iterations 0 it is the plain operator-level stack: kOperatorLevel's
/// model, and the one an OnlinePredictor owns (online.h).
class HybridModel {
 public:
  HybridModel() = default;
  explicit HybridModel(HybridConfig config) : config_(config) {}

  /// Runs Algorithm 1 on the training queries.
  Status Train(const std::vector<const QueryRecord*>& queries);

  /// Predicted end-to-end latency: operator composition with plan-level
  /// overrides wherever a materialized sub-plan model matches (topmost
  /// match wins).
  double PredictQuery(const QueryRecord& query, FeatureMode mode) const;

  const OperatorModelSet& operator_models() const { return op_models_; }
  const std::map<std::string, PlanLevelModel>& plan_models() const {
    return plan_models_;
  }
  /// Per-iteration training errors (Figure 8's series).
  const std::vector<HybridIteration>& history() const { return history_; }
  /// Training error before any plan-level model was added.
  double initial_error() const { return initial_error_; }
  /// Final training error.
  double final_error() const { return final_error_; }

  /// Multi-line text serialization of the trained stack (operator model set
  /// plus every kept plan-level model, terminated by "=== endhybrid").
  /// Training history is not persisted; errors are, for inspection.
  std::string Serialize() const;

  /// Restores a stack persisted by Serialize(), for prediction (a loaded
  /// stack is never retrained, so no training configuration is restored).
  static Result<HybridModel> Deserialize(const std::string& text);

 private:
  /// Override hook substituting the kept plan-level models during
  /// operator composition.
  PredictionOverride MakeOverride(const QueryRecord& query,
                                  FeatureMode mode) const;

  /// Mean relative training error over `queries` under the current model
  /// stack, written to `*out`. Fails (instead of silently under-counting)
  /// when the thread pool reports a worker failure.
  Status EvaluateTrainingError(const std::vector<const QueryRecord*>& queries,
                               double* out) const;

  HybridConfig config_;
  OperatorModelSet op_models_;
  std::map<std::string, PlanLevelModel> plan_models_;
  std::vector<HybridIteration> history_;
  double initial_error_ = 0.0;
  double final_error_ = 0.0;
};

}  // namespace qpp
