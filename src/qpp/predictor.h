#pragma once

#include <memory>
#include <string>

#include "qpp/hybrid.h"
#include "qpp/online.h"
#include "workload/query_log.h"

namespace qpp {

/// The QPP approaches studied by the paper, plus the optimizer-cost
/// baseline of Section 5.2.
enum class PredictionMethod {
  /// Linear regression on the optimizer's total cost estimate (the
  /// "analytical cost models are poor latency predictors" baseline).
  kOptimizerCost,
  /// One global plan-level SVR model (Section 3.1).
  kPlanLevel,
  /// Per-operator-type composed models (Section 3.2).
  kOperatorLevel,
  /// Operator models plus offline-selected plan-level models (Section 3.4).
  kHybrid,
  /// Hybrid with plan-level models built online per incoming query
  /// (Section 4).
  kOnline,
};

const char* PredictionMethodName(PredictionMethod m);

/// Top-level configuration.
struct PredictorConfig {
  PredictionMethod method = PredictionMethod::kHybrid;
  /// Feature values used at prediction time.
  FeatureMode feature_mode = FeatureMode::kEstimate;
  /// Settings for the underlying model stacks.
  HybridConfig hybrid;
};

/// \brief Public façade over the QPP model stacks: train once on an
/// executed-workload log, then predict latency for new plans from their
/// static (EXPLAIN-visible) features.
///
/// Usage:
///   QueryPerformancePredictor predictor(config);
///   predictor.Train(training_log);
///   double ms = *predictor.PredictLatencyMs(record_of_new_plan);
///
/// PredictLatencyMs is const and safe to call from multiple threads on a
/// predictor that is no longer being mutated (Train/LoadModelsFromText
/// complete); the serving layer (serve/registry.h) relies on exactly this
/// to share immutable predictor snapshots across request threads.
class QueryPerformancePredictor {
 public:
  QueryPerformancePredictor() = default;
  explicit QueryPerformancePredictor(PredictorConfig config)
      : config_(config) {}

  /// Movable, not copyable. The move is member-wise except that the online
  /// builder's pointer to the (by-value) operator-model set is re-pointed at
  /// the destination; pointers into the training log survive the move of
  /// the vector's heap buffer as-is.
  QueryPerformancePredictor(QueryPerformancePredictor&& other) noexcept;
  QueryPerformancePredictor& operator=(
      QueryPerformancePredictor&& other) noexcept;
  QueryPerformancePredictor(const QueryPerformancePredictor&) = delete;
  QueryPerformancePredictor& operator=(const QueryPerformancePredictor&) =
      delete;

  /// Trains the configured model stack. The log is copied; the predictor is
  /// self-contained afterwards.
  Status Train(const QueryLog& log);

  /// Predicted execution latency in ms for a query described by its
  /// operator records (estimates suffice; actuals are not read in
  /// kEstimate mode).
  Result<double> PredictLatencyMs(const QueryRecord& query) const;

  bool trained() const { return trained_; }
  const PredictorConfig& config() const { return config_; }

  /// Underlying hybrid stack (operator + plan models), for inspection.
  const HybridModel& hybrid() const { return hybrid_; }

  /// Serializes the materialized models to text, the payload of the
  /// checksummed bundle serve::SaveModelBundle writes (paper Sec. 3's
  /// materialization). Every method is supported; kOnline persists its
  /// operator models plus the training log, from which sub-plan models are
  /// rebuilt deterministically on demand after loading.
  Result<std::string> SerializeModels() const;

  /// Restores models from SerializeModels() output. `source_name` labels
  /// parse errors (a file path, "<memory>", ...). A malformed payload is an
  /// error, never an exception.
  Status LoadModelsFromText(const std::string& text,
                            const std::string& source_name = "<memory>");

 private:
  PredictorConfig config_;
  bool trained_ = false;
  QueryLog training_log_;
  std::vector<const QueryRecord*> training_refs_;
  HybridModel hybrid_;
  PlanLevelModel global_plan_model_;
  /// Linear model on the optimizer's cost estimate (kOptimizerCost).
  std::unique_ptr<RegressionModel> cost_baseline_;
  std::unique_ptr<OnlinePredictor> online_;
};

}  // namespace qpp
