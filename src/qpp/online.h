#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ordered_mutex.h"
#include "qpp/hybrid.h"

namespace qpp {

/// \brief Online model building (Section 4): when a query with an unforeseen
/// plan arrives, enumerate the sub-plans of *its* plan, build plan-level
/// models on the fly for those with enough occurrences in the training data,
/// and use each such model only when its estimated accuracy beats the
/// operator-level prediction on the same occurrences.
///
/// Built models are cached by structural key, so later queries sharing
/// sub-plans pay nothing — the "custom model" cost is incurred once.
///
/// PredictQuery is const and thread-safe: the model cache is an internal
/// detail guarded by a mutex, so immutable predictor snapshots can be served
/// concurrently (see serve/registry.h). Model *training* runs outside the
/// lock (training calls into ThreadPool::ParallelFor, and blocking on the
/// pool while holding the cache lock would stall every concurrent
/// prediction -- the qpp_concur blocking-under-lock rule). "Built exactly
/// once per structure" is kept by a building-key set: the first thread to
/// claim a key trains it unlocked while others wait on a condition
/// variable, and training reads only construction-time-immutable state, so
/// results stay bit-identical under any interleaving.
class OnlinePredictor {
 public:
  /// `training` must outlive the predictor. `op_models` are the pre-built
  /// operator-level models (always available immediately, giving the
  /// progressive-prediction behaviour the paper describes). Sub-plan models
  /// each cover one plan structure, as HybridModel::Train builds them.
  OnlinePredictor(std::vector<const QueryRecord*> training,
                  const OperatorModelSet* op_models, int min_occurrences = 10);

  /// Prediction for a (possibly unforeseen) query, building sub-plan models
  /// online as needed.
  double PredictQuery(const QueryRecord& query, FeatureMode mode) const;

  /// Number of plan-level models built so far (cached across queries).
  int models_built() const;

  /// Re-points the operator-model set. Needed when the owner holding both
  /// this predictor and the (by-value) model set is moved: the set's address
  /// changes with the move, the cached training data does not.
  void set_op_models(const OperatorModelSet* op_models) {
    op_models_ = op_models;
  }

 private:
  /// Ensures cache_ has an entry (model or nullopt) for `key`, training and
  /// gating it on first request. Takes mu_ itself; the train step runs with
  /// mu_ released while `key` is parked in building_.
  void EnsureBuilt(const std::string& key) const;

  std::vector<const QueryRecord*> training_;
  const OperatorModelSet* op_models_;
  PlanModelConfig plan_config_;
  int min_occurrences_;
  /// Occurrence index over the training data (immutable after construction).
  std::map<std::string, std::vector<PlanOccurrence>> occurrences_;

  mutable OrderedMutex mu_;
  /// Cache: key -> accepted model, or nullopt when building was attempted
  /// and rejected. Guarded by mu_.
  mutable std::map<std::string, std::optional<PlanLevelModel>> cache_;
  /// Keys whose first build is in flight on some thread (guarded by mu_);
  /// build_cv_ signals every insertion into cache_.
  mutable std::set<std::string> building_;
  mutable OrderedCv build_cv_;
  mutable int models_built_ = 0;
};

}  // namespace qpp
