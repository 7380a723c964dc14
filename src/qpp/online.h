#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ordered_mutex.h"
#include "qpp/hybrid.h"
#include "workload/query_log.h"

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
/// concurrently (see serve/registry.h). Model *building* -- the accuracy
/// estimate and the fit -- runs outside the lock (both call into
/// ThreadPool::ParallelFor, and blocking on the pool while holding the cache
/// lock would stall every concurrent prediction -- the qpp_concur
/// blocking-under-lock rule). "Built exactly once per structure" is kept by
/// a building-key set: the first thread to claim a key builds it unlocked
/// while others wait on a condition variable, and building reads only
/// construction-time-immutable state, so results stay bit-identical under
/// any interleaving.
class OnlinePredictor {
 public:
  /// Owns both inputs. `training` is the log sub-plan models are built
  /// from. `operators` is the operator-level stack trained on it (a
  /// HybridModel with no plan models); it answers every query at once,
  /// giving the progressive-prediction behaviour the paper describes, and
  /// is what each sub-plan model must beat. Sub-plan models each cover one
  /// plan structure, as HybridModel::Train builds them.
  OnlinePredictor(QueryLog training, HybridModel operators,
                  int min_occurrences = 10);

  /// Prediction for a (possibly unforeseen) query, building sub-plan models
  /// online as needed.
  double PredictQuery(const QueryRecord& query, FeatureMode mode) const;

  /// Number of plan structures put through the gate so far, accepted or not
  /// (each once: the outcome is cached across queries).
  int models_built() const;

  /// What the predictor is rebuilt from (the kOnline model payload).
  const QueryLog& training() const { return training_; }
  const HybridModel& operators() const { return operators_; }
  int min_occurrences() const { return min_occurrences_; }

 private:
  /// Ensures cache_ has an entry (model or nullopt) for `key`, estimating,
  /// gating and fitting it on first request. Takes mu_ itself; that work
  /// runs with mu_ released while `key` is parked in building_.
  void EnsureBuilt(const std::string& key) const;

  const QueryLog training_;
  const HybridModel operators_;
  PlanModelConfig plan_config_;
  const int min_occurrences_;
  /// Occurrence index into training_ (immutable after construction).
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
