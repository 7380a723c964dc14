#include "qpp/online.h"

#include "common/stats.h"

namespace qpp {

OnlinePredictor::OnlinePredictor(std::vector<const QueryRecord*> training,
                                 const OperatorModelSet* op_models,
                                 int min_occurrences)
    : training_(std::move(training)),
      op_models_(op_models),
      min_occurrences_(min_occurrences) {
  plan_config_.require_same_key = true;
  for (const QueryRecord* q : training_) {
    for (size_t i = 0; i < q->ops.size(); ++i) {
      const OperatorRecord& op = q->ops[i];
      if (op.subtree_size < 2 || !op.actual.valid) continue;
      occurrences_[op.structural_key].push_back({q, static_cast<int>(i)});
    }
  }
}

int OnlinePredictor::models_built() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return models_built_;
}

void OnlinePredictor::EnsureBuilt(const std::string& key) const {
  std::unique_lock<OrderedMutex> lock(mu_);
  for (;;) {
    if (cache_.find(key) != cache_.end()) return;
    if (building_.insert(key).second) break;
    // Another thread owns the first build of this key; its cache insert
    // (model or nullopt) is signalled on build_cv_.
    build_cv_.wait(lock);
  }
  auto occ_it = occurrences_.find(key);
  if (occ_it == occurrences_.end() ||
      static_cast<int>(occ_it->second.size()) < min_occurrences_) {
    cache_[key] = std::nullopt;
    building_.erase(key);
    build_cv_.notify_all();
    return;
  }

  // Train with mu_ released: Train fans out over ThreadPool::ParallelFor,
  // and blocking on the pool under the cache lock would stall concurrent
  // predictions (qpp_concur: blocking-under-lock). Everything read below --
  // occurrences_, op_models_, plan_config_ -- is immutable after
  // construction, so the result is bit-identical no matter which thread
  // wins the key.
  lock.unlock();

  // Operator-level baseline error on these training occurrences.
  double op_err = 0.0;
  size_t n = 0;
  for (const PlanOccurrence& occ : occ_it->second) {
    const OperatorRecord& op = occ.query->ops[static_cast<size_t>(occ.op_index)];
    if (op.actual.run_time_ms <= 0) continue;
    const TimePrediction pred = op_models_->PredictSubplan(
        *occ.query, occ.op_index, plan_config_.feature_mode);
    // run_time_ms > 0 was checked above, so the relative error is defined.
    op_err += *RelativeError(op.actual.run_time_ms, pred.run_ms);
    ++n;
  }
  op_err = n == 0 ? 1e300 : op_err / static_cast<double>(n);

  PlanLevelModel model(plan_config_);
  Status st = model.Train(occ_it->second);

  lock.lock();
  ++models_built_;
  // Gate: only accept models whose estimated accuracy beats the
  // operator-level prediction for this plan structure (Section 4).
  if (!st.ok() || model.cv_error() >= op_err) {
    cache_[key] = std::nullopt;
  } else {
    cache_.emplace(key, std::move(model));
  }
  building_.erase(key);
  build_cv_.notify_all();
}

double OnlinePredictor::PredictQuery(const QueryRecord& query,
                                     FeatureMode mode) const {
  // Build (or fetch) models for every sub-plan of this query first, so the
  // override below is a pure lookup under the lock.
  for (const OperatorRecord& op : query.ops) {
    if (op.subtree_size >= 2) EnsureBuilt(op.structural_key);
  }
  // The compose phase holds mu_ only for cache lookups; entries are
  // guaranteed present (built above) and std::map references are stable.
  std::lock_guard<OrderedMutex> lock(mu_);
  PredictionOverride override_fn = [this, &query, mode](int op_index,
                                                        TimePrediction* out) {
    auto cached =
        cache_.find(query.ops[static_cast<size_t>(op_index)].structural_key);
    if (cached == cache_.end() || !cached->second.has_value()) return false;
    *out = PlanModelTimePrediction(*cached->second, query, op_index, mode);
    return true;
  };
  return op_models_->PredictQuery(query, mode, override_fn);
}

}  // namespace qpp
