#include "qpp/online.h"

#include "common/stats.h"
#include "ml/svr.h"
#include "ml/validation.h"

namespace qpp {
namespace {

/// The gate's accuracy estimate (Section 4): kCvFolds-fold CV of the
/// sub-plan model, over folds seeded with kCvSeed.
constexpr int kCvFolds = 5;
constexpr uint64_t kCvSeed = 17 ^ 0xBEEF;

}  // namespace

OnlinePredictor::OnlinePredictor(QueryLog training, HybridModel operators,
                                 int min_occurrences)
    : training_(std::move(training)),
      operators_(std::move(operators)),
      min_occurrences_(min_occurrences) {
  plan_config_.require_same_key = true;
  for (const QueryRecord& q : training_.queries) {
    for (size_t i = 0; i < q.ops.size(); ++i) {
      const OperatorRecord& op = q.ops[i];
      if (op.subtree_size < 2 || !op.actual.valid) continue;
      occurrences_[op.structural_key].push_back({&q, static_cast<int>(i)});
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

  // Estimate and fit with mu_ released: CrossValidate and Train fan out
  // over ThreadPool::ParallelFor, and blocking on the pool under the cache
  // lock would stall concurrent predictions (qpp_concur:
  // blocking-under-lock). Everything read below -- occurrences_,
  // operators_, plan_config_ -- is immutable after construction, so the
  // result is bit-identical no matter which thread wins the key.
  lock.unlock();
  const std::vector<PlanOccurrence>& occurrences = occ_it->second;
  const OperatorModelSet& op_models = operators_.operator_models();

  // Operator-level baseline error on these training occurrences.
  double op_err = 0.0;
  size_t n = 0;
  for (const PlanOccurrence& occ : occurrences) {
    const OperatorRecord& op = occ.query->ops[static_cast<size_t>(occ.op_index)];
    if (op.actual.run_time_ms <= 0) continue;
    const TimePrediction pred = op_models.PredictSubplan(
        *occ.query, occ.op_index, plan_config_.feature_mode);
    // run_time_ms > 0 was checked above, so the relative error is defined.
    op_err += *RelativeError(op.actual.run_time_ms, pred.run_ms);
    ++n;
  }
  op_err = n == 0 ? 1e300 : op_err / static_cast<double>(n);

  // The sub-plan model's estimated accuracy, over the rows Train fits.
  FeatureMatrix x;
  std::vector<double> y;
  BuildPlanTrainingSet(occurrences, plan_config_.feature_mode, &x, &y);
  Rng rng(kCvSeed);
  const Result<CvResult> cv =
      CrossValidate(SvRegression(), x, y, KFold(x.size(), kCvFolds, &rng));
  // Gate: fit and keep the model only when its estimated accuracy beats the
  // operator-level prediction for this plan structure (Section 4).
  std::optional<PlanLevelModel> accepted;
  if (cv.ok() && cv->mean_relative_error < op_err) {
    PlanLevelModel model(plan_config_);
    if (model.Train(occurrences).ok()) accepted = std::move(model);
  }

  lock.lock();
  ++models_built_;
  cache_[key] = std::move(accepted);
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
  return operators_.operator_models().PredictQuery(query, mode, override_fn);
}

}  // namespace qpp
