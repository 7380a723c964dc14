#include "ml/validation.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/stats.h"

namespace qpp {

std::vector<Fold> KFold(size_t n, int k, Rng* rng) {
  k = std::max(2, std::min<int>(k, static_cast<int>(n)));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (rng != nullptr) rng->Shuffle(&order);
  std::vector<Fold> folds(static_cast<size_t>(k));
  std::vector<size_t> fold_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t f = i % static_cast<size_t>(k);
    folds[f].test.push_back(order[i]);
    fold_of[order[i]] = f;
  }
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t i = 0; i < n; ++i) {
      if (fold_of[i] != f) folds[f].train.push_back(i);
    }
  }
  return folds;
}

std::vector<Fold> StratifiedKFold(const std::vector<int>& strata, int k,
                                  Rng* rng) {
  const size_t n = strata.size();
  k = std::max(2, std::min<int>(k, static_cast<int>(n)));
  std::map<int, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) groups[strata[i]].push_back(i);

  std::vector<std::vector<size_t>> test_sets(static_cast<size_t>(k));
  for (auto& [stratum, members] : groups) {
    if (rng != nullptr) rng->Shuffle(&members);
    for (size_t i = 0; i < members.size(); ++i) {
      test_sets[i % static_cast<size_t>(k)].push_back(members[i]);
    }
  }
  std::vector<Fold> folds(static_cast<size_t>(k));
  for (int f = 0; f < k; ++f) {
    folds[static_cast<size_t>(f)].test = test_sets[static_cast<size_t>(f)];
    std::vector<bool> in_test(n, false);
    for (size_t idx : test_sets[static_cast<size_t>(f)]) in_test[idx] = true;
    for (size_t i = 0; i < n; ++i) {
      if (!in_test[i]) folds[static_cast<size_t>(f)].train.push_back(i);
    }
  }
  return folds;
}

Result<CvResult> CrossValidate(const RegressionModel& prototype,
                               const FeatureMatrix& x,
                               const std::vector<double>& y,
                               const std::vector<Fold>& folds,
                               ThreadPool* pool) {
  if (x.size() != y.size() || x.empty()) {
    return Status::InvalidArgument("empty or mismatched data");
  }
  if (pool == nullptr) pool = ThreadPool::Global();

  // Each fold trains a private clone and writes only its own slot; the
  // aggregation below happens on this thread in fold order, so the result is
  // independent of scheduling.
  std::vector<std::vector<double>> fold_preds(folds.size());
  Status st = pool->ParallelFor(folds.size(), [&](size_t f) {
    const Fold& fold = folds[f];
    if (fold.train.empty() || fold.test.empty()) return Status::OK();
    FeatureMatrix train_x;
    std::vector<double> train_y;
    train_x.reserve(fold.train.size());
    train_y.reserve(fold.train.size());
    for (size_t idx : fold.train) {
      train_x.push_back(x[idx]);
      train_y.push_back(y[idx]);
    }
    std::unique_ptr<RegressionModel> model = prototype.CloneUntrained();
    QPP_RETURN_NOT_OK(model->Fit(train_x, train_y));
    fold_preds[f].reserve(fold.test.size());
    for (size_t idx : fold.test) {
      fold_preds[f].push_back(model->Predict(x[idx]));
    }
    return Status::OK();
  });
  QPP_RETURN_NOT_OK(st);

  CvResult result;
  result.predictions.assign(x.size(), 0.0);
  std::vector<double> actuals, estimates;
  for (size_t f = 0; f < folds.size(); ++f) {
    const Fold& fold = folds[f];
    if (fold.train.empty() || fold.test.empty()) continue;
    for (size_t t = 0; t < fold.test.size(); ++t) {
      const size_t idx = fold.test[t];
      const double pred = fold_preds[f][t];
      result.predictions[idx] = pred;
      actuals.push_back(y[idx]);
      estimates.push_back(pred);
    }
  }
  if (actuals.empty()) return Status::InvalidArgument("folds tested nothing");
  result.mean_relative_error = MeanRelativeError(actuals, estimates);
  return result;
}

}  // namespace qpp
