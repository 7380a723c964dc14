#pragma once

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/model.h"

namespace qpp {

/// One train/test split: indices into the original sample set.
struct Fold {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Plain K-fold split over n samples (shuffled).
std::vector<Fold> KFold(size_t n, int k, Rng* rng);

/// Stratified K-fold: each fold receives a roughly equal share of every
/// stratum (the paper stratifies by TPC-H template, Section 5.1).
std::vector<Fold> StratifiedKFold(const std::vector<int>& strata, int k,
                                  Rng* rng);

/// Result of a cross-validated evaluation.
struct CvResult {
  /// Mean relative error across all held-out predictions.
  double mean_relative_error = 0.0;
  /// Per-sample held-out predictions, aligned with the input order
  /// (0 for samples never tested, which cannot happen with proper folds).
  std::vector<double> predictions;
};

/// Trains a fresh clone of `prototype` on each fold's training part and
/// predicts its test part; the paper's accuracy-estimation procedure.
///
/// Folds train concurrently on `pool` (ThreadPool::Global() when null); each
/// fold's fit is self-contained and results are merged on the caller in fold
/// order, so predictions and the error are bit-identical at any thread count.
Result<CvResult> CrossValidate(const RegressionModel& prototype,
                               const FeatureMatrix& x,
                               const std::vector<double>& y,
                               const std::vector<Fold>& folds,
                               ThreadPool* pool = nullptr);

}  // namespace qpp
