#pragma once

#include <vector>

#include "common/rng.h"
#include "ml/model.h"
#include "ml/validation.h"

namespace qpp {

/// Seed of the fold streams forward feature selection draws; plan-level
/// models fork their own CV folds from it too.
constexpr uint64_t kFeatureSelectionSeed = 17;

/// Knobs of the forward feature selection search.
struct FeatureSelectionConfig {
  /// Cross-validation folds used to score candidate feature sets.
  int cv_folds = 3;
  /// Upper bound on selected features (<= 0 means no bound).
  int max_features = 0;
};

/// Outcome of feature selection.
struct FeatureSelectionResult {
  /// Indices of the chosen features, in selection order.
  std::vector<int> selected;
  /// CV mean relative error of the final feature set.
  double cv_error = 0.0;
};

/// \brief Forward feature selection (Section 2 of the paper): ranks
/// candidate features by absolute linear correlation with the target, then
/// best-first adds them in rank order, keeping a feature only when it
/// improves cross-validated error by more than kMinImprovement; stops after
/// kPatience consecutive rejections (both in feature_selection.cc).
///
/// Candidate evaluations run speculatively in parallel on `pool`
/// (ThreadPool::Global() when null): a batch of upcoming candidates is
/// cross-validated against the current feature set concurrently, then
/// accept/reject decisions replay serially in rank order; results computed
/// under a stale feature set (anything after an accepted candidate) are
/// discarded and re-evaluated. Every candidate draws folds from its own
/// pre-forked RNG stream, so the selected features, fold predictions, and
/// cv_error are bit-identical at any thread count.
Result<FeatureSelectionResult> ForwardFeatureSelection(
    const RegressionModel& prototype, const FeatureMatrix& x,
    const std::vector<double>& y, const FeatureSelectionConfig& config = {},
    ThreadPool* pool = nullptr);

/// Ranks feature indices by |Pearson correlation| with the target,
/// descending (exposed for tests and diagnostics).
std::vector<int> RankFeaturesByCorrelation(const FeatureMatrix& x,
                                           const std::vector<double>& y);

/// Projects a feature matrix onto the selected columns.
FeatureMatrix SelectColumns(const FeatureMatrix& x,
                            const std::vector<int>& columns);

/// Projects a single row onto the selected columns.
std::vector<double> SelectColumns(const std::vector<double>& row,
                                  const std::vector<int>& columns);

}  // namespace qpp
