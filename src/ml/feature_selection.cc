#include "ml/feature_selection.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace qpp {

std::vector<int> RankFeaturesByCorrelation(const FeatureMatrix& x,
                                           const std::vector<double>& y) {
  if (x.empty()) return {};
  const size_t d = x[0].size();
  std::vector<std::pair<double, int>> scored;
  scored.reserve(d);
  std::vector<double> column(x.size());
  for (size_t j = 0; j < d; ++j) {
    for (size_t i = 0; i < x.size(); ++i) column[i] = x[i][j];
    scored.emplace_back(std::abs(PearsonCorrelation(column, y)),
                        static_cast<int>(j));
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int> out;
  out.reserve(d);
  for (const auto& [score, idx] : scored) out.push_back(idx);
  return out;
}

FeatureMatrix SelectColumns(const FeatureMatrix& x,
                            const std::vector<int>& columns) {
  FeatureMatrix out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(SelectColumns(row, columns));
  return out;
}

std::vector<double> SelectColumns(const std::vector<double>& row,
                                  const std::vector<int>& columns) {
  std::vector<double> out;
  out.reserve(columns.size());
  for (int c : columns) {
    out.push_back(c >= 0 && static_cast<size_t>(c) < row.size()
                      ? row[static_cast<size_t>(c)]
                      : 0.0);
  }
  return out;
}

Result<FeatureSelectionResult> ForwardFeatureSelection(
    const RegressionModel& prototype, const FeatureMatrix& x,
    const std::vector<double>& y, const FeatureSelectionConfig& config,
    ThreadPool* pool) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("empty or mismatched data");
  }
  if (pool == nullptr) pool = ThreadPool::Global();
  const std::vector<int> ranked = RankFeaturesByCorrelation(x, y);

  // One independent fold stream per candidate, forked up front so the fork
  // sequence (and hence every candidate's folds) is a pure function of the
  // seed and the candidate's rank — not of accept/reject history, batching,
  // or thread count. A candidate re-evaluated after a speculation miss reads
  // a *copy* of its stream and therefore sees the same folds again.
  Rng rng(kFeatureSelectionSeed);
  std::vector<Rng> candidate_rng;
  candidate_rng.reserve(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) candidate_rng.push_back(rng.Fork());
  Rng fallback_rng = rng.Fork();

  FeatureSelectionResult result;
  result.cv_error = 1e300;
  // A feature is accepted when it cuts CV error by more than
  // kMinImprovement; the search stops after kPatience straight rejections.
  constexpr double kMinImprovement = 1e-4;
  constexpr int kPatience = 3;
  int rejections = 0;

  // Evaluates candidate `i` (rank order) against the current selected set.
  auto evaluate = [&](size_t i, double* error) {
    std::vector<int> trial = result.selected;
    trial.push_back(ranked[i]);
    const FeatureMatrix projected = SelectColumns(x, trial);
    Rng fold_rng = candidate_rng[i];
    const auto folds = KFold(x.size(), config.cv_folds, &fold_rng);
    // Inner CV runs serially when this lands on a pool worker; the
    // cross-candidate fan-out below is the parallel axis here.
    auto cv = CrossValidate(prototype, projected, y, folds, pool);
    if (!cv.ok()) return cv.status();
    *error = cv->mean_relative_error;
    return Status::OK();
  };

  // Speculative greedy search: score a batch of upcoming candidates against
  // the current feature set in parallel, then replay decisions in rank
  // order. Only an *accepted* candidate invalidates the rest of its batch
  // (the feature set changed); rejections — the common case — keep the whole
  // batch valid, so decisions are identical to the one-at-a-time loop.
  size_t pos = 0;
  bool stop = false;
  while (!stop && pos < ranked.size()) {
    if (config.max_features > 0 &&
        static_cast<int>(result.selected.size()) >= config.max_features) {
      break;
    }
    const size_t batch =
        std::min(ranked.size() - pos,
                 std::max<size_t>(1, static_cast<size_t>(pool->num_threads())));
    std::vector<double> errors(batch, 0.0);
    std::vector<Status> eval_status(batch);
    QPP_RETURN_NOT_OK(pool->ParallelFor(batch, [&](size_t b) {
      eval_status[b] = evaluate(pos + b, &errors[b]);
      return Status::OK();
    }));

    bool accepted = false;
    for (size_t b = 0; b < batch; ++b) {
      // A failure at rank pos+b only counts once the replay actually reaches
      // it — an earlier accept in the batch discards it, exactly as the
      // one-at-a-time loop never would have evaluated it with this set.
      if (!eval_status[b].ok()) return eval_status[b];
      if (errors[b] + kMinImprovement < result.cv_error) {
        result.selected.push_back(ranked[pos + b]);
        result.cv_error = errors[b];
        rejections = 0;
        pos += b + 1;  // rest of the batch was scored against a stale set
        accepted = true;
        break;
      }
      if (++rejections >= kPatience) {
        stop = true;
        break;
      }
    }
    if (!accepted && !stop) pos += batch;
  }

  if (result.selected.empty()) {
    // Degenerate target (e.g. constant): keep the top-ranked feature so the
    // caller always has a usable model.
    result.selected.push_back(ranked.empty() ? 0 : ranked[0]);
    const FeatureMatrix projected = SelectColumns(x, result.selected);
    auto cv = CrossValidate(prototype, projected, y,
                            KFold(x.size(), config.cv_folds, &fallback_rng),
                            pool);
    if (cv.ok()) result.cv_error = cv->mean_relative_error;
  }
  return result;
}

}  // namespace qpp
