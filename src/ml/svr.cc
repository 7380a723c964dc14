#include "ml/svr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <list>
#include <sstream>
#include <unordered_map>

#include "common/bundle.h"

namespace qpp {
namespace {

// Feature widths are validated once at Fit/Predict entry; by the time these
// run, both operands are known equal-length. The old std::min over the two
// sizes silently zero-padded width bugs away.
double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SqDist(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

/// \brief Bounded LRU cache of kernel-matrix rows, in the spirit of libsvm's
/// Cache: the dual solver touches a shrinking working set of rows as it
/// converges, so hot rows stay resident while the memory footprint is capped
/// (the old code materialized the full n x n matrix up front).
///
/// Rows are only *computed* for coordinates whose dual variable actually
/// moves; with the epsilon-insensitive loss most coordinates go quiet after
/// the first sweeps, so the row count evaluated is typically far below n.
class KernelRowCache {
 public:
  KernelRowCache(size_t n, size_t max_bytes)
      : capacity_rows_(std::max<size_t>(
            2, max_bytes / std::max<size_t>(1, n * sizeof(double)))) {}

  /// Returns the cached row for i, or null.
  const std::vector<double>* Get(size_t i) {
    auto it = index_.find(i);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return &it->second->row;
  }

  /// Inserts a freshly computed row (evicting the least recently used row
  /// when at capacity) and returns a pointer valid until the next Insert.
  const std::vector<double>* Insert(size_t i, std::vector<double> row) {
    if (lru_.size() >= capacity_rows_) {
      index_.erase(lru_.back().index);
      lru_.pop_back();
    }
    lru_.push_front(Entry{i, std::move(row)});
    index_[i] = lru_.begin();
    return &lru_.front().row;
  }

 private:
  struct Entry {
    size_t index;
    std::vector<double> row;
  };
  size_t capacity_rows_;
  std::list<Entry> lru_;
  std::unordered_map<size_t, std::list<Entry>::iterator> index_;
};

}  // namespace

double SvRegression::Kernel(const std::vector<double>& a,
                            const std::vector<double>& b) const {
  // +1 absorbs the bias term.
  if (config_.kernel == KernelType::kLinear) return Dot(a, b) + 1.0;
  return std::exp(-gamma_ * SqDist(a, b)) + 1.0;
}

std::vector<double> SvRegression::ScaleRow(const std::vector<double>& x) const {
  assert(x.size() == feat_min_.size());
  std::vector<double> out(feat_min_.size(), 0.0);
  for (size_t j = 0; j < feat_min_.size(); ++j) {
    out[j] = (x[j] - feat_min_[j]) / feat_range_[j];
  }
  return out;
}

Status SvRegression::Fit(const FeatureMatrix& x, const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("empty or mismatched training data");
  }
  const size_t n = x.size();
  const size_t d = x[0].size();
  for (const auto& row : x) {
    if (row.size() != d) return Status::InvalidArgument("ragged feature matrix");
  }
  gamma_ = config_.gamma > 0
               ? config_.gamma
               : 1.0 / static_cast<double>(std::max<size_t>(1, d));

  // Min-max scale features and target to [0, 1].
  feat_min_.assign(d, 0.0);
  feat_range_.assign(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    double lo = x[0][j], hi = x[0][j];
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, x[i][j]);
      hi = std::max(hi, x[i][j]);
    }
    feat_min_[j] = lo;
    feat_range_[j] = hi - lo > 1e-12 ? hi - lo : 1.0;
  }
  y_min_ = *std::min_element(y.begin(), y.end());
  const double y_max = *std::max_element(y.begin(), y.end());
  y_range_ = y_max - y_min_ > 1e-12 ? y_max - y_min_ : 1.0;

  FeatureMatrix xs(n);
  std::vector<double> ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = ScaleRow(x[i]);
    ys[i] = (y[i] - y_min_) / y_range_;
  }

  // The solver only ever reads the diagonal (cheap, precomputed) plus the
  // full row of a coordinate whose dual variable moves. Rows are computed
  // lazily and kept in a bounded LRU (libsvm's Cache strategy) instead of
  // materializing the n x n matrix: as the sweep converges, updates
  // concentrate on a small hot set of support-vector rows.
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = Kernel(xs[i], xs[i]);
  KernelRowCache cache(n, config_.kernel_cache_bytes);
  auto kernel_row = [&](size_t i) -> const std::vector<double>* {
    if (const std::vector<double>* row = cache.Get(i)) return row;
    std::vector<double> row(n);
    for (size_t j = 0; j < n; ++j) row[j] = Kernel(xs[i], xs[j]);
    return cache.Insert(i, std::move(row));
  };

  // Cyclic coordinate descent on the bias-absorbed dual:
  //   min 0.5 b'Kb - b'y + eps*|b|_1,  |b_i| <= C,
  // until no sweep moves a dual variable by kTolerance or more.
  constexpr double kTolerance = 1e-5;
  std::vector<double> beta(n, 0.0);
  std::vector<double> kb(n, 0.0);  // K * beta
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double kii = diag[i];
      if (kii <= 0) continue;
      // Residual with beta_i removed.
      const double r = ys[i] - (kb[i] - kii * beta[i]);
      // Soft threshold by epsilon, then clip to the box.
      double nb = 0.0;
      if (r > config_.epsilon) {
        nb = (r - config_.epsilon) / kii;
      } else if (r < -config_.epsilon) {
        nb = (r + config_.epsilon) / kii;
      }
      nb = std::clamp(nb, -config_.c, config_.c);
      const double delta = nb - beta[i];
      if (delta != 0.0) {
        const std::vector<double>& row = *kernel_row(i);
        for (size_t j = 0; j < n; ++j) kb[j] += delta * row[j];
        beta[i] = nb;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < kTolerance) break;
  }

  support_.clear();
  beta_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(beta[i]) > 1e-12) {
      support_.push_back(xs[i]);
      beta_.push_back(beta[i]);
    }
  }
  fitted_ = true;
  return Status::OK();
}

double SvRegression::Predict(const std::vector<double>& x) const {
  // Width is validated here once (Fit enforces it on the training side);
  // in release builds a mismatched row degrades to the target floor rather
  // than reading out of bounds or silently zero-padding.
  assert(x.size() == feat_min_.size() && "SVR predict width != training width");
  if (x.size() != feat_min_.size()) return y_min_;
  const std::vector<double> xs = ScaleRow(x);
  double f = 0.0;
  for (size_t i = 0; i < support_.size(); ++i) {
    f += beta_[i] * Kernel(support_[i], xs);
  }
  // Far from every support vector the RBF terms vanish and only the
  // absorbed-bias contribution (sum of betas) remains, which is not anchored
  // the way libsvm's explicit bias is. Clamp to one target-range beyond the
  // observed targets — matching the bounded extrapolation of a proper
  // epsilon-SVR — instead of letting unsupported extrapolations run away.
  f = std::clamp(f, -1.0, 2.0);
  return f * y_range_ + y_min_;
}

int SvRegression::num_support_vectors() const {
  return static_cast<int>(support_.size());
}

std::string SvRegression::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "svr|" << static_cast<int>(config_.kernel) << "|" << config_.c << "|"
      << config_.epsilon << "|" << gamma_ << "|" << y_min_ << "|" << y_range_
      << "|" << feat_min_.size() << "|" << support_.size();
  for (double v : feat_min_) out << "|" << v;
  for (double v : feat_range_) out << "|" << v;
  for (size_t i = 0; i < support_.size(); ++i) {
    out << "|" << beta_[i];
    for (double v : support_[i]) out << "|" << v;
  }
  return out.str();
}

Result<std::unique_ptr<RegressionModel>> SvRegression::Deserialize(
    const std::vector<std::string>& fields) {
  if (fields.size() < 9) return Status::InvalidArgument("bad svr payload");
  QPP_ASSIGN_OR_RETURN(const uint64_t kernel, ParseU64(fields[1], "svr kernel"));
  if (kernel > static_cast<uint64_t>(KernelType::kLinear)) {
    return Status::InvalidArgument("bad svr kernel " + fields[1]);
  }
  SvrConfig cfg;
  cfg.kernel = static_cast<KernelType>(kernel);
  QPP_ASSIGN_OR_RETURN(cfg.c, ParseDouble(fields[2], "svr c"));
  QPP_ASSIGN_OR_RETURN(cfg.epsilon, ParseDouble(fields[3], "svr epsilon"));
  auto model = std::make_unique<SvRegression>(cfg);
  QPP_ASSIGN_OR_RETURN(model->gamma_, ParseDouble(fields[4], "svr gamma"));
  QPP_ASSIGN_OR_RETURN(model->y_min_, ParseDouble(fields[5], "svr y_min"));
  QPP_ASSIGN_OR_RETURN(model->y_range_, ParseDouble(fields[6], "svr y_range"));
  QPP_ASSIGN_OR_RETURN(const uint64_t d, ParseU64(fields[7], "svr width"));
  QPP_ASSIGN_OR_RETURN(const uint64_t sv, ParseU64(fields[8], "svr count"));
  // Bounded by the field count first, so the product cannot wrap.
  if (d > fields.size() || sv > fields.size() ||
      fields.size() != 9 + 2 * d + sv * (1 + d)) {
    return Status::InvalidArgument("bad svr payload size");
  }
  size_t pos = 9;
  const auto next = [&fields, &pos] {
    return ParseDouble(fields[pos++], "svr value");
  };
  model->feat_min_.resize(d);
  for (double& x : model->feat_min_) {
    QPP_ASSIGN_OR_RETURN(x, next());
  }
  model->feat_range_.resize(d);
  for (double& x : model->feat_range_) {
    QPP_ASSIGN_OR_RETURN(x, next());
  }
  model->support_.assign(sv, std::vector<double>(d));
  model->beta_.resize(sv);
  for (size_t i = 0; i < sv; ++i) {
    QPP_ASSIGN_OR_RETURN(model->beta_[i], next());
    for (double& x : model->support_[i]) {
      QPP_ASSIGN_OR_RETURN(x, next());
    }
  }
  model->fitted_ = true;
  return std::unique_ptr<RegressionModel>(std::move(model));
}

}  // namespace qpp
