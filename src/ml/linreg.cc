#include "ml/linreg.h"

#include <cassert>
#include <cmath>
#include <sstream>

#include "common/bundle.h"
#include "common/stats.h"

namespace qpp {

bool CholeskySolve(std::vector<double> a, std::vector<double> b, int n,
                   std::vector<double>* x) {
  // In-place Cholesky: a = L L^T (lower triangle).
  for (int j = 0; j < n; ++j) {
    double d = a[static_cast<size_t>(j * n + j)];
    for (int k = 0; k < j; ++k) {
      const double l = a[static_cast<size_t>(j * n + k)];
      d -= l * l;
    }
    if (d <= 0) return false;
    const double diag = std::sqrt(d);
    a[static_cast<size_t>(j * n + j)] = diag;
    for (int i = j + 1; i < n; ++i) {
      double s = a[static_cast<size_t>(i * n + j)];
      for (int k = 0; k < j; ++k) {
        s -= a[static_cast<size_t>(i * n + k)] * a[static_cast<size_t>(j * n + k)];
      }
      a[static_cast<size_t>(i * n + j)] = s / diag;
    }
  }
  // Forward substitution: L z = b.
  for (int i = 0; i < n; ++i) {
    double s = b[static_cast<size_t>(i)];
    for (int k = 0; k < i; ++k) {
      s -= a[static_cast<size_t>(i * n + k)] * b[static_cast<size_t>(k)];
    }
    b[static_cast<size_t>(i)] = s / a[static_cast<size_t>(i * n + i)];
  }
  // Back substitution: L^T x = z.
  x->assign(static_cast<size_t>(n), 0.0);
  for (int i = n - 1; i >= 0; --i) {
    double s = b[static_cast<size_t>(i)];
    for (int k = i + 1; k < n; ++k) {
      s -= a[static_cast<size_t>(k * n + i)] * (*x)[static_cast<size_t>(k)];
    }
    (*x)[static_cast<size_t>(i)] = s / a[static_cast<size_t>(i * n + i)];
  }
  return true;
}

Status LinearRegression::Fit(const FeatureMatrix& x,
                             const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("empty or mismatched training data");
  }
  const size_t n = x.size();
  const size_t d = x[0].size();
  for (const auto& row : x) {
    if (row.size() != d) return Status::InvalidArgument("ragged feature matrix");
  }

  // Standardize features.
  std::vector<double> mean(d, 0.0), scale(d, 1.0);
  for (size_t j = 0; j < d; ++j) {
    double m = 0;
    for (size_t i = 0; i < n; ++i) m += x[i][j];
    m /= static_cast<double>(n);
    double var = 0;
    for (size_t i = 0; i < n; ++i) var += (x[i][j] - m) * (x[i][j] - m);
    var /= static_cast<double>(n);
    mean[j] = m;
    scale[j] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  const double y_mean = Mean(y);

  // Normal equations over standardized, centered data (intercept drops out).
  const int dd = static_cast<int>(d);
  std::vector<double> xtx(d * d, 0.0), xty(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double xj = (x[i][j] - mean[j]) / scale[j];
      xty[j] += xj * (y[i] - y_mean);
      for (size_t k = j; k < d; ++k) {
        const double xk = (x[i][k] - mean[k]) / scale[k];
        xtx[j * d + k] += xj * xk;
      }
    }
  }
  // Ridge scaled by n keeps lambda meaningful across data sizes.
  const double ridge = lambda_ * static_cast<double>(n) + 1e-12;
  for (size_t j = 0; j < d; ++j) {
    for (size_t k = 0; k < j; ++k) xtx[j * d + k] = xtx[k * d + j];
    xtx[j * d + j] += ridge;
  }
  std::vector<double> beta;
  if (!CholeskySolve(std::move(xtx), std::move(xty), dd, &beta)) {
    return Status::Internal("singular normal equations");
  }

  // Map back to the original feature space.
  coef_.assign(d, 0.0);
  intercept_ = y_mean;
  for (size_t j = 0; j < d; ++j) {
    coef_[j] = beta[j] / scale[j];
    intercept_ -= coef_[j] * mean[j];
  }
  fitted_ = true;
  return Status::OK();
}

double LinearRegression::Predict(const std::vector<double>& x) const {
  // Width validated once at entry (mirrors SvRegression::Predict); the old
  // std::min over the two sizes silently truncated mismatched rows.
  assert(x.size() == coef_.size() && "linreg predict width != training width");
  if (x.size() != coef_.size()) return intercept_;
  double out = intercept_;
  for (size_t j = 0; j < coef_.size(); ++j) out += coef_[j] * x[j];
  return out;
}

std::string LinearRegression::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "linreg|" << lambda_ << "|" << intercept_ << "|" << coef_.size();
  for (double c : coef_) out << "|" << c;
  return out.str();
}

Result<std::unique_ptr<RegressionModel>> LinearRegression::Deserialize(
    const std::vector<std::string>& fields) {
  if (fields.size() < 4) return Status::InvalidArgument("bad linreg payload");
  QPP_ASSIGN_OR_RETURN(const double lambda,
                       ParseDouble(fields[1], "linreg lambda"));
  auto model = std::make_unique<LinearRegression>(lambda);
  QPP_ASSIGN_OR_RETURN(model->intercept_,
                       ParseDouble(fields[2], "linreg intercept"));
  QPP_ASSIGN_OR_RETURN(const uint64_t d, ParseU64(fields[3], "linreg width"));
  if (fields.size() - 4 != d) {
    return Status::InvalidArgument("bad linreg coefficient count");
  }
  model->coef_.resize(d);
  for (size_t j = 0; j < d; ++j) {
    QPP_ASSIGN_OR_RETURN(model->coef_[j],
                         ParseDouble(fields[4 + j], "linreg coefficient"));
  }
  model->fitted_ = true;
  return std::unique_ptr<RegressionModel>(std::move(model));
}

}  // namespace qpp
