#pragma once

#include "ml/model.h"

namespace qpp {

/// \brief Ridge-regularized linear least squares with intercept.
///
/// This is the model family the paper uses for operator-level start-time /
/// run-time models (via the Shark library there). Features are standardized
/// internally for numerical stability; the normal equations are solved by
/// Cholesky factorization with a small ridge term.
class LinearRegression : public RegressionModel {
 public:
  explicit LinearRegression(double ridge_lambda = 1e-6)
      : lambda_(ridge_lambda) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  size_t width() const override { return coef_.size(); }
  ModelType type() const override { return ModelType::kLinearRegression; }
  std::string Serialize() const override;
  std::unique_ptr<RegressionModel> CloneUntrained() const override {
    return std::make_unique<LinearRegression>(lambda_);
  }

  /// Coefficients in original (unstandardized) feature space.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  bool fitted() const { return fitted_; }

  static Result<std::unique_ptr<RegressionModel>> Deserialize(
      const std::vector<std::string>& fields);

 private:
  double lambda_;
  bool fitted_ = false;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

/// Solves A x = b for symmetric positive-definite A (row-major n x n) via
/// Cholesky; returns false if the factorization fails.
bool CholeskySolve(std::vector<double> a, std::vector<double> b, int n,
                   std::vector<double>* x);

}  // namespace qpp
