#pragma once

#include "ml/model.h"

namespace qpp {

/// Kernel families for SVR.
enum class KernelType { kRbf, kLinear };

/// Hyperparameters for support-vector regression.
struct SvrConfig {
  KernelType kernel = KernelType::kRbf;
  /// Box constraint on dual coefficients.
  double c = 100.0;
  /// Epsilon-insensitive tube width, on the [0,1]-scaled target.
  double epsilon = 0.005;
  /// RBF width over [0,1]-scaled features; <= 0 means 1/num_features
  /// (libsvm's default, too smooth for this feature count in practice).
  double gamma = 0.5;
  /// Coordinate-descent sweeps over the dual (fewer once the largest dual
  /// update of a sweep falls below svr.cc's kTolerance).
  int max_iterations = 300;
  /// Budget for the LRU kernel-row cache used during training (libsvm's
  /// cache_size, here in bytes). Rows of the kernel matrix are computed
  /// lazily and evicted least-recently-used beyond this bound, so training
  /// memory stays O(cache) instead of O(n^2).
  size_t kernel_cache_bytes = 8u << 20;
};

/// \brief Epsilon-insensitive support-vector regression with RBF or linear
/// kernel, trained by cyclic coordinate descent on the dual.
///
/// This stands in for the nu-SVR the paper uses from libsvm (DESIGN.md
/// documents the substitution): both solve the same epsilon-insensitive
/// kernel regression problem, nu-SVR merely reparameterizes the tube width.
/// The bias term is absorbed into the kernel (K + 1), which removes the
/// equality constraint from the dual and keeps the solver simple and
/// deterministic. Features and the target are min-max scaled internally,
/// matching libsvm practice.
class SvRegression : public RegressionModel {
 public:
  SvRegression() : SvRegression(SvrConfig{}) {}
  explicit SvRegression(SvrConfig config) : config_(config) {}

  Status Fit(const FeatureMatrix& x, const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  size_t width() const override { return feat_min_.size(); }
  ModelType type() const override { return ModelType::kSvr; }
  std::string Serialize() const override;
  std::unique_ptr<RegressionModel> CloneUntrained() const override {
    return std::make_unique<SvRegression>(config_);
  }

  /// Number of support vectors (samples with non-zero dual coefficient).
  int num_support_vectors() const;
  bool fitted() const { return fitted_; }
  const SvrConfig& config() const { return config_; }

  static Result<std::unique_ptr<RegressionModel>> Deserialize(
      const std::vector<std::string>& fields);

 private:
  double Kernel(const std::vector<double>& a, const std::vector<double>& b) const;
  std::vector<double> ScaleRow(const std::vector<double>& x) const;

  SvrConfig config_;
  bool fitted_ = false;
  double gamma_ = 1.0;
  std::vector<double> feat_min_, feat_range_;
  double y_min_ = 0.0, y_range_ = 1.0;
  FeatureMatrix support_;       // scaled training rows with beta != 0
  std::vector<double> beta_;    // dual coefficients for support_
};

}  // namespace qpp
