#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace qpp {

/// Feature matrix: one row per sample.
using FeatureMatrix = std::vector<std::vector<double>>;

/// Supported regression model families (the paper uses linear regression for
/// operator-level models and SVM regression for plan-level models).
enum class ModelType {
  kLinearRegression,
  kSvr,
};

const char* ModelTypeName(ModelType t);

/// \brief Common interface of the regression models used for QPP.
///
/// Models are value-like: Fit() then Predict(); Serialize()/Deserialize()
/// support the paper's model materialization (pre-built models stored for
/// later predictions).
class RegressionModel {
 public:
  virtual ~RegressionModel() = default;

  /// Trains on X (n x d) and targets y (n). Fails on empty or ragged input.
  virtual Status Fit(const FeatureMatrix& x, const std::vector<double>& y) = 0;

  /// Predicts one sample (dimension must match training).
  virtual double Predict(const std::vector<double>& x) const = 0;

  /// Number of input features the model was fit (or loaded) with.
  virtual size_t width() const = 0;

  virtual ModelType type() const = 0;

  /// Text serialization (single line, '|'-separated).
  virtual std::string Serialize() const = 0;

  /// Fresh, untrained model of the same type and hyperparameters.
  virtual std::unique_ptr<RegressionModel> CloneUntrained() const = 0;
};

/// Restores a model from its Serialize() output.
Result<std::unique_ptr<RegressionModel>> DeserializeModel(
    const std::string& text);

}  // namespace qpp
