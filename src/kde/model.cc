#include "kde/model.h"

#include <algorithm>
#include <cmath>

namespace qpp::kde {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;
constexpr double kInvSqrt2Pi = 0.3989422804014327;

/// Standard normal CDF.
double Phi(double z) { return 0.5 * std::erfc(-z / kSqrt2); }

/// Standard normal density.
double phi(double z) { return kInvSqrt2Pi * std::exp(-0.5 * z * z); }

/// One constrained dimension of an evaluation, resolved against the sample.
struct Dim {
  size_t col = 0;
  double lo = 0.0;
  double hi = 0.0;
  bool has_lo = false;
  bool has_hi = false;
};

/// Resolves the bounds' constrained columns to sample column indices with
/// equality pins widened to the unit interval. Returns false when a column
/// is missing from the sample (the estimator must decline rather than
/// silently skip part of the predicate).
bool ResolveDims(const TableSample& sample, const PredicateBounds& bounds,
                 std::vector<Dim>* dims) {
  for (const ColumnBound& b : bounds.columns) {
    const int col = sample.ColumnIndex(b.column);
    if (col < 0) return false;
    Dim d;
    d.col = static_cast<size_t>(col);
    if (b.is_equality) {
      d.lo = b.lo - 0.5;
      d.hi = b.hi + 0.5;
      d.has_lo = d.has_hi = true;
    } else {
      d.lo = b.lo;
      d.hi = b.hi;
      d.has_lo = b.has_lo;
      d.has_hi = b.has_hi;
    }
    dims->push_back(d);
  }
  return true;
}

/// Per-row interval mass under the Gaussian kernel centred at x:
/// F = Φ((hi−x)/h) − Φ((lo−x)/h), with absent endpoints at ±∞.
double IntervalMass(const Dim& d, double x, double h) {
  const double upper = d.has_hi ? Phi((d.hi - x) / h) : 1.0;
  const double lower = d.has_lo ? Phi((d.lo - x) / h) : 0.0;
  return std::max(0.0, upper - lower);
}

/// ∂F/∂h of the interval mass above (the z φ(z) terms).
double IntervalMassBandwidthGrad(const Dim& d, double x, double h) {
  double g = 0.0;
  if (d.has_hi) {
    const double z = (d.hi - x) / h;
    g -= z * phi(z) / h;
  }
  if (d.has_lo) {
    const double z = (d.lo - x) / h;
    g += z * phi(z) / h;
  }
  return g;
}

}  // namespace

std::vector<double> DefaultBandwidths(const TableSample& sample) {
  const size_t ncols = sample.columns.size();
  const size_t n = sample.rows();
  std::vector<double> bandwidths(ncols, 1.0);
  if (n == 0) return bandwidths;
  // Scott's factor with D = the table's full dimensionality (queries
  // constrain a subset, but one factor keeps bandwidths comparable across
  // predicates; feedback tuning corrects the rest).
  const double factor =
      std::pow(static_cast<double>(n),
               -1.0 / (static_cast<double>(ncols) + 4.0));
  for (size_t c = 0; c < ncols; ++c) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) sum += sample.at(r, c);
    const double mean = sum / static_cast<double>(n);
    double var = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double d = sample.at(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const double sigma = std::sqrt(std::max(0.0, var));
    // Floor keeps zero-variance columns usable as near-delta kernels.
    bandwidths[c] = std::max(sigma * factor, 1e-3);
  }
  return bandwidths;
}

std::optional<double> KdeSelectivity(const TableSample& sample,
                                     const std::vector<double>& bandwidths,
                                     const PredicateBounds& bounds) {
  if (bandwidths.size() != sample.columns.size()) return std::nullopt;
  std::vector<Dim> dims;
  if (!ResolveDims(sample, bounds, &dims) || dims.empty()) {
    return std::nullopt;
  }
  const size_t n = sample.rows();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    double p = 1.0;
    for (const Dim& d : dims) {
      p *= IntervalMass(d, sample.at(r, d.col), bandwidths[d.col]);
      if (p == 0.0) break;
    }
    sum += p;
  }
  return std::clamp(sum / static_cast<double>(n), 0.0, 1.0);
}

bool UpdateBandwidths(const TableSample& sample, const PredicateBounds& bounds,
                      double actual_rows, std::vector<double>* bandwidths) {
  if (bandwidths->size() != sample.columns.size()) return false;
  std::vector<Dim> dims;
  if (!ResolveDims(sample, bounds, &dims) || dims.empty()) return false;
  const size_t n = sample.rows();
  if (n == 0) return false;
  const double table_rows = std::max(1.0, sample.table_rows);
  const double s_star =
      std::clamp(std::max(0.0, actual_rows) / table_rows, 0.0, 1.0);

  // Forward pass with per-dimension leave-one-out products (D is the number
  // of constrained dims — small — so the D² inner loop stays cheap).
  const size_t nd = dims.size();
  std::vector<double> grad(nd, 0.0);  // ∂ŝ/∂h_d
  std::vector<double> mass(nd, 0.0);
  double s_hat = 0.0;
  for (size_t r = 0; r < n; ++r) {
    double p = 1.0;
    for (size_t d = 0; d < nd; ++d) {
      mass[d] = IntervalMass(dims[d], sample.at(r, dims[d].col),
                             (*bandwidths)[dims[d].col]);
      p *= mass[d];
    }
    s_hat += p;
    for (size_t d = 0; d < nd; ++d) {
      double others = 1.0;
      for (size_t k = 0; k < nd; ++k) {
        if (k != d) others *= mass[k];
      }
      grad[d] += others *
                 IntervalMassBandwidthGrad(dims[d], sample.at(r, dims[d].col),
                                           (*bandwidths)[dims[d].col]);
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  s_hat *= inv_n;
  // ε of the loss: keeps empty results and zero-mass estimates finite.
  constexpr double kLogFloor = 1e-6;
  // Step size on ∂L/∂log h, and the per-step clamp on |Δlog h|: one
  // pathological observation cannot move a bandwidth by more than e^±0.25.
  constexpr double kLearningRate = 0.05;
  constexpr double kMaxLogStep = 0.25;
  // Hard bandwidth floor/ceiling after every update.
  constexpr double kMinBandwidth = 1e-6;
  constexpr double kMaxBandwidth = 1e15;
  const double err = std::log(s_hat + kLogFloor) - std::log(s_star + kLogFloor);

  for (size_t d = 0; d < nd; ++d) {
    const size_t col = dims[d].col;
    const double h = (*bandwidths)[col];
    const double dl_dlogh =
        2.0 * err * h * (grad[d] * inv_n) / (s_hat + kLogFloor);
    double step = -kLearningRate * dl_dlogh;
    step = std::clamp(step, -kMaxLogStep, kMaxLogStep);
    (*bandwidths)[col] =
        std::clamp(h * std::exp(step), kMinBandwidth, kMaxBandwidth);
  }
  return true;
}

std::optional<double> KdeSnapshot::EstimateRows(
    const CardinalityQuery& query) const {
  const PredicateBounds* b = query.bounds;
  if (b == nullptr || !b->exhaustive || b->columns.empty()) {
    return std::nullopt;
  }
  const TableModel* model = Find(b->table);
  if (model == nullptr || model->sample == nullptr) return std::nullopt;
  const std::optional<double> sel =
      KdeSelectivity(*model->sample, model->bandwidths, *b);
  if (!sel.has_value()) return std::nullopt;
  return *sel * std::max(0.0, b->table_rows);
}

const KdeSnapshot::TableModel* KdeSnapshot::Find(
    const std::string& table) const {
  const auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second;
}

}  // namespace qpp::kde
