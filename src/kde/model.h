#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "kde/sample.h"
#include "optimizer/cardinality.h"
#include "plan/plan.h"

namespace qpp::kde {

/// Scott's rule-of-thumb per-column bandwidths for the sample:
/// h_d = max(σ_d · n^(−1/(D+4)), floor), with the floor keeping constant and
/// near-constant columns usable as (approximate) delta kernels.
std::vector<double> DefaultBandwidths(const TableSample& sample);

/// \brief Joint selectivity of the bounds under a product Gaussian kernel
/// over the sample:
///
///   ŝ = (1/n) Σ_i ∏_d [ Φ((hi_d − x_{i,d}) / h_d) − Φ((lo_d − x_{i,d}) / h_d) ]
///
/// where the product runs over the *constrained* dimensions only (an
/// unconstrained dimension integrates to 1 and drops out) — this joint
/// evaluation over sampled rows is exactly what captures cross-column
/// correlation that per-column histograms multiplied under independence
/// cannot. Equality pins evaluate as the unit-width interval
/// [v − 0.5, v + 0.5] (exact for integer-valued views, a smoothing
/// approximation elsewhere).
///
/// Returns nullopt when no dimension is constrained or a constrained column
/// is missing from the sample; an empty sample yields 0.
std::optional<double> KdeSelectivity(const TableSample& sample,
                                     const std::vector<double>& bandwidths,
                                     const PredicateBounds& bounds);

/// \brief One online gradient step on the squared log-selectivity error,
/// descending in log-bandwidth space (multiplicative updates keep h > 0 and
/// make the step scale-free):
///
///   L        = (log(ŝ+ε) − log(s*+ε))²
///   ∂L/∂log h_d = 2 (log(ŝ+ε) − log(s*+ε)) · h_d · (∂ŝ/∂h_d) / (ŝ+ε)
///   ∂ŝ/∂h_d  = (1/n) Σ_i (∏_{k≠d} F_k(i)) · ∂F_d(i)/∂h_d
///   ∂F_d/∂h_d = −z_hi φ(z_hi)/h_d + z_lo φ(z_lo)/h_d,  z = (bound − x)/h_d
///
/// Each step is −kLearningRate · ∂L/∂log h_d, clamped to ±kMaxLogStep, and
/// h_d stays within [kMinBandwidth, kMaxBandwidth]; ε is kLogFloor (all in
/// model.cc). Only the observation's constrained dimensions move. Returns
/// true when a step was applied (false: unusable bounds or sample).
bool UpdateBandwidths(const TableSample& sample, const PredicateBounds& bounds,
                      double actual_rows, std::vector<double>* bandwidths);

/// \brief Immutable generation of per-table KDE models, published by
/// KdeFeedbackLoop (common/published.h): readers resolve estimates against
/// one snapshot with no locking, writers tune bandwidths in the live models
/// and publish fresh generations.
class KdeSnapshot {
 public:
  struct TableModel {
    std::shared_ptr<const TableSample> sample;
    std::vector<double> bandwidths;  // per sample column
  };

  KdeSnapshot(uint64_t version, std::map<std::string, TableModel> tables)
      : version_(version), tables_(std::move(tables)) {}

  /// Answers only queries carrying exhaustive, non-empty predicate bounds
  /// on a sampled table: rows = clamp(ŝ, 0, 1) × bounds.table_rows.
  /// Everything else returns nullopt (keep the histogram baseline).
  std::optional<double> EstimateRows(const CardinalityQuery& query) const;

  const TableModel* Find(const std::string& table) const;
  uint64_t version() const { return version_; }
  size_t table_count() const { return tables_.size(); }

 private:
  uint64_t version_;
  std::map<std::string, TableModel> tables_;
};

}  // namespace qpp::kde
