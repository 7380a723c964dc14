#pragma once

#include "kde/feedback.h"
#include "optimizer/cardinality.h"

namespace qpp::kde {

/// \brief The optimizer-facing adapter of the KDE backend: resolves each
/// CardinalityQuery against the loop's current snapshot (safe to share one
/// instance across planning threads while feedback publishes new
/// generations).
///
/// Answers only base-table scans whose predicate the optimizer could
/// normalize into exhaustive bounds over a sampled table; for everything
/// else it returns nullopt and planning falls back to the histogram
/// baseline, so attaching it can never widen the estimator's blast radius
/// beyond the scans KDE actually models.
class KdeCardinalityEstimator : public CardinalityEstimator {
 public:
  explicit KdeCardinalityEstimator(const KdeFeedbackLoop* loop)
      : loop_(loop) {}

  std::optional<double> EstimateRows(
      const CardinalityQuery& query) const override {
    if (loop_ == nullptr) return std::nullopt;
    const std::shared_ptr<const KdeSnapshot> snap = loop_->CurrentSnapshot();
    if (snap == nullptr) return std::nullopt;
    return snap->EstimateRows(query);
  }

  const char* name() const override { return "kde"; }

 private:
  const KdeFeedbackLoop* loop_;  // borrowed; must outlive the estimator
};

}  // namespace qpp::kde
