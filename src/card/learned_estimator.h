#pragma once

#include "card/feedback.h"
#include "optimizer/cardinality.h"

namespace qpp::card {

/// \brief CardinalityEstimator backend backed by learned feedback: answers
/// from the lock-free snapshots a CardFeedbackLoop publishes and falls back
/// to the histogram baseline (nullopt) on a miss or before the first
/// publish.
///
/// Each estimate consults CurrentSnapshot() — a shared_ptr copy under a
/// leaf lock that no harvest holds while it works, so concurrent harvesting
/// never blocks planning. The estimator is const-thread-safe and borrows
/// the loop, which must outlive it.
class LearnedCardinalityEstimator final : public CardinalityEstimator {
 public:
  explicit LearnedCardinalityEstimator(const CardFeedbackLoop* loop)
      : loop_(loop) {}

  std::optional<double> EstimateRows(
      const CardinalityQuery& query) const override {
    const std::shared_ptr<const CardSnapshot> snap = loop_->CurrentSnapshot();
    if (snap == nullptr) return std::nullopt;
    return snap->EstimateRows(query);
  }

 private:
  const CardFeedbackLoop* loop_;
};

}  // namespace qpp::card
