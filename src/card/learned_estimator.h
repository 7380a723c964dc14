#pragma once

#include "card/card_cache.h"
#include "card/feedback.h"
#include "optimizer/cardinality.h"

namespace qpp::card {

/// \brief CardinalityEstimator backend backed by learned feedback: answers
/// from a LearnedCardinalityCache (or, preferably, from the lock-free
/// snapshots a CardFeedbackLoop publishes) and falls back to the histogram
/// baseline (nullopt) on a miss.
///
/// Two wiring modes, chosen by constructor:
///   - feedback-loop mode: each estimate consults CurrentSnapshot() — a
///     shared_ptr copy under a leaf lock that no harvest holds while it
///     works, so concurrent harvesting never blocks planning.
///   - direct-cache mode: each estimate takes the cache mutex — simpler,
///     right for single-threaded tools and benchmarks.
/// The estimator is const-thread-safe in both modes and borrows its target
/// (no ownership); the cache/loop must outlive it.
class LearnedCardinalityEstimator final : public CardinalityEstimator {
 public:
  explicit LearnedCardinalityEstimator(const LearnedCardinalityCache* cache)
      : cache_(cache) {}
  explicit LearnedCardinalityEstimator(const CardFeedbackLoop* loop)
      : loop_(loop) {}

  std::optional<double> EstimateRows(
      const CardinalityQuery& query) const override {
    if (loop_ != nullptr) {
      const std::shared_ptr<const CardSnapshot> snap = loop_->CurrentSnapshot();
      if (snap == nullptr) return std::nullopt;
      return snap->EstimateRows(query);
    }
    if (cache_ != nullptr) return cache_->EstimateRows(query);
    return std::nullopt;
  }

 private:
  const LearnedCardinalityCache* cache_ = nullptr;
  const CardFeedbackLoop* loop_ = nullptr;
};

}  // namespace qpp::card
