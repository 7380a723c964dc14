#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/result.h"
#include "optimizer/cardinality.h"

namespace qpp::card {

/// One harvested (plan signature, estimate, actual) sample.
struct CardObservation {
  /// Features stamped on the plan node at compile time (log1p-scaled
  /// input/baseline cardinalities, see card/signature.h).
  std::array<double, 3> features{};
  /// The optimizer's estimate at execution time (possibly already learned).
  double est_rows = 0.0;
  /// Rows the executor actually observed.
  double actual_rows = 0.0;
};

struct CardCacheConfig {
  /// Signatures retained; least-recently-*recorded* evicted beyond this.
  size_t max_signatures = 4096;
  /// Observations retained per signature (oldest dropped).
  size_t max_observations_per_signature = 32;
  /// Neighbors consulted per estimate.
  size_t knn_k = 3;
  /// Near-miss fallback: when a signature is unknown, borrow observations
  /// from signatures over the same relation set (same class hash) whose
  /// features lie within `near_miss_max_distance`.
  bool allow_near_miss = true;
  /// L2 bound in log1p feature space for near-miss neighbors (~e^1 ≈ 2.7x
  /// cardinality spread per axis).
  double near_miss_max_distance = 1.0;
  /// Recent q-error samples kept for the windowed quality gauge.
  size_t max_qerror_window = 256;
};

/// \brief Immutable point-in-time copy of the learned cache, published to
/// concurrent planners by CardFeedbackLoop (common/published.h). Lookups
/// are lock-free by construction.
class CardSnapshot {
 public:
  struct Entry {
    uint64_t signature = 0;
    uint64_t class_hash = 0;
    std::vector<CardObservation> obs;
  };

  CardSnapshot(uint64_t version, CardCacheConfig config,
               std::vector<Entry> entries);

  /// kNN estimate for the query, or nullopt (caller falls back to the
  /// histogram baseline). Never touches the live cache.
  std::optional<double> EstimateRows(const CardinalityQuery& query) const;

  uint64_t version() const { return version_; }
  size_t size() const { return entries_.size(); }

 private:
  uint64_t version_;
  CardCacheConfig config_;
  std::vector<Entry> entries_;  // sorted by signature
  /// class hash -> indexes into entries_, for near-miss lookup.
  std::unordered_map<uint64_t, std::vector<size_t>> classes_;
};

/// \brief Bounded, thread-safe cardinality feedback store: LRU over plan
/// signatures, a bounded observation window per signature, and checksummed
/// persistence in the common/bundle.h framing. It answers no estimates
/// itself: planners read the immutable CardSnapshot copies it makes (kNN
/// smoothing inside and, for near misses, across signature buckets).
///
/// All public methods are safe to call concurrently; they share one mutex.
class LearnedCardinalityCache {
 public:
  explicit LearnedCardinalityCache(CardCacheConfig config = {});

  /// Ingests one observation. Creates the signature bucket (evicting the
  /// least-recently-recorded one beyond max_signatures), appends the
  /// observation (dropping the oldest beyond the per-signature bound) and
  /// updates the windowed q-error gauge.
  void Record(uint64_t signature, uint64_t class_hash,
              const std::array<double, 3>& features, double est_rows,
              double actual_rows);

  /// Signatures currently cached.
  size_t size() const;
  /// Observations across all signatures.
  size_t observation_count() const;
  /// Mean q-error := max(est/actual, actual/est) over the recent window
  /// (1.0 when empty — a perfect estimator's value).
  double WindowedQError() const;

  // Relaxed load: a monotonic stat, no ordering with cache state implied.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Immutable copy of the current contents (entries sorted by signature).
  std::shared_ptr<const CardSnapshot> MakeSnapshot(uint64_t version) const;

  /// Persists as a checksummed bundle ("qpp-card-cache v1" magic, bytes +
  /// checksum headers, text payload at precision 17). Entries are written
  /// sorted by signature so Save ∘ Load ∘ Save is byte-identical.
  Status SaveToFile(const std::string& path) const;

  /// Reloads a bundle written by SaveToFile into a heap-allocated cache
  /// (the cache is not movable: it owns a mutex). Checksum-verified before
  /// parsing; recency order after a load is file order.
  static Result<std::unique_ptr<LearnedCardinalityCache>> LoadFromFile(
      const std::string& path, CardCacheConfig config = {});

  const CardCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    uint64_t class_hash = 0;
    std::deque<CardObservation> obs;
    std::list<uint64_t>::iterator lru_it;
  };

  void EvictOneLocked();

  CardCacheConfig config_;

  mutable OrderedMutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;         // guarded by mu_
  std::list<uint64_t> lru_;  // front = most recently recorded signature
  std::unordered_map<uint64_t, std::vector<uint64_t>> classes_;
  std::deque<double> qerror_window_;                    // guarded by mu_

  std::atomic<uint64_t> evictions_{0};
};

/// q-error of one estimate: max(est/actual, actual/est) with both sides
/// floored at one row, so it is always finite and >= 1.
double QError(double est_rows, double actual_rows);

}  // namespace qpp::card
