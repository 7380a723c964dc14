#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "card/card_cache.h"
#include "common/published.h"
#include "plan/plan.h"
#include "workload/query_log.h"

namespace qpp::card {

struct CardFeedbackConfig {
  CardCacheConfig cache;
  /// Harvested queries between automatic snapshot publishes
  /// (0 = publish after every harvest).
  size_t publish_interval = 8;
};

/// \brief Closes the estimate → execute → learn loop: harvests per-operator
/// (signature, estimated rows, actual rows) triples from executed plans into
/// a LearnedCardinalityCache, and periodically publishes immutable
/// CardSnapshot generations through a Published<CardSnapshot>, so
/// concurrent planners estimate without touching the cache lock and a
/// superseded generation is freed once its last planner drops it.
///
/// Harvesting reads only the PlanActuals the executor already collected —
/// it adds zero clock or counter reads to the tuple path.
class CardFeedbackLoop {
 public:
  explicit CardFeedbackLoop(CardFeedbackConfig config = {});
  CardFeedbackLoop(const CardFeedbackLoop&) = delete;
  CardFeedbackLoop& operator=(const CardFeedbackLoop&) = delete;

  /// Harvests every eligible operator of an executed plan (signatures are
  /// computed on the fly when the optimizer did not stamp them). Operators
  /// whose actual row counts are untrustworthy — anything on a pipelined
  /// path below a Limit — are skipped (workload/harvest.h).
  Status HarvestPlan(const PlanNode& root);

  /// Same harvest over a flattened QueryRecord (the serving-side path:
  /// records arriving over the wire carry signatures in their C lines;
  /// legacy records without them are ignored).
  Status HarvestRecord(const QueryRecord& record);

  /// Snapshot for estimation off the cache lock; null until the first
  /// publish.
  std::shared_ptr<const CardSnapshot> CurrentSnapshot() const {
    return snapshots_.Load();
  }

  /// Forces publication of a fresh snapshot; returns its version number.
  /// Also called automatically every `publish_interval` harvested queries.
  uint64_t PublishSnapshot();

  /// The live cache: recording, stats and persistence. Estimates come from
  /// CurrentSnapshot().
  LearnedCardinalityCache* cache() { return &cache_; }
  const LearnedCardinalityCache& cache() const { return cache_; }

  // Relaxed loads: monotonic stats, no ordering with snapshots implied.
  uint64_t harvested_queries() const {
    return harvested_queries_.load(std::memory_order_relaxed);
  }
  uint64_t harvested_nodes() const {
    return harvested_nodes_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_published() const { return snapshots_.version(); }

  const CardFeedbackConfig& config() const { return config_; }

 private:
  struct Sample;

  /// Records one harvested query's samples and publishes on cadence.
  Status Ingest(const std::vector<Sample>& samples);

  CardFeedbackConfig config_;
  LearnedCardinalityCache cache_;
  Published<CardSnapshot> snapshots_;

  std::atomic<uint64_t> harvested_queries_{0};
  std::atomic<uint64_t> harvested_nodes_{0};
};

}  // namespace qpp::card
