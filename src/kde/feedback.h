#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/ordered_mutex.h"
#include "common/published.h"
#include "kde/model.h"
#include "kde/sample.h"
#include "workload/query_log.h"

namespace qpp::kde {

/// Every table is sampled with the default KdeSampleConfig, and bandwidths
/// tune with UpdateBandwidths' fixed step rules.
struct KdeFeedbackConfig {
  /// Harvested queries between automatic snapshot publishes
  /// (0 = publish after every harvest).
  size_t publish_interval = 8;
};

/// \brief The KDE backend's estimate → execute → learn loop: holds one
/// reservoir sample + bandwidth vector per table, harvests
/// (predicate-bounds, actual-rows) observations from executed plans or
/// serving-side QueryRecords under the Limit-taint rules of
/// workload/harvest.h, descends per-dimension bandwidths online in log
/// space, and publishes immutable KdeSnapshot generations through a
/// Published<KdeSnapshot>, which frees a superseded generation once its
/// last reader drops it.
///
/// Wiring: BuildFromDatabase (or LoadFromFile) populates the models and
/// publishes a cold snapshot; attach a KdeCardinalityEstimator to the
/// optimizer to consult it; feed executed plans back through HarvestPlan
/// (or records, e.g. each one RunWorkload returns or the serving path
/// receives, through HarvestRecord) to tune bandwidths.
class KdeFeedbackLoop {
 public:
  explicit KdeFeedbackLoop(KdeFeedbackConfig config = {});
  KdeFeedbackLoop(const KdeFeedbackLoop&) = delete;
  KdeFeedbackLoop& operator=(const KdeFeedbackLoop&) = delete;

  /// Reservoir-samples every table of the database (replacing any existing
  /// model of the same table, resetting its bandwidths to Scott's rule) and
  /// publishes a fresh snapshot.
  Status BuildFromDatabase(const Database& db);

  /// Harvests every untainted executed base-table scan carrying exhaustive
  /// predicate bounds (stamped by the optimizer, or recomputed on the fly
  /// from the scan predicate) into one bandwidth update each, skipping
  /// scans whose actuals a Limit cut short (workload/harvest.h).
  Status HarvestPlan(const PlanNode& root);

  /// Same harvest over a flattened QueryRecord (the serving-side path:
  /// bounds ride in optional B lines of the text format; records without
  /// them — all binary-decoded records — are ignored).
  Status HarvestRecord(const QueryRecord& record);

  /// Snapshot for estimation off the model lock; null until the first
  /// publish.
  std::shared_ptr<const KdeSnapshot> CurrentSnapshot() const {
    return snapshots_.Load();
  }

  /// Forces publication of a fresh snapshot; returns its version number.
  /// Also called automatically every `publish_interval` harvested queries.
  uint64_t PublishSnapshot();

  /// Persists every model (sample + tuned bandwidths) as one checksummed
  /// bundle (common/bundle.h) with the payload at full double precision.
  /// Deterministic (tables sorted by name), so Save ∘ Load ∘ Save is
  /// byte-identical.
  Status SaveToFile(const std::string& path) const;

  /// Replaces the models with a bundle written by SaveToFile (checksum
  /// verified before any parsing) and publishes a fresh snapshot.
  Status LoadFromFile(const std::string& path);

  size_t table_count() const;

  // Relaxed loads: monotonic stats, no ordering with snapshots implied.
  uint64_t harvested_queries() const {
    return harvested_queries_.load(std::memory_order_relaxed);
  }
  uint64_t bandwidth_updates() const {
    return bandwidth_updates_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_published() const { return snapshots_.version(); }

  const KdeFeedbackConfig& config() const { return config_; }

 private:
  struct ModelEntry {
    std::shared_ptr<const TableSample> sample;
    std::vector<double> bandwidths;  // per sample column
  };

  struct Observation;

  /// Applies one harvested query's observations and publishes on cadence.
  Status Ingest(const std::vector<Observation>& observations);

  KdeFeedbackConfig config_;

  /// Guards models_ (bandwidth tuning, rebuilds, snapshot copies).
  mutable OrderedMutex mu_;
  std::map<std::string, ModelEntry> models_;

  Published<KdeSnapshot> snapshots_;

  std::atomic<uint64_t> harvested_queries_{0};
  std::atomic<uint64_t> bandwidth_updates_{0};
};

}  // namespace qpp::kde
