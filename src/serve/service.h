#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "serve/registry.h"

namespace qpp::serve {

/// Point-in-time counters of a PredictionService (all since construction or
/// the last ResetStats).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  /// Latency percentiles in microseconds for THIS service instance (bucket
  /// interpolation, so approximate; 0 when no request has been served).
  /// Distinct from the process-wide "serve.predict.latency_us" histogram in
  /// obs::MetricsRegistry, which aggregates across all instances.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

/// \brief Concurrent query-performance prediction front end — the
/// "prediction at query arrival time" interface the paper's resource-manager
/// use case needs (Section 1).
///
/// Predict() is safe to call from any number of threads: each request takes
/// an immutable registry snapshot (never blocked by a concurrent hot-swap),
/// predicts against it, and updates lock-free counters. PredictBatch serves
/// a batch serially from one consistent snapshot, on the caller's thread.
class PredictionService {
 public:
  /// One answered prediction request.
  struct Prediction {
    double predicted_ms = 0.0;
    /// The model version that served the request (for staleness tracking).
    uint64_t model_version = 0;
  };

  /// `registry` must outlive the service.
  explicit PredictionService(ModelRegistry* registry);

  /// Predicts latency for one query against the current model snapshot.
  /// Fails (and counts an error) when no model has been published yet or
  /// the record is malformed.
  Result<Prediction> Predict(const QueryRecord& query) const;

  /// Predicts a whole batch serially, all elements against the same
  /// snapshot. Fails wholesale when no model is published; the first
  /// per-element failure fails the batch.
  Result<std::vector<Prediction>> PredictBatch(
      const std::vector<QueryRecord>& queries) const;

  /// Canonical stats accessor. Percentiles come from this instance's own
  /// histogram, so two services in one process never pollute each other's
  /// quantiles; the process-wide "serve.predict.latency_us" histogram in
  /// obs::MetricsRegistry::Global() is still fed by every request and
  /// remains the cross-instance aggregate view.
  ServiceStats Snapshot() const;
  /// Zeroes this service's counters and per-instance histogram, AND resets
  /// the shared process-wide latency histogram. Test hook.
  void ResetStats();

  ModelRegistry* registry() const { return registry_; }

 private:
  Result<Prediction> PredictOnSnapshot(const ModelVersion& snapshot,
                                       const QueryRecord& query) const;

  ModelRegistry* registry_;
  /// Shared process-wide latency histogram (registry-owned, never null).
  obs::Histogram* latency_hist_;
  /// This instance's own histogram (same buckets); Snapshot percentiles
  /// read it so co-resident services stay isolated.
  mutable obs::Histogram instance_hist_;
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace qpp::serve
