#include "serve/service.h"

#include <chrono>

namespace qpp::serve {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

PredictionService::PredictionService(ModelRegistry* registry)
    : registry_(registry),
      // 1 us .. ~65 ms in powers of two; predictions are sub-millisecond so
      // the low buckets carry the resolution.
      latency_hist_(obs::MetricsRegistry::Global()->GetHistogram(
          "serve.predict.latency_us",
          obs::ExponentialBuckets(1.0, 2.0, 17))),
      instance_hist_(obs::ExponentialBuckets(1.0, 2.0, 17)) {}

Result<PredictionService::Prediction> PredictionService::PredictOnSnapshot(
    const ModelVersion& snapshot, const QueryRecord& query) const {
  const uint64_t t0 = NowNs();
  auto predicted = snapshot.predictor->PredictLatencyMs(query);
  const double elapsed_us = static_cast<double>(NowNs() - t0) / 1e3;
  requests_.fetch_add(1, std::memory_order_relaxed);
  latency_hist_->Observe(elapsed_us);
  instance_hist_.Observe(elapsed_us);
  if (!predicted.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return predicted.status();
  }
  return Prediction{*predicted, snapshot.version};
}

Result<PredictionService::Prediction> PredictionService::Predict(
    const QueryRecord& query) const {
  auto snapshot = registry_->Current();
  if (snapshot == nullptr) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no model published yet");
  }
  return PredictOnSnapshot(*snapshot, query);
}

Result<std::vector<PredictionService::Prediction>>
PredictionService::PredictBatch(const std::vector<QueryRecord>& queries) const {
  auto snapshot = registry_->Current();
  if (snapshot == nullptr) {
    requests_.fetch_add(queries.size(), std::memory_order_relaxed);
    errors_.fetch_add(queries.size(), std::memory_order_relaxed);
    return Status::NotFound("no model published yet");
  }
  std::vector<Prediction> out;
  out.reserve(queries.size());
  for (const QueryRecord& query : queries) {
    QPP_ASSIGN_OR_RETURN(Prediction p, PredictOnSnapshot(*snapshot, query));
    out.push_back(p);
  }
  return out;
}

ServiceStats PredictionService::Snapshot() const {
  ServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.p50_latency_us = instance_hist_.Quantile(0.50);
  s.p95_latency_us = instance_hist_.Quantile(0.95);
  s.p99_latency_us = instance_hist_.Quantile(0.99);
  return s;
}

void PredictionService::ResetStats() {
  // Relaxed: stats counters carry no synchronization; a racing reader
  // sees a mix of old and new values either way.
  requests_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  latency_hist_->Reset();
  instance_hist_.Reset();
}

}  // namespace qpp::serve
