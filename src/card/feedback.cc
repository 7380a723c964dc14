#include "card/feedback.h"

#include <utility>

#include "card/signature.h"
#include "obs/metrics.h"
#include "workload/harvest.h"

namespace qpp::card {

struct CardFeedbackLoop::Sample {
  uint64_t signature = 0;
  uint64_t class_hash = 0;
  CardObservation obs;
};

CardFeedbackLoop::CardFeedbackLoop(CardFeedbackConfig config)
    : config_(std::move(config)), cache_(config_.cache) {}

Status CardFeedbackLoop::HarvestPlan(const PlanNode& root) {
  std::vector<Sample> samples;
  ForEachTrustedActual(root, [&samples](const PlanNode& node) {
    Sample s;
    if (node.card_signature != 0) {
      s.signature = node.card_signature;
      s.class_hash = node.card_class;
      s.obs.features = node.card_features;
    } else {
      const NodeSignature sig = ComputePlanNodeSignature(node);
      s.signature = sig.signature;
      s.class_hash = sig.class_hash;
      s.obs.features = ComputeCardFeatures(node);
    }
    if (s.signature == 0) return;
    s.obs.est_rows = node.est.rows;
    s.obs.actual_rows = node.actual.rows;
    samples.push_back(s);
  });
  return Ingest(samples);
}

Status CardFeedbackLoop::HarvestRecord(const QueryRecord& record) {
  std::vector<Sample> samples;
  ForEachTrustedActual(record, [&samples](const OperatorRecord& op) {
    if (op.card_signature == 0) return;
    samples.push_back(
        Sample{op.card_signature, op.card_class,
               CardObservation{op.card_features, op.est.rows, op.actual.rows}});
  });
  return Ingest(samples);
}

Status CardFeedbackLoop::Ingest(const std::vector<Sample>& samples) {
  static obs::Counter* query_counter = obs::MetricsRegistry::Global()
      ->GetCounter("card.feedback.harvested_queries");
  static obs::Counter* node_counter = obs::MetricsRegistry::Global()
      ->GetCounter("card.feedback.harvested_nodes");
  for (const Sample& s : samples) {
    cache_.Record(s.signature, s.class_hash, s.obs.features, s.obs.est_rows,
                  s.obs.actual_rows);
  }
  query_counter->Increment();
  node_counter->Increment(samples.size());
  harvested_nodes_.fetch_add(samples.size(), std::memory_order_relaxed);
  const uint64_t n =
      harvested_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.publish_interval == 0 || n % config_.publish_interval == 0) {
    (void)PublishSnapshot();
  }
  return Status::OK();
}

uint64_t CardFeedbackLoop::PublishSnapshot() {
  static obs::Gauge* version_gauge = obs::MetricsRegistry::Global()->GetGauge(
      "card.feedback.snapshot_version");
  return snapshots_.Publish([this](uint64_t version) {
    version_gauge->Set(static_cast<double>(version));
    return cache_.MakeSnapshot(version);
  });
}

}  // namespace qpp::card
