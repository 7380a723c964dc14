#include "kde/feedback.h"

#include <sstream>
#include <utility>

#include "common/bundle.h"
#include "obs/metrics.h"
#include "optimizer/selectivity.h"
#include "workload/harvest.h"

namespace qpp::kde {
namespace {

constexpr BundleFormat kBundleFormat{"qpp-kde-bundle v1", "kde bundle"};

bool UsableBounds(const PredicateBounds& bounds) {
  return bounds.exhaustive && !bounds.table.empty() && !bounds.columns.empty();
}

}  // namespace

/// One harvested (bounds, actual) observation awaiting a bandwidth step.
struct KdeFeedbackLoop::Observation {
  PredicateBounds bounds;
  double actual_rows = 0.0;
};

KdeFeedbackLoop::KdeFeedbackLoop(KdeFeedbackConfig config)
    : config_(std::move(config)) {}

Status KdeFeedbackLoop::BuildFromDatabase(const Database& db) {
  std::map<std::string, ModelEntry> built;
  for (const Table* table : db.tables()) {
    ModelEntry entry;
    entry.sample = std::make_shared<const TableSample>(
        BuildTableSample(*table, KdeSampleConfig{}));
    entry.bandwidths = DefaultBandwidths(*entry.sample);
    built[table->name()] = std::move(entry);
  }
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    for (auto& [name, entry] : built) models_[name] = std::move(entry);
  }
  (void)PublishSnapshot();
  return Status::OK();
}

Status KdeFeedbackLoop::HarvestPlan(const PlanNode& root) {
  std::vector<Observation> observations;
  ForEachTrustedActual(root, [&observations](const PlanNode& node) {
    if (node.op != PlanOp::kSeqScan) return;
    if (node.card_bounds != nullptr) {
      if (UsableBounds(*node.card_bounds)) {
        observations.push_back({*node.card_bounds, node.actual.rows});
      }
    } else if (node.table != nullptr) {
      // Plans compiled without a KDE-aware optimizer pass (or with the
      // estimator detached) still harvest: recompute bounds on the fly.
      PredicateBounds bounds = ExtractPredicateBounds(
          node.predicate.get(), *node.table, node.label);
      if (UsableBounds(bounds)) {
        observations.push_back({std::move(bounds), node.actual.rows});
      }
    }
  });
  return Ingest(observations);
}

Status KdeFeedbackLoop::HarvestRecord(const QueryRecord& record) {
  std::vector<Observation> observations;
  ForEachTrustedActual(record, [&observations](const OperatorRecord& op) {
    if (op.op == PlanOp::kSeqScan && UsableBounds(op.bounds)) {
      observations.push_back({op.bounds, op.actual.rows});
    }
  });
  return Ingest(observations);
}

Status KdeFeedbackLoop::Ingest(const std::vector<Observation>& observations) {
  static obs::Counter* query_counter = obs::MetricsRegistry::Global()
      ->GetCounter("kde.feedback.harvested_queries");
  static obs::Counter* update_counter = obs::MetricsRegistry::Global()
      ->GetCounter("kde.feedback.bandwidth_updates");
  size_t updates = 0;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    for (const Observation& o : observations) {
      const auto it = models_.find(o.bounds.table);
      if (it == models_.end() || it->second.sample == nullptr) continue;
      if (UpdateBandwidths(*it->second.sample, o.bounds, o.actual_rows,
                           &it->second.bandwidths)) {
        ++updates;
      }
    }
  }
  query_counter->Increment();
  update_counter->Increment(updates);
  bandwidth_updates_.fetch_add(updates, std::memory_order_relaxed);
  const uint64_t n =
      harvested_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.publish_interval == 0 || n % config_.publish_interval == 0) {
    (void)PublishSnapshot();
  }
  return Status::OK();
}

uint64_t KdeFeedbackLoop::PublishSnapshot() {
  static obs::Gauge* version_gauge = obs::MetricsRegistry::Global()->GetGauge(
      "kde.feedback.snapshot_version");
  // Never called with mu_ held: the publisher lock ranks above it.
  return snapshots_.Publish([this](uint64_t version) {
    std::map<std::string, KdeSnapshot::TableModel> tables;
    {
      std::lock_guard<OrderedMutex> lock(mu_);
      for (const auto& [name, entry] : models_) {
        tables[name] = KdeSnapshot::TableModel{entry.sample, entry.bandwidths};
      }
    }
    version_gauge->Set(static_cast<double>(version));
    return std::make_shared<const KdeSnapshot>(version, std::move(tables));
  });
}

size_t KdeFeedbackLoop::table_count() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return models_.size();
}

Status KdeFeedbackLoop::SaveToFile(const std::string& path) const {
  std::ostringstream payload;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    payload << "tables " << models_.size() << "\n";
    // std::map iteration is name-sorted, so the payload is deterministic
    // and Save ∘ Load ∘ Save round-trips byte-identically.
    for (const auto& [name, entry] : models_) {
      const TableSample& s = *entry.sample;
      payload << "T|" << name << "|";
      AppendDouble(&payload, s.table_rows);
      payload << "|" << s.capacity << "|" << s.seed << "|" << s.columns.size()
              << "|" << s.rows() << "\n";
      payload << "C";
      for (const std::string& c : s.columns) payload << "|" << c;
      payload << "\n";
      payload << "H";
      for (double h : entry.bandwidths) {
        payload << "|";
        AppendDouble(&payload, h);
      }
      payload << "\n";
      for (size_t r = 0; r < s.rows(); ++r) {
        payload << "R";
        for (size_t c = 0; c < s.columns.size(); ++c) {
          payload << "|";
          AppendDouble(&payload, s.at(r, c));
        }
        payload << "\n";
      }
    }
  }
  return WriteBundle(path, kBundleFormat, payload.str());
}

Status KdeFeedbackLoop::LoadFromFile(const std::string& path) {
  QPP_ASSIGN_OR_RETURN(const std::string payload,
                       ReadBundlePayload(path, kBundleFormat));
  std::istringstream body(payload);
  std::string line;
  if (!std::getline(body, line) || line.rfind("tables ", 0) != 0) {
    return Status::IOError(path + ": missing tables header");
  }
  size_t table_count = 0;
  try {
    table_count = std::stoul(line.substr(7));
  } catch (const std::exception&) {
    return Status::IOError(path + ": bad tables header '" + line + "'");
  }
  std::map<std::string, ModelEntry> loaded;
  for (size_t t = 0; t < table_count; ++t) {
    if (!std::getline(body, line)) {
      return Status::IOError(path + ": truncated bundle (missing T line)");
    }
    const std::vector<std::string> tf = SplitPipe(line);
    if (tf.size() != 7 || tf[0] != "T") {
      return Status::IOError(path + ": malformed T line '" + line + "'");
    }
    TableSample sample;
    sample.table = tf[1];
    QPP_ASSIGN_OR_RETURN(sample.table_rows, ParseDouble(tf[2], "table_rows"));
    QPP_ASSIGN_OR_RETURN(const uint64_t capacity,
                         ParseU64(tf[3], "capacity"));
    sample.capacity = static_cast<size_t>(capacity);
    QPP_ASSIGN_OR_RETURN(sample.seed, ParseU64(tf[4], "seed"));
    QPP_ASSIGN_OR_RETURN(const uint64_t ncols, ParseU64(tf[5], "ncols"));
    QPP_ASSIGN_OR_RETURN(const uint64_t nrows, ParseU64(tf[6], "nrows"));

    if (!std::getline(body, line)) {
      return Status::IOError(path + ": truncated bundle (missing C line)");
    }
    const std::vector<std::string> cf = SplitPipe(line);
    if (cf[0] != "C" || cf.size() != static_cast<size_t>(ncols) + 1) {
      return Status::IOError(path + ": malformed C line '" + line + "'");
    }
    sample.columns.assign(cf.begin() + 1, cf.end());

    if (!std::getline(body, line)) {
      return Status::IOError(path + ": truncated bundle (missing H line)");
    }
    const std::vector<std::string> hf = SplitPipe(line);
    if (hf[0] != "H" || hf.size() != static_cast<size_t>(ncols) + 1) {
      return Status::IOError(path + ": malformed H line '" + line + "'");
    }
    ModelEntry entry;
    entry.bandwidths.reserve(static_cast<size_t>(ncols));
    for (size_t i = 1; i < hf.size(); ++i) {
      QPP_ASSIGN_OR_RETURN(const double h, ParseDouble(hf[i], "bandwidth"));
      entry.bandwidths.push_back(h);
    }

    sample.data.reserve(static_cast<size_t>(nrows * ncols));
    for (size_t r = 0; r < nrows; ++r) {
      if (!std::getline(body, line)) {
        return Status::IOError(path + ": truncated bundle (missing R line)");
      }
      const std::vector<std::string> rf = SplitPipe(line);
      if (rf[0] != "R" || rf.size() != static_cast<size_t>(ncols) + 1) {
        return Status::IOError(path + ": malformed R line '" + line + "'");
      }
      for (size_t i = 1; i < rf.size(); ++i) {
        QPP_ASSIGN_OR_RETURN(const double v, ParseDouble(rf[i], "sample"));
        sample.data.push_back(v);
      }
    }
    entry.sample = std::make_shared<const TableSample>(std::move(sample));
    loaded[tf[1]] = std::move(entry);
  }
  if (std::getline(body, line) && !line.empty()) {
    return Status::IOError(path + ": trailing garbage '" + line + "'");
  }
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    models_ = std::move(loaded);
  }
  (void)PublishSnapshot();
  return Status::OK();
}

}  // namespace qpp::kde
