#include "card/card_cache.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/bundle.h"
#include "common/checksum.h"
#include "obs/metrics.h"

namespace qpp::card {
namespace {

constexpr BundleFormat kCacheFormat{"qpp-card-cache v1", "card cache bundle"};

/// Squared L2 distance in log1p feature space.
double FeatureDistance2(const std::array<double, 3>& a,
                        const std::array<double, 3>& b) {
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return d2;
}

/// Distance-weighted kNN over candidate observations: the estimate is the
/// inverse-distance-weighted mean of log1p(actual_rows) over the k nearest
/// neighbors, mapped back through expm1. Averaging in log space makes the
/// blend multiplicative (geometric-mean-like), which matches how q-error
/// penalizes mistakes. `max_distance2` < 0 disables the radius bound
/// (exact-signature lookups trust every observation in the bucket).
std::optional<double> KnnEstimate(
    const std::vector<const CardObservation*>& candidates,
    const std::array<double, 3>& features, size_t k, double max_distance2) {
  std::vector<std::pair<double, double>> scored;  // (distance^2, log1p actual)
  scored.reserve(candidates.size());
  for (const CardObservation* o : candidates) {
    const double d2 = FeatureDistance2(o->features, features);
    if (max_distance2 >= 0.0 && d2 > max_distance2) continue;
    scored.emplace_back(d2, std::log1p(std::max(0.0, o->actual_rows)));
  }
  if (scored.empty()) return std::nullopt;
  const size_t take = std::min(k == 0 ? size_t{1} : k, scored.size());
  std::partial_sort(
      scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(take),
      scored.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  double weight_sum = 0.0;
  double value_sum = 0.0;
  for (size_t i = 0; i < take; ++i) {
    // Epsilon keeps exact feature matches finite while still dominating.
    const double w = 1.0 / (1e-3 + std::sqrt(scored[i].first));
    weight_sum += w;
    value_sum += w * scored[i].second;
  }
  const double rows = std::expm1(value_sum / weight_sum);
  return std::max(1.0, std::round(rows));
}

void SetCacheGaugesLocked(size_t signatures, size_t observations,
                          double windowed_qerror) {
  static obs::Gauge* size_gauge =
      obs::MetricsRegistry::Global()->GetGauge("card.cache.size");
  static obs::Gauge* obs_gauge =
      obs::MetricsRegistry::Global()->GetGauge("card.cache.observations");
  static obs::Gauge* qerr_gauge =
      obs::MetricsRegistry::Global()->GetGauge("card.cache.windowed_qerror");
  size_gauge->Set(static_cast<double>(signatures));
  obs_gauge->Set(static_cast<double>(observations));
  qerr_gauge->Set(windowed_qerror);
}

double MeanQErrorLocked(const std::deque<double>& window) {
  if (window.empty()) return 1.0;
  double sum = 0.0;
  for (double q : window) sum += q;
  return sum / static_cast<double>(window.size());
}

}  // namespace

double QError(double est_rows, double actual_rows) {
  const double e = std::max(1.0, est_rows);
  const double a = std::max(1.0, actual_rows);
  return std::max(e / a, a / e);
}

// ---------------------------------------------------------------------------
// CardSnapshot

CardSnapshot::CardSnapshot(uint64_t version, CardCacheConfig config,
                           std::vector<Entry> entries)
    : version_(version), config_(config), entries_(std::move(entries)) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    classes_[entries_[i].class_hash].push_back(i);
  }
}

std::optional<double> CardSnapshot::EstimateRows(
    const CardinalityQuery& query) const {
  if (query.signature == 0) return std::nullopt;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), query.signature,
      [](const Entry& e, uint64_t sig) { return e.signature < sig; });
  std::vector<const CardObservation*> candidates;
  if (it != entries_.end() && it->signature == query.signature) {
    candidates.reserve(it->obs.size());
    for (const CardObservation& o : it->obs) candidates.push_back(&o);
    return KnnEstimate(candidates, query.features, config_.knn_k,
                       /*max_distance2=*/-1.0);
  }
  if (!config_.allow_near_miss || query.class_hash == 0) return std::nullopt;
  const auto cls = classes_.find(query.class_hash);
  if (cls == classes_.end()) return std::nullopt;
  for (size_t idx : cls->second) {
    for (const CardObservation& o : entries_[idx].obs) {
      candidates.push_back(&o);
    }
  }
  const double r = config_.near_miss_max_distance;
  return KnnEstimate(candidates, query.features, config_.knn_k, r * r);
}

// ---------------------------------------------------------------------------
// LearnedCardinalityCache

LearnedCardinalityCache::LearnedCardinalityCache(CardCacheConfig config)
    : config_(config) {
  if (config_.max_signatures == 0) config_.max_signatures = 1;
  if (config_.max_observations_per_signature == 0) {
    config_.max_observations_per_signature = 1;
  }
  if (config_.max_qerror_window == 0) config_.max_qerror_window = 1;
}

void LearnedCardinalityCache::EvictOneLocked() {
  if (lru_.empty()) return;
  const uint64_t victim = lru_.back();
  lru_.pop_back();
  const auto it = entries_.find(victim);
  if (it != entries_.end()) {
    auto cls = classes_.find(it->second.class_hash);
    if (cls != classes_.end()) {
      auto& sigs = cls->second;
      sigs.erase(std::remove(sigs.begin(), sigs.end(), victim), sigs.end());
      if (sigs.empty()) classes_.erase(cls);
    }
    entries_.erase(it);
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* evict_counter =
      obs::MetricsRegistry::Global()->GetCounter("card.cache.evictions");
  evict_counter->Increment();
}

void LearnedCardinalityCache::Record(uint64_t signature, uint64_t class_hash,
                                     const std::array<double, 3>& features,
                                     double est_rows, double actual_rows) {
  if (signature == 0) return;
  std::lock_guard<OrderedMutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    // Capacity check dominates the inserts below: evict down to leave room
    // for the new signature before growing any container.
    while (entries_.size() >= config_.max_signatures) EvictOneLocked();
    lru_.push_front(signature);
    Entry entry;
    entry.class_hash = class_hash;
    entry.lru_it = lru_.begin();
    it = entries_.emplace(signature, std::move(entry)).first;
    classes_[class_hash].push_back(signature);
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.lru_it = lru_.begin();
  }
  Entry& entry = it->second;
  while (entry.obs.size() >= config_.max_observations_per_signature) {
    entry.obs.pop_front();
  }
  entry.obs.push_back(CardObservation{features, est_rows, actual_rows});

  while (qerror_window_.size() >= config_.max_qerror_window) {
    qerror_window_.pop_front();
  }
  qerror_window_.push_back(QError(est_rows, actual_rows));

  size_t observations = 0;
  for (const auto& [sig, e] : entries_) observations += e.obs.size();
  SetCacheGaugesLocked(entries_.size(), observations,
                       MeanQErrorLocked(qerror_window_));
}

size_t LearnedCardinalityCache::size() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return entries_.size();
}

size_t LearnedCardinalityCache::observation_count() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  size_t n = 0;
  for (const auto& [sig, e] : entries_) n += e.obs.size();
  return n;
}

double LearnedCardinalityCache::WindowedQError() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return MeanQErrorLocked(qerror_window_);
}

std::shared_ptr<const CardSnapshot> LearnedCardinalityCache::MakeSnapshot(
    uint64_t version) const {
  std::vector<CardSnapshot::Entry> entries;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& [sig, e] : entries_) {
      CardSnapshot::Entry out;
      out.signature = sig;
      out.class_hash = e.class_hash;
      out.obs.assign(e.obs.begin(), e.obs.end());
      entries.push_back(std::move(out));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CardSnapshot::Entry& a, const CardSnapshot::Entry& b) {
              return a.signature < b.signature;
            });
  return std::make_shared<const CardSnapshot>(version, config_,
                                              std::move(entries));
}

Status LearnedCardinalityCache::SaveToFile(const std::string& path) const {
  std::ostringstream payload;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    std::vector<uint64_t> sigs;
    sigs.reserve(entries_.size());
    for (const auto& [sig, e] : entries_) sigs.push_back(sig);
    std::sort(sigs.begin(), sigs.end());
    payload << "signatures " << sigs.size() << "\n";
    for (uint64_t sig : sigs) {
      const Entry& e = entries_.at(sig);
      payload << "E|" << ChecksumHex(sig) << "|" << ChecksumHex(e.class_hash)
              << "|" << e.obs.size() << "\n";
      for (const CardObservation& o : e.obs) {
        payload << "O";
        for (double f : o.features) {
          payload << "|";
          AppendDouble(&payload, f);
        }
        payload << "|";
        AppendDouble(&payload, o.est_rows);
        payload << "|";
        AppendDouble(&payload, o.actual_rows);
        payload << "\n";
      }
    }
  }
  return WriteBundle(path, kCacheFormat, payload.str());
}

Result<std::unique_ptr<LearnedCardinalityCache>>
LearnedCardinalityCache::LoadFromFile(const std::string& path,
                                      CardCacheConfig config) {
  QPP_ASSIGN_OR_RETURN(const std::string payload,
                       ReadBundlePayload(path, kCacheFormat));
  auto cache = std::make_unique<LearnedCardinalityCache>(config);
  std::istringstream body(payload);
  std::string line;
  if (!std::getline(body, line) || line.rfind("signatures ", 0) != 0) {
    return Status::IOError(path + ": missing signatures header");
  }
  uint64_t current_sig = 0;
  uint64_t current_class = 0;
  while (std::getline(body, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitPipe(line);
    if (f[0] == "E") {
      if (f.size() != 4) {
        return Status::IOError(path + ": malformed E line '" + line + "'");
      }
      QPP_ASSIGN_OR_RETURN(current_sig, ParseChecksumHex(f[1]));
      QPP_ASSIGN_OR_RETURN(current_class, ParseChecksumHex(f[2]));
    } else if (f[0] == "O") {
      if (f.size() != 6) {
        return Status::IOError(path + ": malformed O line '" + line + "'");
      }
      if (current_sig == 0) {
        return Status::IOError(path + ": O line before any E line");
      }
      std::array<double, 3> features{};
      for (size_t i = 0; i < 3; ++i) {
        QPP_ASSIGN_OR_RETURN(features[i], ParseDouble(f[i + 1], "feature"));
      }
      QPP_ASSIGN_OR_RETURN(const double est, ParseDouble(f[4], "est_rows"));
      QPP_ASSIGN_OR_RETURN(const double act, ParseDouble(f[5], "actual_rows"));
      cache->Record(current_sig, current_class, features, est, act);
    } else {
      return Status::IOError(path + ": unknown record tag '" + f[0] + "'");
    }
  }
  return cache;
}

}  // namespace qpp::card
