#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/published.h"
#include "qpp/predictor.h"

namespace qpp::serve {

/// One published generation of the prediction models: an immutable, fully
/// trained predictor plus bookkeeping, shared read-only across request
/// threads.
struct ModelVersion {
  /// Monotonically increasing publish sequence number (first publish == 1).
  uint64_t version = 0;
  /// Where this version came from ("initial-train", "retrain#2",
  /// a bundle path, ...), for operability.
  std::string source;
  /// The immutable predictor. Never null in a published version.
  std::shared_ptr<const QueryPerformancePredictor> predictor;
};

/// \brief Thread-safe versioned model store with snapshot reads.
///
/// Readers call Current() and get an immutable shared_ptr snapshot that
/// stays valid (and unchanging) for as long as they hold it, however many
/// hot-swaps happen meanwhile; a concurrent Publish never makes them wait
/// for a model to be built. After Publish returns, every subsequent
/// Current() observes the new version. A superseded version is freed when
/// its last in-flight request drops it (see common/published.h).
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Snapshot of the current version; null until the first Publish. Take
  /// one per request or batch.
  std::shared_ptr<const ModelVersion> Current() const {
    return versions_.Load();
  }

  /// Atomically installs `predictor` as the new current version and returns
  /// its version number. The predictor must be trained and must not be
  /// mutated afterwards.
  uint64_t Publish(std::shared_ptr<const QueryPerformancePredictor> predictor,
                   std::string source);

  /// Version number of the current snapshot (0 before the first publish).
  uint64_t current_version() const { return versions_.version(); }

 private:
  Published<ModelVersion> versions_;
};

}  // namespace qpp::serve
