#pragma once

#include <cstdint>
#include <string>

#include "qpp/predictor.h"

namespace qpp::serve {

/// Header of a persisted model bundle (readable without parsing models).
struct ModelBundleInfo {
  int format_version = 1;
  /// Prediction method of the persisted predictor, by name.
  std::string method;
  /// Size of the model payload in bytes.
  size_t payload_bytes = 0;
  /// FNV-1a 64 checksum of the payload.
  uint64_t checksum = 0;
};

/// \brief Versioned, checksummed model persistence — the bundle format the
/// serving layer exchanges between trainer and server processes.
///
/// Layout (common/bundle.h framing, then an exact-length payload):
///   qpp-model-bundle v1
///   method <name>
///   bytes <payload size>
///   checksum <16 hex chars, FNV-1a 64 of the payload>
///   <payload: QueryPerformancePredictor::SerializeModels() text>
///
/// Load verifies length and checksum before any model parsing, so
/// truncation and corruption surface as a checksum error naming the file,
/// not a confusing parse failure deep in a model payload.

/// Writes the trained predictor to `path` as a bundle.
Status SaveModelBundle(const QueryPerformancePredictor& predictor,
                       const std::string& path);

/// Reads back a bundle header + payload, verifies the checksum, and
/// restores a predictor. `base_config` supplies the non-persisted training
/// hyperparameters (the persisted method and feature mode override it).
Result<QueryPerformancePredictor> LoadModelBundle(
    const std::string& path, PredictorConfig base_config = PredictorConfig{});

/// Reads just the bundle header (cheap; no model parsing or checksum work).
Result<ModelBundleInfo> ReadModelBundleInfo(const std::string& path);

}  // namespace qpp::serve
