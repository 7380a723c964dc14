#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qpp {

/// \file
/// The checksummed text bundle every persisted learned artifact uses (serve
/// model bundles, card caches, KDE models):
///
///   <magic line, e.g. "qpp-model-bundle v1">
///   <key> <value>          one line per format-specific header field
///   bytes <payload size>
///   checksum <16 hex chars, FNV-1a 64 of the payload>
///   <payload>
///
/// Readers verify length and checksum before returning the payload, so
/// truncation and corruption surface as an error naming the file rather
/// than as a parse failure deep in the payload.

/// One bundle format: its magic line and what to call it in errors.
struct BundleFormat {
  const char* magic;
  /// Completes "<path>: not a qpp <name>", e.g. "model bundle".
  const char* name;
};

/// Header of a bundle, readable without touching the payload.
struct BundleHeader {
  /// Values of the requested `key value` lines, in request order.
  std::vector<std::string> values;
  size_t payload_bytes = 0;
  uint64_t checksum = 0;
};

/// Writes `payload` to `path` framed as `format`, with one `key value` line
/// per entry of `fields`.
Status WriteBundle(
    const std::string& path, const BundleFormat& format,
    const std::string& payload,
    const std::vector<std::pair<std::string, std::string>>& fields = {});

/// Reads only the header; `keys` names the `key value` lines expected
/// between the magic line and `bytes`, in order.
Result<BundleHeader> ReadBundleHeader(const std::string& path,
                                      const BundleFormat& format,
                                      const std::vector<std::string>& keys = {});

/// Reads the header and the payload, verifying payload length and checksum.
Result<std::string> ReadBundlePayload(const std::string& path,
                                      const BundleFormat& format,
                                      const std::vector<std::string>& keys = {});

// Helpers for the '|'- and space-separated line payloads of the bundles.

/// Splits on `sep` ("a||b" yields three fields, "" yields one empty field).
std::vector<std::string> SplitPipe(const std::string& line, char sep = '|');

/// Parses the whole of `s` as a double; `what` names the field in errors.
Result<double> ParseDouble(const std::string& s, const char* what);

/// Parses the whole of `s` as an unsigned 64-bit integer.
Result<uint64_t> ParseU64(const std::string& s, const char* what);

/// Appends `v` at precision 17, the shortest decimal that round-trips every
/// IEEE double (the repo-wide rule for persisted floats).
void AppendDouble(std::ostringstream* out, double v);

}  // namespace qpp
