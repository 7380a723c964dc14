#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace qpp {

/// Continues an FNV-1a 64-bit hash whose state is `state` over `data`, so a
/// payload can be hashed in pieces without concatenating them:
/// Fnv1a64Update(Fnv1a64(a), b) == Fnv1a64(a + b).
inline uint64_t Fnv1a64Update(uint64_t state, std::string_view data) {
  for (unsigned char c : data) {
    state ^= c;
    state *= 0x100000001b3ull;
  }
  return state;
}

/// FNV-1a 64-bit hash of a byte string. Used to checksum persisted model
/// payloads: cheap, dependency-free, and stable across platforms — the goal
/// is corruption/truncation detection for files we wrote ourselves, not
/// cryptographic integrity.
inline uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64Update(0xcbf29ce484222325ull, data);  // the offset basis
}

/// Fixed-width (16 char) lowercase hex rendering of a checksum.
std::string ChecksumHex(uint64_t checksum);

/// Parses ChecksumHex output back into a value.
Result<uint64_t> ParseChecksumHex(std::string_view hex);

}  // namespace qpp
