#include "common/checksum.h"

#include <cstdio>

namespace qpp {

std::string ChecksumHex(uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf);
}

Result<uint64_t> ParseChecksumHex(std::string_view hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument("checksum must be 16 hex chars, got '" +
                                   std::string(hex) + "'");
  }
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::InvalidArgument("bad checksum hex digit in '" +
                                   std::string(hex) + "'");
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

}  // namespace qpp
