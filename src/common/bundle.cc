#include "common/bundle.h"

#include <fstream>

#include "common/checksum.h"

namespace qpp {
namespace {

/// Reads the header lines from `in`, leaving it at the first payload byte.
Result<BundleHeader> ReadHeader(std::istream& in, const std::string& path,
                                const BundleFormat& format,
                                const std::vector<std::string>& keys) {
  std::string line;
  if (!std::getline(in, line) || line != format.magic) {
    return Status::IOError(path + ": not a qpp " + format.name);
  }
  BundleHeader header;
  for (const std::string& key : keys) {
    if (!std::getline(in, line) || line.rfind(key + " ", 0) != 0) {
      return Status::IOError(path + ": missing " + key + " header");
    }
    header.values.push_back(line.substr(key.size() + 1));
  }
  if (!std::getline(in, line) || line.rfind("bytes ", 0) != 0) {
    return Status::IOError(path + ": missing bytes header");
  }
  try {
    header.payload_bytes = std::stoul(line.substr(6));
  } catch (const std::exception&) {
    return Status::IOError(path + ": bad bytes header '" + line + "'");
  }
  if (!std::getline(in, line) || line.rfind("checksum ", 0) != 0) {
    return Status::IOError(path + ": missing checksum header");
  }
  auto checksum = ParseChecksumHex(line.substr(9));
  if (!checksum.ok()) {
    return Status::IOError(path + ": " + checksum.status().message());
  }
  header.checksum = *checksum;
  return header;
}

}  // namespace

Status WriteBundle(
    const std::string& path, const BundleFormat& format,
    const std::string& payload,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return Status::IOError("cannot open " + path);
  out << format.magic << "\n";
  for (const auto& [key, value] : fields) out << key << " " << value << "\n";
  out << "bytes " << payload.size() << "\n";
  out << "checksum " << ChecksumHex(Fnv1a64(payload)) << "\n";
  out << payload;
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<BundleHeader> ReadBundleHeader(const std::string& path,
                                      const BundleFormat& format,
                                      const std::vector<std::string>& keys) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  return ReadHeader(in, path, format, keys);
}

Result<std::string> ReadBundlePayload(const std::string& path,
                                      const BundleFormat& format,
                                      const std::vector<std::string>& keys) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  QPP_ASSIGN_OR_RETURN(const BundleHeader header,
                       ReadHeader(in, path, format, keys));
  std::string payload(header.payload_bytes, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(header.payload_bytes));
  if (static_cast<size_t>(in.gcount()) != header.payload_bytes) {
    return Status::IOError(path + ": truncated payload (expected " +
                           std::to_string(header.payload_bytes) +
                           " bytes, got " + std::to_string(in.gcount()) + ")");
  }
  const uint64_t actual = Fnv1a64(payload);
  if (actual != header.checksum) {
    return Status::IOError(path + ": checksum mismatch (header " +
                           ChecksumHex(header.checksum) + ", payload " +
                           ChecksumHex(actual) + ") — corrupt bundle");
  }
  return payload;
}

std::vector<std::string> SplitPipe(const std::string& line, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t bar = line.find(sep, start);
    if (bar == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, bar - start));
    start = bar + 1;
  }
  return fields;
}

Result<double> ParseDouble(const std::string& s, const char* what) {
  try {
    size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) {
      return Status::IOError(std::string("trailing garbage in ") + what +
                             " '" + s + "'");
    }
    return v;
  } catch (const std::exception&) {
    return Status::IOError(std::string("bad ") + what + " '" + s + "'");
  }
}

Result<uint64_t> ParseU64(const std::string& s, const char* what) {
  try {
    size_t pos = 0;
    const uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) {
      return Status::IOError(std::string("trailing garbage in ") + what +
                             " '" + s + "'");
    }
    return v;
  } catch (const std::exception&) {
    return Status::IOError(std::string("bad ") + what + " '" + s + "'");
  }
}

void AppendDouble(std::ostringstream* out, double v) {
  out->precision(17);
  *out << v;
}

}  // namespace qpp
