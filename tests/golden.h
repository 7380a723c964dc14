// Golden-file checks shared by the test suites. Golden files live in
// tests/testdata and are committed: a missing one fails its test, and only
// QPP_REGEN_GOLDEN=1 rewrites one (the test then skips). A test run never
// writes into the source tree otherwise.

#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace qpp {

/// Directory holding the committed golden files.
inline std::string TestDataDir() {
  const std::string file = __FILE__;
  return file.substr(0, file.find_last_of('/')) + "/testdata";
}

/// Checks `lines` against the golden file at `path`, whose non-empty lines
/// that do not start with '#' must equal `lines` in order. Under
/// QPP_REGEN_GOLDEN the file is rewritten instead: `header` first (unless
/// empty), then one line each. `details[i]`, when given, is printed if line
/// i moved.
inline void CheckGolden(const std::string& path, const std::string& header,
                        const std::vector<std::string>& lines,
                        const std::vector<std::string>& details = {}) {
  if (std::getenv("QPP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    if (!header.empty()) out << header << "\n";
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  ASSERT_EQ(golden.size(), lines.size()) << path;
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i]) << (i < details.size() ? details[i] : "");
  }
}

}  // namespace qpp
