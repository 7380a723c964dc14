// Reproduces Figure 4: the common sub-plan analysis underlying the hybrid
// and online methods. Over the plans of the 14 operator-level templates:
// (a) CDF of the sizes of sub-plans shared by more than one template,
// (b) the 6 most common sub-plans,
// (c) for each template, the number of other templates it shares at least
//     one common sub-plan with.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "bench/bench_util.h"
#include "workload/templates.h"

using namespace qpp;
using namespace qpp::bench;

int main() {
  PrintSectionHeader("Figure 4 - Common Sub-plan Analysis (14 templates)");
  std::printf(
      "Paper shape: small sub-plans dominate (CDF saturates quickly); the\n"
      "most common sub-plans are the orders/lineitem join cores; every\n"
      "template except 6 shares sub-plans with at least one other.\n");
  const QueryLog log = GetWorkload(LargeScaleFactor(),
                                   tpch::OperatorLevelTemplates(), "large");

  struct KeyInfo {
    int size = 0;
    int occurrences = 0;
    std::set<int> templates;
  };
  std::map<std::string, KeyInfo> keys;
  for (const auto& q : log.queries) {
    for (const auto& op : q.ops) {
      if (op.subtree_size < 2) continue;
      KeyInfo& info = keys[op.structural_key];
      info.size = op.subtree_size;
      info.occurrences += 1;
      info.templates.insert(q.template_id);
    }
  }

  // (a) CDF of common (cross-template) sub-plan sizes.
  std::vector<int> common_sizes;
  for (const auto& [key, info] : keys) {
    if (info.templates.size() > 1) common_sizes.push_back(info.size);
  }
  std::sort(common_sizes.begin(), common_sizes.end());
  std::printf("\nFig 4(a) CDF of common sub-plan sizes (%zu shared plans):\n",
              common_sizes.size());
  std::printf("  %-6s %s\n", "size", "F(x)");
  if (!common_sizes.empty()) {
    const int max_size = common_sizes.back();
    for (int s = 2; s <= max_size; ++s) {
      const auto upto = std::upper_bound(common_sizes.begin(),
                                         common_sizes.end(), s);
      std::printf("  %-6d %.2f\n", s,
                  static_cast<double>(upto - common_sizes.begin()) /
                      static_cast<double>(common_sizes.size()));
    }
  }

  // (b) Most common sub-plans by template coverage then occurrences.
  std::vector<std::pair<std::string, KeyInfo>> ranked(keys.begin(), keys.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.templates.size() != b.second.templates.size()) {
      return a.second.templates.size() > b.second.templates.size();
    }
    return a.second.occurrences > b.second.occurrences;
  });
  std::printf("\nFig 4(b) 6 most common sub-plans across templates:\n");
  std::printf("  %-10s %-12s %s\n", "#templates", "occurrences", "sub-plan");
  for (size_t i = 0; i < ranked.size() && i < 6; ++i) {
    std::printf("  %-10zu %-12d %s\n", ranked[i].second.templates.size(),
                ranked[i].second.occurrences, ranked[i].first.c_str());
  }

  // (c) Per-template sharing degree.
  std::map<int, std::set<int>> shares_with;
  for (const auto& [key, info] : keys) {
    if (info.templates.size() < 2) continue;
    for (int a : info.templates) {
      for (int b : info.templates) {
        if (a != b) shares_with[a].insert(b);
      }
    }
  }
  std::printf(
      "\nFig 4(c) #templates each template shares common sub-plans with:\n");
  std::printf("  %-8s %s\n", "template", "#partners");
  for (int tid : tpch::OperatorLevelTemplates()) {
    std::printf("  %-8d %zu\n", tid, shares_with[tid].size());
  }
  return 0;
}
