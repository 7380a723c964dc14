#pragma once

#include <string>

#include "plan/plan.h"

namespace qpp::obs {

/// Rendering knobs for ExplainAnalyze.
struct ExplainAnalyzeOptions {
  /// Include measured times (start/run ms). Off gives a fully
  /// deterministic rendering (golden-file friendly): structure, estimates,
  /// actual rows/pages and pool attribution only.
  bool include_timing = true;
  /// Include per-operator buffer-pool hit/miss attribution.
  bool include_pool = true;
};

/// \brief Human EXPLAIN ANALYZE-style tree: the optimizer's estimates and
/// the executor's actuals side by side — the exact estimate-error surface
/// the QPP models learn from (estimated vs. actual rows is the paper's
/// Figure 7 axis).
///
///   HashJoin [Inner]  (est rows=100 cost=0.00..34.21) (act rows=97)
///     ->  SeqScan on orders  (est rows=150 ...) (act rows=150 pages=3 pool hit=0 miss=3)
///
/// Requires AssignNodeIds + execution (ExecutePlan) for actuals; renders
/// "(never executed)" for nodes without valid actuals.
std::string ExplainAnalyze(const PlanNode& root,
                           const ExplainAnalyzeOptions& options = {});

}  // namespace qpp::obs
