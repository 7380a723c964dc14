#pragma once

#include <vector>

#include "catalog/database.h"
#include "exec/executors.h"
#include "plan/plan.h"

namespace qpp {

/// Execution knobs mirroring the paper's run protocol.
struct ExecutionOptions {
  /// Flush the buffer pool first (the paper runs every query cold).
  bool cold_start = true;
  /// Keep result rows (disable for timing-only runs of large outputs).
  bool collect_rows = true;
};

/// Result of one query execution.
struct ExecutionResult {
  std::vector<Tuple> rows;
  int64_t row_count = 0;
  /// End-to-end latency in ms (equals the root operator's run-time).
  double latency_ms = 0.0;
  /// Buffer-pool activity of THIS execution, summed from the per-operator
  /// attribution in PlanActuals (not read back from the pool's global
  /// counters, so concurrent or interleaved work on a shared pool — e.g. a
  /// subquery InitPlan executed midway — cannot leak into these).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

/// Binds and runs the plan against the database, filling PlanActuals on
/// every node (the training-data collection path). Every expression binds
/// to its operator's input schema, so output_schema must be populated on
/// every node (the optimizer does this). Scans materialize only the columns
/// some operator above them reads; the others are null. Per-operator trace
/// spans are derived from the actuals afterwards: obs::BuildTrace(*root).
Result<ExecutionResult> ExecutePlan(PlanNode* root, Database* db,
                                    const ExecutionOptions& options = {});

}  // namespace qpp
