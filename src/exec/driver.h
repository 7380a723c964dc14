#pragma once

#include <vector>

#include "catalog/database.h"
#include "exec/executors.h"
#include "plan/plan.h"

namespace qpp {

/// Binds every expression in the plan tree to its operator's input schema.
/// Scan predicates bind against the scan's (aliased) output schema, join
/// residuals against the concatenated child schemas, aggregate arguments
/// against the child schema, and HAVING against the aggregate's own output
/// schema. Requires output_schema to be populated on every node (the
/// optimizer does this; tests can use helpers).
Status BindPlan(PlanNode* node);

/// Name resolution over a schema: exact match first, then unique
/// unqualified-suffix match ("n_name" finds "n1.n_name" if unambiguous).
Result<int> ResolveName(const Schema& schema, const std::string& name);

/// Builds the executor tree for a bound plan; each operator records its
/// own timings into its node's PlanActuals (see Executor).
ExecutorPtr BuildExecutor(PlanNode* node, ExecContext* ctx);

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
/// every node (the training-data collection path). Per-operator trace
/// spans are derived from those actuals afterwards: obs::BuildTrace(*root).
Result<ExecutionResult> ExecutePlan(PlanNode* root, Database* db,
                                    const ExecutionOptions& options = {});

}  // namespace qpp
