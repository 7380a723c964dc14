#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.h"

namespace qpp::obs {

/// \brief One operator's observations from a single execution.
///
/// Spans are derived from the PlanActuals each operator's Executor records
/// anyway (its steady_clock readings): callers build a trace after
/// ExecutePlan, so tracing adds no work to the execution path itself. Times
/// follow the paper's semantics: `run_ms` covers the whole sub-plan rooted
/// at the operator, `start_ms` is the time until its first output tuple.
struct TraceSpan {
  int node_id = -1;
  /// node_id of the parent operator; -1 for the root.
  int parent_id = -1;
  int depth = 0;
  /// PlanOpName of the operator.
  std::string op;
  /// Relation name for scans, empty otherwise.
  std::string label;

  /// Start offset of this span on the rendered timeline, ms. The root
  /// starts at 0; each child starts after its earlier siblings' run-times,
  /// which keeps every child interval inside its parent (inclusive timing
  /// guarantees sum(children run) <= parent run).
  double timeline_start_ms = 0.0;
  double start_ms = 0.0;  ///< time to first output tuple (actual)
  double run_ms = 0.0;    ///< inclusive sub-plan run-time (actual)
  double self_ms = 0.0;   ///< run_ms minus the children's run_ms, >= 0

  double est_rows = 0.0;
  double est_startup_cost = 0.0;
  double est_total_cost = 0.0;
  double est_pages = 0.0;
  double actual_rows = 0.0;
  double actual_pages = 0.0;
  /// Buffer-pool activity charged by this operator itself (scans; zero for
  /// non-leaf operators, which never touch the pool directly).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

/// \brief Per-execution trace: one span per plan operator, pre-order.
struct Trace {
  std::vector<TraceSpan> spans;
  /// Root run-time == the execution's latency_ms.
  double total_ms = 0.0;
  /// Sums of the per-operator pool attribution.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  /// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds).
  /// Load in chrome://tracing or Perfetto. Deterministic fields: structure,
  /// names, node ids, row counts; timings are whatever was measured.
  std::string ToChromeTraceJson() const;
};

/// Builds a trace from an executed plan (actuals must be populated, i.e.
/// after ExecutePlan). Nodes that never ran (actual.valid == false) still
/// get spans with zero times so the tree shape is complete.
Trace BuildTrace(const PlanNode& root);

}  // namespace qpp::obs
