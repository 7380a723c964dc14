#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace qpp {

/// Physical operator types. This is the vocabulary both the executor and
/// the QPP feature extraction (<operator_name>_cnt / _rows features of
/// Table 1, per-operator-type models of Section 3.2) are built over.
enum class PlanOp {
  kSeqScan,
  kIndexScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kHashJoin,
  kMergeJoin,
  kSort,
  kMaterialize,
  kHashAggregate,
  kGroupAggregate,
  kLimit,
};

constexpr int kNumPlanOps = 12;

const char* PlanOpName(PlanOp op);

/// Join semantics (EXISTS/IN rewrite to semi, NOT EXISTS to anti).
enum class JoinType { kInner, kLeftOuter, kSemi, kAnti };

const char* JoinTypeName(JoinType t);

/// \brief Optimizer estimates attached to every plan node — the static,
/// compile-time feature surface (what PostgreSQL's EXPLAIN exposes).
struct PlanEstimates {
  /// Cost until the first output tuple (plan-level feature p_st_cost).
  double startup_cost = 0.0;
  /// Total cost (p_tot_cost).
  double total_cost = 0.0;
  /// Estimated output tuples (p_rows / nt).
  double rows = 0.0;
  /// Estimated average output tuple width in bytes (p_width).
  double width = 0.0;
  /// Estimated I/O in pages charged at this operator (operator feature np).
  double pages = 0.0;
  /// Estimated operator selectivity (operator feature sel).
  double selectivity = 1.0;
};

/// \brief One column's contribution to a normalized conjunctive scan
/// predicate: an interval over the column's numeric view (catalog/stats.h
/// NumericView — numerics and dates map naturally, strings pack their first
/// eight bytes), with absent endpoints marked by the has_* flags. Equality
/// pins carry lo == hi.
struct ColumnBound {
  /// Base (unqualified) column name in the table schema.
  std::string column;
  double lo = 0.0;
  double hi = 0.0;
  bool has_lo = false;
  bool has_hi = false;
  bool is_equality = false;
};

/// \brief Normalized predicate-bounds descriptor of a base-table scan: the
/// conjunctive range/equality constraints the scan predicate places on
/// individual columns, in a form sample-backed estimators (src/kde) can
/// evaluate jointly. Stamped onto scan nodes by the optimizer when a
/// CardinalityEstimator is attached, alongside card_signature.
struct PredicateBounds {
  /// Base relation name (not the alias).
  std::string table;
  /// Table cardinality at planning time; scales selectivity back to rows.
  double table_rows = 0.0;
  /// Per-column intervals, ordered by column name (deterministic).
  std::vector<ColumnBound> columns;
  /// True when every conjunct of the predicate was captured as a column
  /// bound — only then does the descriptor fully describe the filtering,
  /// and only then may a sample-backed estimator answer. LIKE, OR, IN,
  /// NULL tests, != and column-vs-column conjuncts all clear it.
  bool exhaustive = false;
};

/// \brief Observed per-execution values, filled by the node's Executor
/// (exec/executors.h). Times cover the *sub-plan rooted at the operator*,
/// matching the paper's start-time / run-time semantics (Section 3.2).
struct PlanActuals {
  bool valid = false;
  /// Time until the operator produced its first output tuple (ms).
  double start_time_ms = 0.0;
  /// Total execution time of the sub-plan rooted here (ms).
  double run_time_ms = 0.0;
  /// Actual output tuple count.
  double rows = 0.0;
  /// Actual pages charged by this operator itself.
  double pages = 0.0;
  /// Buffer-pool hits/misses charged by this operator itself (scans only;
  /// composite operators never touch the pool directly). Summed per
  /// execution into ExecutionResult and the trace spans, so a pool shared
  /// with other work cannot leak into this run's accounting.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

/// \brief A node of a physical query plan.
///
/// One struct covers all operator types (payload fields are used per-op);
/// plans are built only by the optimizer and the tests, so the flexibility
/// of a class hierarchy is not worth the indirection here.
struct PlanNode {
  PlanOp op;
  std::vector<std::unique_ptr<PlanNode>> children;
  Schema output_schema;

  // --- scans ---
  const Table* table = nullptr;
  /// For IndexScan: column index (in table schema) of the indexed key and
  /// the expression producing the probe key (bound against an empty outer
  /// row for constant probes, or the outer tuple for index nested-loops).
  int index_column = -1;
  ExprPtr index_probe;

  // --- filter / scan residual predicate / join residual ---
  ExprPtr predicate;

  // --- joins ---
  JoinType join_type = JoinType::kInner;
  /// Equi-join key positions: left child column index, right child column
  /// index (in the children's output schemas).
  std::vector<std::pair<int, int>> join_keys;

  // --- project ---
  std::vector<ExprPtr> projections;

  // --- sort ---
  std::vector<int> sort_keys;
  std::vector<bool> sort_desc;

  // --- aggregate ---
  std::vector<int> group_keys;
  std::vector<AggSpec> aggregates;
  ExprPtr having;  // evaluated against the aggregate output row

  // --- limit ---
  int64_t limit_count = -1;

  /// Relation name for scans (part of the canonical sub-plan identity).
  std::string label;

  /// Pre-order index within its plan; assigned by AssignNodeIds.
  int node_id = -1;

  /// Learned-cardinality identity of the sub-plan rooted here, stamped by
  /// the optimizer when a CardinalityEstimator is attached (0 otherwise):
  /// FNV-1a over the sorted relation set plus normalized predicate shapes
  /// with constants stripped (see card/signature.h). Two sub-plans with the
  /// same signature answer "the same question" regardless of physical
  /// operator choice or join order, so observed cardinalities transfer.
  uint64_t card_signature = 0;
  /// Relation-set hash grouping signatures for near-miss kNN lookup.
  uint64_t card_class = 0;
  /// kNN features for learned estimation (log1p-scaled input and baseline
  /// cardinalities); stamped together with card_signature.
  std::array<double, 3> card_features{};
  /// Normalized per-column bounds of the scan predicate, stamped by the
  /// optimizer alongside card_signature when an estimator is attached (null
  /// otherwise, and always null for non-scan operators). Immutable once
  /// stamped; Clone() aliases the same descriptor instead of copying.
  std::shared_ptr<const PredicateBounds> card_bounds;
  /// Which estimator backend produced est.rows: "hist" (the histogram +
  /// independence baseline) until a learned backend overrides it, then that
  /// backend's name() ("card", "kde", ...). Points at a string literal.
  const char* est_source = "hist";

  PlanEstimates est;
  PlanActuals actual;

  explicit PlanNode(PlanOp o) : op(o) {}

  size_t num_children() const { return children.size(); }
  PlanNode* child(size_t i) { return children[i].get(); }
  const PlanNode* child(size_t i) const { return children[i].get(); }

  /// Number of operators in the sub-plan rooted here.
  int NodeCount() const;

  /// Canonical structural key of the sub-plan rooted at this node:
  /// operator names plus scan relation names, e.g.
  /// "HashJoin(SeqScan:orders,SeqScan:lineitem)". Two sub-plans with equal
  /// keys are "the same plan structure" for hybrid/plan-level modeling and
  /// the Figure 4 analysis.
  std::string StructuralKey() const;

  /// Deep copy of the sub-plan (estimates copied, actuals reset).
  std::unique_ptr<PlanNode> Clone() const;
};

/// \brief A complete plan for one query instance.
struct QueryPlan {
  std::unique_ptr<PlanNode> root;
  /// TPC-H template number (1..22) that generated the query, 0 if ad hoc.
  int template_id = 0;
  /// Human-readable parameter binding summary.
  std::string parameter_desc;

  int NodeCount() const { return root ? root->NodeCount() : 0; }
};

/// Assigns pre-order node ids starting at 0; returns number of nodes.
int AssignNodeIds(PlanNode* root);

/// Pre-order traversal collecting raw pointers.
void CollectNodes(PlanNode* root, std::vector<PlanNode*>* out);
void CollectNodes(const PlanNode* root, std::vector<const PlanNode*>* out);

/// Multi-line EXPLAIN-style rendering of the estimates. Actuals render
/// beside them with obs::ExplainAnalyze.
std::string ExplainPlan(const PlanNode& root);

/// Clears actuals across the plan (called before each execution).
void ResetActuals(PlanNode* root);

}  // namespace qpp
