#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/selectivity.h"
#include "plan/plan.h"

namespace qpp {

/// \brief One SELECT-FROM-WHERE join block: base relations (with aliases for
/// self-joins), equi-join predicates between them, and filter predicates.
///
/// The TPC-H templates decompose into join blocks plus wrapping operators
/// (semi/anti joins from EXISTS/IN rewrites, aggregation, sort, limit); the
/// optimizer picks the join order and physical operators for each block.
struct JoinBlock {
  struct Rel {
    std::string table;
    std::string alias;  // defaults to the table name when empty
  };
  std::vector<Rel> relations;
  /// Equi-join predicates as (column, column) qualified names.
  std::vector<std::pair<std::string, std::string>> equi_preds;
  /// Filters; each is pushed to its relation's scan when it references only
  /// that relation, otherwise applied at the first join covering it.
  std::vector<ExprPtr> filters;

  void AddRelation(std::string table, std::string alias = "") {
    relations.push_back({std::move(table), std::move(alias)});
  }
  void AddJoin(std::string left_col, std::string right_col) {
    equi_preds.emplace_back(std::move(left_col), std::move(right_col));
  }
  void AddFilter(ExprPtr f) { filters.push_back(std::move(f)); }
};

/// Infers the result type of an (unbound) expression against a schema.
TypeId InferType(const Expr& e, const Schema& schema);

/// Result type of an aggregate over an argument of the given type.
TypeId AggResultType(AggFunc func, TypeId arg_type);

/// \brief System-R style cost-based optimizer over the engine's statistics:
/// selectivity estimation from ANALYZE stats, dynamic-programming join
/// enumeration (avoiding cross products when possible), physical operator
/// choice among hash/merge/materialized-nested-loop joins, and a
/// PostgreSQL-shaped cost model. Every node it produces carries the
/// PlanEstimates the QPP feature extractors read — this is the "EXPLAIN"
/// surface of the engine.
class Optimizer {
 public:
  explicit Optimizer(const Database* db, CostModel cm = CostModel());

  /// Optimizes a join block to a physical plan. An unqualified column name
  /// that two of the block's relations own is rejected as ambiguous.
  Result<std::unique_ptr<PlanNode>> OptimizeJoinBlock(JoinBlock block);

  // --- Plan-construction helpers -------------------------------------------
  // Each computes the node's output schema and cost/cardinality estimates.

  /// Sequential scan with an optional pushed-down filter. Column names in
  /// the output schema are qualified "alias.col" when an alias differing
  /// from the table name is given.
  Result<std::unique_ptr<PlanNode>> MakeScan(const std::string& table_name,
                                             const std::string& alias,
                                             ExprPtr filter);

  /// Index scan by a constant key with optional residual filter.
  Result<std::unique_ptr<PlanNode>> MakeIndexScan(const std::string& table_name,
                                                  const std::string& alias,
                                                  const std::string& key_column,
                                                  ExprPtr probe, ExprPtr filter);

  /// Join of two plans on named equi-keys. `op` selects the physical join
  /// (hash/merge/NL); merge joins get Sort children inserted automatically.
  Result<std::unique_ptr<PlanNode>> MakeJoin(
      PlanOp op, JoinType type, std::unique_ptr<PlanNode> left,
      std::unique_ptr<PlanNode> right,
      const std::vector<std::pair<std::string, std::string>>& key_names,
      ExprPtr residual);

  Result<std::unique_ptr<PlanNode>> MakeFilter(std::unique_ptr<PlanNode> child,
                                               ExprPtr predicate);

  /// Projection; output column i is named `names[i]`.
  Result<std::unique_ptr<PlanNode>> MakeProject(std::unique_ptr<PlanNode> child,
                                                std::vector<ExprPtr> exprs,
                                                std::vector<std::string> names);

  /// Aggregation grouped by named child columns. Chooses GroupAggregate
  /// when `input_sorted` (the caller added a matching Sort), otherwise
  /// HashAggregate. HAVING references group columns / aggregate output
  /// names.
  Result<std::unique_ptr<PlanNode>> MakeAggregate(
      std::unique_ptr<PlanNode> child, const std::vector<std::string>& group_cols,
      std::vector<AggSpec> aggs, ExprPtr having, bool input_sorted = false);

  Result<std::unique_ptr<PlanNode>> MakeSort(std::unique_ptr<PlanNode> child,
                                             const std::vector<std::string>& keys,
                                             const std::vector<bool>& desc);

  std::unique_ptr<PlanNode> MakeLimit(std::unique_ptr<PlanNode> child,
                                      int64_t count);

  std::unique_ptr<PlanNode> MakeMaterialize(std::unique_ptr<PlanNode> child);

  /// Stats lookup by (qualified) column name across all relations this
  /// optimizer has scanned plus all base tables.
  StatsResolver GetStatsResolver() const;

  const CostModel& cost_model() const { return cm_; }

  /// Attaches a cardinality backend consulted after the histogram baseline
  /// for every Scan/Join/Aggregate estimate (see optimizer/cardinality.h).
  /// With an estimator attached the optimizer also stamps
  /// card_signature/card_class/card_features on those nodes so executed
  /// plans can be harvested. Null (the default) disables both: planning is
  /// bit-identical to the pre-feedback optimizer, with zero added work.
  /// The estimator is borrowed and must outlive this optimizer.
  void set_cardinality_estimator(const CardinalityEstimator* estimator) {
    card_estimator_ = estimator;
  }
  const CardinalityEstimator* cardinality_estimator() const {
    return card_estimator_;
  }

 private:
  /// A join's equi-keys resolved against its two inputs' schemas.
  struct JoinKeys {
    /// (left, right) column positions in the inputs' output schemas.
    std::vector<std::pair<int, int>> positions;
    /// The key names as given, oriented (left, right).
    std::vector<std::pair<std::string, std::string>> names;
  };

  /// Resolves named equi-keys, accepting either (left, right) or
  /// (right, left) naming per pair.
  static Result<JoinKeys> ResolveJoinKeys(
      const Schema& left, const Schema& right,
      const std::vector<std::pair<std::string, std::string>>& key_names);

  /// Statistics of a (qualified) column, as GetStatsResolver resolves
  /// them; null when none exist. Allocates nothing.
  const ColumnStats* LookupStats(const std::string& name) const;

  /// ndistinct for a named column, or fallback when no stats.
  double NDistinct(const std::string& column) const;

  /// Selectivity of one equi-key pair under independence: one over the
  /// larger ndistinct of the two columns.
  double KeySelectivity(const std::string& a, const std::string& b) const;

  /// Histogram + independence estimate of a join's output rows from its
  /// inputs' row counts (each at least 1), before any learned override.
  double JoinRows(JoinType type, const JoinKeys& keys, double rows_l,
                  double rows_r, const Expr* residual) const;

  /// Builds a join node over its inputs (sorting both for a merge join,
  /// materializing a nested loop's inner side) with its output schema and
  /// predicate; the join's own estimates are left to the caller.
  std::unique_ptr<PlanNode> AssembleJoin(PlanOp op, JoinType type,
                                         std::unique_ptr<PlanNode> left,
                                         std::unique_ptr<PlanNode> right,
                                         JoinKeys keys, ExprPtr residual);

  /// Asks the attached estimator `query`; the learned row estimate (rounded,
  /// at least one row) or nullopt.
  std::optional<double> Consult(const CardinalityQuery& query) const;

  /// Stamps card signature/features on `node` and consults the attached
  /// estimator. Returns the learned row estimate when one applies, nullopt
  /// otherwise (including whenever no estimator is attached).
  /// Pre: node->est.rows holds the histogram baseline and the node's
  /// children/predicates are fully attached.
  std::optional<double> ConsultCardinality(PlanNode* node);

  const Database* db_;
  CostModel cm_;
  const CardinalityEstimator* card_estimator_ = nullptr;
  /// Hashes std::string and std::string_view alike, so a qualified name's
  /// alias is looked up without copying it out.
  struct AliasHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// alias -> table registered by MakeScan (for qualified stats lookups).
  std::unordered_map<std::string, const Table*, AliasHash, std::equal_to<>>
      alias_tables_;
};

}  // namespace qpp
