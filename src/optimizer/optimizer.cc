#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "card/signature.h"

namespace qpp {
namespace {

constexpr double kDefaultNDistinct = 200.0;

double Log2Safe(double n) { return n > 2 ? std::log2(n) : 1.0; }

// Width estimate for a single output column.
double ColumnWidth(const Schema::Column& c) {
  if (c.type == TypeId::kString) return (c.modifier > 0 ? c.modifier : 16) + 16;
  return 8;
}

// Estimates of a Sort over an input with estimates `in`: MakeSort and both
// inputs of a merge join.
PlanEstimates SortEstimates(const PlanEstimates& in, const CostModel& cm) {
  PlanEstimates est;
  const double n = std::max(1.0, in.rows);
  est.rows = in.rows;
  est.width = in.width;
  est.pages = n * in.width / BufferPool::kPageSize;
  est.selectivity = 1.0;
  est.startup_cost = in.total_cost + 2.0 * n * Log2Safe(n) * cm.cpu_operator_cost;
  est.total_cost = est.startup_cost + n * cm.cpu_operator_cost;
  return est;
}

// Estimates of a Materialize over `in`: MakeMaterialize and the inner side
// of a nested-loop join.
PlanEstimates MaterializeEstimates(const PlanEstimates& in,
                                   const CostModel& cm) {
  PlanEstimates est;
  const double n = std::max(1.0, in.rows);
  est.rows = in.rows;
  est.width = in.width;
  est.pages = n * in.width / BufferPool::kPageSize;
  est.selectivity = 1.0;
  est.startup_cost = in.startup_cost;
  est.total_cost = in.total_cost + n * cm.cpu_operator_cost;
  return est;
}

// Estimates of a join producing `rows` from inputs with estimates `l` and
// `r`, as the join reads them: a merge join's inputs sorted, a nested
// loop's inner side materialized. MakeJoin and the join enumeration both
// cost joins through this one function.
PlanEstimates JoinEstimates(PlanOp op, JoinType type, const PlanEstimates& l,
                            const PlanEstimates& r, size_t num_keys,
                            double rows, const CostModel& cm) {
  const double rows_l = std::max(1.0, l.rows);
  const double rows_r = std::max(1.0, r.rows);
  const double nkeys = std::max<double>(1.0, static_cast<double>(num_keys));
  PlanEstimates est;
  est.rows = rows;
  est.width = (type == JoinType::kInner || type == JoinType::kLeftOuter)
                  ? l.width + r.width
                  : l.width;
  est.pages = 0.0;
  est.selectivity = (type == JoinType::kSemi || type == JoinType::kAnti)
                        ? rows / rows_l
                        : rows / (rows_l * rows_r);
  switch (op) {
    case PlanOp::kHashJoin:
      est.startup_cost = r.total_cost +
                         rows_r * (nkeys * cm.cpu_operator_cost +
                                   cm.cpu_tuple_cost);
      est.total_cost = est.startup_cost + l.total_cost +
                       rows_l * nkeys * cm.cpu_operator_cost +
                       rows * cm.cpu_tuple_cost;
      break;
    case PlanOp::kMergeJoin:
      est.startup_cost = l.startup_cost + r.startup_cost;
      est.total_cost = l.total_cost + r.total_cost +
                       (rows_l + rows_r) * nkeys * cm.cpu_operator_cost +
                       rows * cm.cpu_tuple_cost;
      break;
    case PlanOp::kNestedLoopJoin:
    default:
      est.startup_cost = l.startup_cost + r.startup_cost;
      est.total_cost = l.total_cost + r.total_cost +
                       rows_l * rows_r * cm.cpu_operator_cost +
                       rows * cm.cpu_tuple_cost;
      break;
  }
  return est;
}

std::unique_ptr<PlanNode> SortOn(std::unique_ptr<PlanNode> child,
                                 std::vector<int> keys, std::vector<bool> desc,
                                 const CostModel& cm) {
  auto node = std::make_unique<PlanNode>(PlanOp::kSort);
  node->sort_keys = std::move(keys);
  node->sort_desc = std::move(desc);
  node->output_schema = child->output_schema;
  node->est = SortEstimates(child->est, cm);
  node->children.push_back(std::move(child));
  return node;
}

// Output schema of a join: the left input's columns, then the right
// input's for joins that emit them.
Schema JoinSchema(JoinType type, const Schema& left, const Schema& right) {
  std::vector<Schema::Column> cols = left.columns();
  if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
    for (const auto& c : right.columns()) cols.push_back(c);
  }
  return Schema(std::move(cols));
}

// A nested-loop join executes through its predicate rather than key
// indices: the key equalities conjoined with the residual.
ExprPtr NestedLoopPredicate(
    const std::vector<std::pair<std::string, std::string>>& key_names,
    ExprPtr residual) {
  std::vector<ExprPtr> conj;
  for (const auto& [lname, rname] : key_names) {
    conj.push_back(Eq(Col(lname), Col(rname)));
  }
  if (residual != nullptr) conj.push_back(std::move(residual));
  if (conj.empty()) return nullptr;
  return conj.size() == 1 ? std::move(conj[0]) : And(std::move(conj));
}

}  // namespace

TypeId InferType(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case Expr::Kind::kColumnRef: {
      auto idx = ResolveColumn(schema,
                               static_cast<const ColumnRefExpr&>(e).name());
      if (!idx.ok()) return TypeId::kNull;
      return schema.column(static_cast<size_t>(*idx)).type;
    }
    case Expr::Kind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value().type();
    case Expr::Kind::kComparison:
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
    case Expr::Kind::kLike:
    case Expr::Kind::kInList:
    case Expr::Kind::kIsNull:
      return TypeId::kBool;
    case Expr::Kind::kArith: {
      const auto children = e.Children();
      const TypeId l = InferType(*children[0], schema);
      const TypeId r = InferType(*children[1], schema);
      if (l == TypeId::kDate || r == TypeId::kDate) return TypeId::kDate;
      if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
      if (l == TypeId::kDecimal || r == TypeId::kDecimal) return TypeId::kDecimal;
      return TypeId::kInt64;
    }
    case Expr::Kind::kCase: {
      // Type of the first THEN branch.
      const auto children = e.Children();
      if (children.size() >= 2) return InferType(*children[1], schema);
      return TypeId::kNull;
    }
    case Expr::Kind::kExtractYear:
      return TypeId::kInt64;
    case Expr::Kind::kSubstring:
      return TypeId::kString;
  }
  return TypeId::kNull;
}

TypeId AggResultType(AggFunc func, TypeId arg_type) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kCountDistinct:
      return TypeId::kInt64;
    case AggFunc::kSum:
      return arg_type == TypeId::kDecimal ? TypeId::kDecimal
             : arg_type == TypeId::kDouble ? TypeId::kDouble
                                           : TypeId::kInt64;
    case AggFunc::kAvg:
      return arg_type == TypeId::kDecimal ? TypeId::kDecimal : TypeId::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return TypeId::kNull;
}

Optimizer::Optimizer(const Database* db, CostModel cm) : db_(db), cm_(cm) {}

StatsResolver Optimizer::GetStatsResolver() const {
  return [this](const std::string& name) -> const ColumnStats* {
    const size_t dot = name.find('.');
    if (dot != std::string::npos) {
      const std::string alias = name.substr(0, dot);
      const std::string col = name.substr(dot + 1);
      auto it = alias_tables_.find(alias);
      if (it == alias_tables_.end()) return nullptr;
      const TableStats* ts = db_->GetStats(it->second->id());
      return ts == nullptr ? nullptr : ts->Column(col);
    }
    for (const Table* t : db_->tables()) {
      if (t->schema().FindColumn(name) >= 0) {
        const TableStats* ts = db_->GetStats(t->id());
        return ts == nullptr ? nullptr : ts->Column(name);
      }
    }
    return nullptr;
  };
}

double Optimizer::NDistinct(const std::string& column) const {
  const ColumnStats* cs = GetStatsResolver()(column);
  if (cs == nullptr) return kDefaultNDistinct;
  return std::max(1.0, cs->ndistinct);
}

std::optional<double> Optimizer::ConsultCardinality(PlanNode* node) {
  if (card_estimator_ == nullptr) return std::nullopt;
  const card::NodeSignature sig = card::ComputePlanNodeSignature(*node);
  if (sig.signature == 0) return std::nullopt;
  node->card_signature = sig.signature;
  node->card_class = sig.class_hash;
  // Features must reflect the histogram baseline (node->est.rows at this
  // point), never a learned override — otherwise harvested observations
  // would be keyed by their own corrections.
  node->card_features = card::ComputeCardFeatures(*node);
  // Base-table scans additionally carry the normalized predicate-bounds
  // descriptor, the input sample-backed backends (src/kde) evaluate jointly.
  // Index scans are excluded: their probe key filters through index
  // semantics the descriptor cannot express.
  if (node->op == PlanOp::kSeqScan && node->table != nullptr &&
      node->card_bounds == nullptr) {
    node->card_bounds = std::make_shared<const PredicateBounds>(
        ExtractPredicateBounds(node->predicate.get(), *node->table,
                               node->label));
  }
  CardinalityQuery query;
  query.signature = sig.signature;
  query.class_hash = sig.class_hash;
  query.features = node->card_features;
  query.histogram_rows = node->est.rows;
  query.bounds = node->card_bounds.get();
  const std::optional<double> learned = Consult(query);
  if (learned.has_value()) node->est_source = card_estimator_->name();
  return learned;
}

std::optional<double> Optimizer::Consult(const CardinalityQuery& query) const {
  const std::optional<double> learned = card_estimator_->EstimateRows(query);
  if (!learned.has_value()) return std::nullopt;
  return std::max(1.0, std::round(*learned));
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeScan(
    const std::string& table_name, const std::string& alias, ExprPtr filter) {
  const Table* table = db_->GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const std::string label = alias.empty() ? table_name : alias;
  alias_tables_[label] = table;

  auto node = std::make_unique<PlanNode>(PlanOp::kSeqScan);
  node->table = table;
  node->label = label;
  std::vector<Schema::Column> cols;
  for (const auto& c : table->schema().columns()) {
    Schema::Column qc = c;
    if (label != table_name) qc.name = label + "." + c.name;
    cols.push_back(qc);
  }
  node->output_schema = Schema(std::move(cols));

  node->predicate = std::move(filter);
  double sel = 1.0;
  int qual_count = 0;
  if (node->predicate != nullptr) {
    sel = EstimateSelectivity(*node->predicate, GetStatsResolver(), cm_);
    qual_count = 1;
  }
  const double in_rows = static_cast<double>(table->num_rows());
  const double pages = static_cast<double>(table->num_pages());
  node->est.rows = std::max(1.0, std::round(in_rows * sel));
  node->est.width = table->schema().EstimatedRowWidth();
  node->est.pages = pages;
  node->est.selectivity = sel;
  node->est.startup_cost = 0.0;
  node->est.total_cost = pages * cm_.seq_page_cost +
                         in_rows * cm_.cpu_tuple_cost +
                         in_rows * qual_count * cm_.cpu_operator_cost;
  // Scan costs depend on input rows/pages only, so a learned override of
  // the output estimate leaves them untouched.
  if (const std::optional<double> learned = ConsultCardinality(node.get())) {
    node->est.rows = *learned;
    node->est.selectivity = std::min(1.0, *learned / std::max(1.0, in_rows));
  }
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeIndexScan(
    const std::string& table_name, const std::string& alias,
    const std::string& key_column, ExprPtr probe, ExprPtr filter) {
  const Table* table = db_->GetTable(table_name);
  if (table == nullptr) return Status::NotFound("table " + table_name);
  const int col = table->schema().FindColumn(key_column);
  if (col < 0) return Status::NotFound("column " + key_column);
  if (!table->HasIndex(col)) {
    return Status::InvalidArgument("no index on " + table_name + "." +
                                   key_column);
  }
  const std::string label = alias.empty() ? table_name : alias;
  alias_tables_[label] = table;

  auto node = std::make_unique<PlanNode>(PlanOp::kIndexScan);
  node->table = table;
  node->label = label;
  node->index_column = col;
  node->index_probe = std::move(probe);
  std::vector<Schema::Column> cols;
  for (const auto& c : table->schema().columns()) {
    Schema::Column qc = c;
    if (label != table_name) qc.name = label + "." + c.name;
    cols.push_back(qc);
  }
  node->output_schema = Schema(std::move(cols));

  node->predicate = std::move(filter);
  const double in_rows = static_cast<double>(table->num_rows());
  const double eq_sel = std::min(1.0, 1.0 / NDistinct(key_column));
  double sel = eq_sel;
  if (node->predicate != nullptr) {
    sel *= EstimateSelectivity(*node->predicate, GetStatsResolver(), cm_);
  }
  const double matches = std::max(1.0, in_rows * eq_sel);
  node->est.rows = std::max(1.0, std::round(in_rows * sel));
  node->est.width = table->schema().EstimatedRowWidth();
  node->est.pages = matches;  // one random page per match, worst case
  node->est.selectivity = sel;
  node->est.startup_cost = 0.0;
  node->est.total_cost = matches * cm_.random_page_cost +
                         matches * cm_.cpu_index_tuple_cost +
                         matches * cm_.cpu_tuple_cost;
  // Index probe costs are driven by the key's match count, not the output
  // estimate, so the learned override leaves them untouched.
  if (const std::optional<double> learned = ConsultCardinality(node.get())) {
    node->est.rows = *learned;
    node->est.selectivity = std::min(1.0, *learned / std::max(1.0, in_rows));
  }
  return node;
}

Result<Optimizer::JoinKeys> Optimizer::ResolveJoinKeys(
    const Schema& left, const Schema& right,
    const std::vector<std::pair<std::string, std::string>>& key_names) {
  JoinKeys keys;
  for (const auto& [a, b] : key_names) {
    auto la = ResolveColumn(left, a);
    auto rb = ResolveColumn(right, b);
    if (la.ok() && rb.ok()) {
      keys.positions.emplace_back(*la, *rb);
      keys.names.emplace_back(a, b);
      continue;
    }
    auto lb = ResolveColumn(left, b);
    auto ra = ResolveColumn(right, a);
    if (lb.ok() && ra.ok()) {
      keys.positions.emplace_back(*lb, *ra);
      keys.names.emplace_back(b, a);
      continue;
    }
    return Status::InvalidArgument("cannot resolve join keys " + a + " = " + b);
  }
  return keys;
}

double Optimizer::JoinRows(JoinType type, const JoinKeys& keys, double rows_l,
                           double rows_r, const Expr* residual) const {
  double out_rows;
  if (type == JoinType::kSemi || type == JoinType::kAnti) {
    double match_frac = keys.names.empty() ? 0.5 : 1.0;
    for (const auto& [lname, rname] : keys.names) {
      match_frac *= std::min(1.0, NDistinct(rname) / NDistinct(lname));
    }
    if (type == JoinType::kAnti) match_frac = 1.0 - match_frac;
    match_frac = std::clamp(match_frac, 0.0, 1.0);
    out_rows = rows_l * match_frac;
  } else {
    double sel = 1.0;
    for (const auto& [lname, rname] : keys.names) {
      sel *= 1.0 / std::max(NDistinct(lname), NDistinct(rname));
    }
    out_rows = rows_l * rows_r * sel;
    if (type == JoinType::kLeftOuter) out_rows = std::max(out_rows, rows_l);
  }
  if (residual != nullptr) {
    out_rows *= EstimateSelectivity(*residual, GetStatsResolver(), cm_);
  }
  return std::max(1.0, std::round(out_rows));
}

std::unique_ptr<PlanNode> Optimizer::AssembleJoin(
    PlanOp op, JoinType type, std::unique_ptr<PlanNode> left,
    std::unique_ptr<PlanNode> right, JoinKeys keys, ExprPtr residual) {
  if (op == PlanOp::kMergeJoin) {
    std::vector<int> left_keys, right_keys;
    for (const auto& [l, r] : keys.positions) {
      left_keys.push_back(l);
      right_keys.push_back(r);
    }
    const std::vector<bool> asc(keys.positions.size(), false);
    left = SortOn(std::move(left), std::move(left_keys), asc, cm_);
    right = SortOn(std::move(right), std::move(right_keys), asc, cm_);
  }
  if (op == PlanOp::kNestedLoopJoin && right->op != PlanOp::kMaterialize) {
    right = MakeMaterialize(std::move(right));
  }

  auto node = std::make_unique<PlanNode>(op);
  node->join_type = type;
  node->output_schema =
      JoinSchema(type, left->output_schema, right->output_schema);
  node->predicate = op == PlanOp::kNestedLoopJoin
                        ? NestedLoopPredicate(keys.names, std::move(residual))
                        : std::move(residual);
  node->join_keys = std::move(keys.positions);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeJoin(
    PlanOp op, JoinType type, std::unique_ptr<PlanNode> left,
    std::unique_ptr<PlanNode> right,
    const std::vector<std::pair<std::string, std::string>>& key_names,
    ExprPtr residual) {
  if (op != PlanOp::kHashJoin && op != PlanOp::kMergeJoin &&
      op != PlanOp::kNestedLoopJoin) {
    return Status::InvalidArgument("not a join operator");
  }
  if (op == PlanOp::kMergeJoin && type != JoinType::kInner) {
    return Status::NotImplemented("merge join supports inner joins only");
  }
  QPP_ASSIGN_OR_RETURN(
      JoinKeys keys,
      ResolveJoinKeys(left->output_schema, right->output_schema, key_names));
  double rows = JoinRows(type, keys, std::max(1.0, left->est.rows),
                         std::max(1.0, right->est.rows), residual.get());
  auto node = AssembleJoin(op, type, std::move(left), std::move(right),
                           std::move(keys), std::move(residual));
  node->est.rows = rows;
  // Consult before costing, so a corrected cardinality reaches the cost
  // (as for the splits OptimizeJoinBlock costs).
  if (const std::optional<double> learned = ConsultCardinality(node.get())) {
    rows = *learned;
  }
  node->est = JoinEstimates(op, type, node->child(0)->est,
                            node->child(1)->est, node->join_keys.size(), rows,
                            cm_);
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeFilter(
    std::unique_ptr<PlanNode> child, ExprPtr predicate) {
  auto node = std::make_unique<PlanNode>(PlanOp::kFilter);
  const double sel =
      EstimateSelectivity(*predicate, GetStatsResolver(), cm_);
  node->output_schema = child->output_schema;
  node->est.rows = std::max(1.0, std::round(child->est.rows * sel));
  node->est.width = child->est.width;
  node->est.selectivity = sel;
  node->est.startup_cost = child->est.startup_cost;
  node->est.total_cost =
      child->est.total_cost + child->est.rows * cm_.cpu_operator_cost;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeProject(
    std::unique_ptr<PlanNode> child, std::vector<ExprPtr> exprs,
    std::vector<std::string> names) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("projection arity mismatch");
  }
  auto node = std::make_unique<PlanNode>(PlanOp::kProject);
  std::vector<Schema::Column> cols;
  double width = 0;
  for (size_t i = 0; i < exprs.size(); ++i) {
    const TypeId t = InferType(*exprs[i], child->output_schema);
    Schema::Column c{names[i], t, t == TypeId::kDecimal ? 4 : 0};
    width += ColumnWidth(c);
    cols.push_back(std::move(c));
  }
  node->output_schema = Schema(std::move(cols));
  node->est.rows = child->est.rows;
  node->est.width = width;
  node->est.selectivity = 1.0;
  node->est.startup_cost = child->est.startup_cost;
  node->est.total_cost =
      child->est.total_cost +
      child->est.rows * static_cast<double>(exprs.size()) *
          cm_.cpu_operator_cost;
  node->projections = std::move(exprs);
  node->children.push_back(std::move(child));
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeAggregate(
    std::unique_ptr<PlanNode> child, const std::vector<std::string>& group_cols,
    std::vector<AggSpec> aggs, ExprPtr having, bool input_sorted) {
  auto node = std::make_unique<PlanNode>(
      input_sorted ? PlanOp::kGroupAggregate : PlanOp::kHashAggregate);

  std::vector<Schema::Column> cols;
  double groups = 1.0;
  for (const auto& g : group_cols) {
    QPP_ASSIGN_OR_RETURN(int idx, ResolveColumn(child->output_schema, g));
    node->group_keys.push_back(idx);
    cols.push_back(child->output_schema.column(static_cast<size_t>(idx)));
    groups *= NDistinct(g);
  }
  for (const auto& a : aggs) {
    const TypeId arg_type =
        a.arg ? InferType(*a.arg, child->output_schema) : TypeId::kInt64;
    const TypeId out = AggResultType(a.func, arg_type);
    cols.push_back({a.output_name, out, out == TypeId::kDecimal ? 4 : 0});
  }
  node->output_schema = Schema(std::move(cols));
  // Attach inputs before estimation so the learned-cardinality consultation
  // sees the aggregate's group keys, HAVING clause and child sub-plan.
  node->aggregates = std::move(aggs);
  node->having = std::move(having);
  node->children.push_back(std::move(child));
  const PlanNode& ch = *node->children[0];

  const double in_rows = std::max(1.0, ch.est.rows);
  groups = group_cols.empty() ? 1.0 : std::min(groups, in_rows);
  double having_sel = 1.0;
  if (node->having != nullptr) {
    // HAVING predicates reference aggregate outputs, for which no column
    // statistics exist — the planner falls back to defaults, one of the
    // systematic estimation errors (cf. the paper's template-18 example).
    having_sel = EstimateSelectivity(*node->having, GetStatsResolver(), cm_);
  }
  double out_rows = std::max(1.0, std::round(groups * having_sel));
  const double agg_ops = static_cast<double>(
      node->aggregates.size() + node->group_keys.size());

  node->est.rows = out_rows;
  // Distinct-group counts are exactly what feedback corrects best: the
  // grouped output size repeats across parameter bindings of a template.
  if (const std::optional<double> learned = ConsultCardinality(node.get())) {
    out_rows = *learned;
    node->est.rows = out_rows;
  }
  double width = 0;
  for (const auto& c : node->output_schema.columns()) width += ColumnWidth(c);
  node->est.width = width;
  node->est.selectivity = std::min(1.0, out_rows / in_rows);
  if (node->op == PlanOp::kHashAggregate) {
    node->est.startup_cost =
        ch.est.total_cost + in_rows * agg_ops * cm_.cpu_operator_cost;
    node->est.total_cost =
        node->est.startup_cost + groups * cm_.cpu_tuple_cost;
  } else {
    node->est.startup_cost = ch.est.startup_cost;
    node->est.total_cost = ch.est.total_cost +
                           in_rows * agg_ops * cm_.cpu_operator_cost +
                           groups * cm_.cpu_tuple_cost;
  }
  return node;
}

Result<std::unique_ptr<PlanNode>> Optimizer::MakeSort(
    std::unique_ptr<PlanNode> child, const std::vector<std::string>& keys,
    const std::vector<bool>& desc) {
  if (keys.size() != desc.size()) {
    return Status::InvalidArgument("sort keys/directions mismatch");
  }
  std::vector<int> positions;
  for (const auto& k : keys) {
    QPP_ASSIGN_OR_RETURN(int idx, ResolveColumn(child->output_schema, k));
    positions.push_back(idx);
  }
  return SortOn(std::move(child), std::move(positions), desc, cm_);
}

std::unique_ptr<PlanNode> Optimizer::MakeLimit(std::unique_ptr<PlanNode> child,
                                               int64_t count) {
  auto node = std::make_unique<PlanNode>(PlanOp::kLimit);
  node->limit_count = count;
  node->output_schema = child->output_schema;
  const double in_rows = std::max(1.0, child->est.rows);
  const double out_rows =
      std::min<double>(static_cast<double>(count), in_rows);
  const double fraction = out_rows / in_rows;
  node->est.rows = out_rows;
  node->est.width = child->est.width;
  node->est.selectivity = fraction;
  node->est.startup_cost = child->est.startup_cost;
  node->est.total_cost =
      child->est.startup_cost +
      (child->est.total_cost - child->est.startup_cost) * fraction;
  node->children.push_back(std::move(child));
  return node;
}

std::unique_ptr<PlanNode> Optimizer::MakeMaterialize(
    std::unique_ptr<PlanNode> child) {
  auto node = std::make_unique<PlanNode>(PlanOp::kMaterialize);
  node->output_schema = child->output_schema;
  node->est = MaterializeEstimates(child->est, cm_);
  node->children.push_back(std::move(child));
  return node;
}

// ----------------------------- join enumeration ----------------------------

Result<std::unique_ptr<PlanNode>> Optimizer::OptimizeJoinBlock(JoinBlock block) {
  const size_t n = block.relations.size();
  if (n == 0) return Status::InvalidArgument("empty join block");
  if (n > 12) return Status::InvalidArgument("too many relations (max 12)");

  // Resolve aliases.
  std::vector<std::string> aliases(n);
  for (size_t i = 0; i < n; ++i) {
    aliases[i] = block.relations[i].alias.empty() ? block.relations[i].table
                                                  : block.relations[i].alias;
  }
  // Maps a (possibly qualified) column name to the relation index owning
  // it, -1 when none does. An unqualified name that two relations own (a
  // self-join's columns) is ambiguous, as ResolveColumn treats it.
  auto owner_of = [&](const std::string& name) -> Result<int> {
    const size_t dot = name.find('.');
    if (dot != std::string::npos) {
      const std::string alias = name.substr(0, dot);
      for (size_t i = 0; i < n; ++i) {
        if (aliases[i] == alias) return static_cast<int>(i);
      }
      return -1;
    }
    int owner = -1;
    for (size_t i = 0; i < n; ++i) {
      const Table* t = db_->GetTable(block.relations[i].table);
      if (t == nullptr || t->schema().FindColumn(name) < 0) continue;
      if (owner >= 0) {
        return Status::InvalidArgument("ambiguous column " + name + " (" +
                                       aliases[static_cast<size_t>(owner)] +
                                       ", " + aliases[i] + ")");
      }
      owner = static_cast<int>(i);
    }
    return owner;
  };

  // Partition filters into single-relation (pushed to scans) and
  // multi-relation (applied at the covering join).
  std::vector<std::vector<ExprPtr>> pushed(n);
  struct PendingFilter {
    uint32_t rel_mask;
    ExprPtr expr;
  };
  std::vector<PendingFilter> pending;
  for (auto& f : block.filters) {
    std::vector<std::string> columns;
    f->CollectColumns(&columns);
    uint32_t mask = 0;
    bool resolvable = true;
    for (const auto& c : columns) {
      QPP_ASSIGN_OR_RETURN(const int owner, owner_of(c));
      if (owner < 0) {
        resolvable = false;
        break;
      }
      mask |= 1u << owner;
    }
    if (!resolvable || mask == 0) {
      return Status::InvalidArgument("cannot place filter: " + f->ToString());
    }
    if ((mask & (mask - 1)) == 0) {
      // single relation
      int rel = 0;
      while (!(mask & (1u << rel))) ++rel;
      pushed[static_cast<size_t>(rel)].push_back(std::move(f));
    } else {
      pending.push_back({mask, std::move(f)});
    }
  }

  // Resolve equi-join predicates to relation pairs.
  struct EquiPred {
    int rel_a, rel_b;
    std::string col_a, col_b;
  };
  std::vector<EquiPred> preds;
  for (const auto& [a, b] : block.equi_preds) {
    QPP_ASSIGN_OR_RETURN(const int ra, owner_of(a));
    QPP_ASSIGN_OR_RETURN(const int rb, owner_of(b));
    if (ra < 0 || rb < 0 || ra == rb) {
      return Status::InvalidArgument("bad equi-join predicate " + a + "=" + b);
    }
    preds.push_back({ra, rb, a, b});
  }

  // Cost-first DP over relation subsets. Each subset keeps the recipe of
  // its cheapest plan rather than the plan: every split is costed from its
  // two inputs' estimates alone, and only the winning plan is built, once,
  // at the end. The three physical joins of a split answer one cardinality
  // question: Sort and Materialize copy their input's rows, and a nested
  // loop's key conjuncts drop out of its signature. So each split is
  // estimated, and the estimator consulted, once for all three.
  struct CardEstimate {
    double rows = 0.0;  // output rows, learned when the estimator answered
    card::SignatureParts parts;  // the sub-plan's, memoized for ancestors
    card::NodeSignature sig;
    std::array<double, 3> features{};
    const char* source = "hist";
  };
  struct Best {
    bool found = false;
    std::unique_ptr<PlanNode> scan;  // single relations
    uint32_t left = 0, right = 0;    // joins: the winning split
    PlanOp op = PlanOp::kHashJoin;
    JoinKeys keys;
    ExprPtr residual;
    Schema schema;
    PlanEstimates est;
    CardEstimate card;
  };
  const bool stamp = card_estimator_ != nullptr;
  const uint32_t full = n >= 32 ? 0xFFFFFFFFu : (1u << n) - 1;
  std::vector<Best> best(full + 1);

  for (size_t i = 0; i < n; ++i) {
    ExprPtr filter;
    if (pushed[i].size() == 1) {
      filter = std::move(pushed[i][0]);
    } else if (pushed[i].size() > 1) {
      filter = And(std::move(pushed[i]));
    }
    Best& b = best[1u << i];
    QPP_ASSIGN_OR_RETURN(b.scan, MakeScan(block.relations[i].table, aliases[i],
                                          std::move(filter)));
    b.found = true;
    b.schema = b.scan->output_schema;
    b.est = b.scan->est;
    if (stamp) b.card.parts = card::CollectSignatureParts(*b.scan);
  }

  // The cardinality of joining `l` and `r` into a node whose own signature
  // descriptor is `descriptor`, given its histogram baseline.
  const auto estimate = [&](const Best& l, const Best& r, double hist_rows,
                            std::string descriptor) {
    CardEstimate e;
    e.rows = hist_rows;
    e.parts = card::MergeSignatureParts(l.card.parts, r.card.parts,
                                        std::move(descriptor));
    const card::NodeSignature sig = card::HashSignatureParts(e.parts);
    if (sig.signature == 0) return e;
    e.sig = sig;
    e.features = card::JoinCardFeatures(l.est.rows, r.est.rows, hist_rows);
    CardinalityQuery query;
    query.signature = sig.signature;
    query.class_hash = sig.class_hash;
    query.features = e.features;
    query.histogram_rows = hist_rows;
    if (const std::optional<double> learned = Consult(query)) {
      e.rows = *learned;
      e.source = card_estimator_->name();
    }
    return e;
  };

  auto covered_by = [&](uint32_t rel_mask, uint32_t mask) {
    return (rel_mask & mask) == rel_mask;
  };

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // single relation
    Best& cur = best[mask];
    // Try connected splits first; fall back to cross products.
    for (int pass = 0; pass < 2 && !cur.found; ++pass) {
      for (uint32_t left = (mask - 1) & mask; left != 0;
           left = (left - 1) & mask) {
        const uint32_t right = mask & ~left;
        if (right == 0) continue;
        // Left-deep enumeration (System R): the build/inner side is always
        // a base relation. Besides keeping the search small, this
        // normalizes plan shapes so that equivalent query fragments compile
        // to identical sub-plan structures across templates — the sharing
        // that Figure 4 of the paper observes and hybrid/online modeling
        // exploits.
        if ((right & (right - 1)) != 0) continue;
        const Best& lb = best[left];
        const Best& rb = best[right];
        if (!lb.found || !rb.found) continue;

        // Keys connecting the two sides (oriented left, right).
        std::vector<std::pair<std::string, std::string>> key_names;
        for (const auto& p : preds) {
          const uint32_t ma = 1u << p.rel_a;
          const uint32_t mb = 1u << p.rel_b;
          if ((ma & left) && (mb & right)) {
            key_names.emplace_back(p.col_a, p.col_b);
          } else if ((mb & left) && (ma & right)) {
            key_names.emplace_back(p.col_b, p.col_a);
          }
        }
        if (pass == 0 && key_names.empty()) continue;  // avoid cross products
        auto keys = ResolveJoinKeys(lb.schema, rb.schema, key_names);
        if (!keys.ok()) continue;

        // Residual filters newly covered at this join.
        std::vector<ExprPtr> residuals;
        for (const auto& pf : pending) {
          if (covered_by(pf.rel_mask, mask) && !covered_by(pf.rel_mask, left) &&
              !covered_by(pf.rel_mask, right)) {
            residuals.push_back(pf.expr->Clone());
          }
        }
        ExprPtr residual;
        if (residuals.size() == 1) {
          residual = std::move(residuals[0]);
        } else if (residuals.size() > 1) {
          residual = And(std::move(residuals));
        }

        const double hist_rows =
            JoinRows(JoinType::kInner, *keys, std::max(1.0, lb.est.rows),
                     std::max(1.0, rb.est.rows), residual.get());
        const bool nested_loop = rb.est.rows <= 2000.0;
        CardEstimate shared, nl_own;
        CardEstimate* nl_card = &shared;
        if (stamp) {
          std::vector<std::pair<std::string, std::string>> schema_keys;
          for (const auto& [l, r] : keys->positions) {
            schema_keys.emplace_back(
                lb.schema.column(static_cast<size_t>(l)).name,
                rb.schema.column(static_cast<size_t>(r)).name);
          }
          std::string descriptor = card::JoinDescriptor(
              JoinType::kInner, schema_keys,
              card::JoinResidualShape(PlanOp::kHashJoin, residual.get(),
                                      schema_keys));
          // Inside a nested loop's predicate, beside the key equalities, a
          // residual can normalize differently: one that repeats a key
          // equality drops out, as does the wrapper of a one-conjunct AND.
          // Such a nested loop asks its own question.
          if (nested_loop && residual != nullptr) {
            const ExprPtr nl_pred =
                NestedLoopPredicate(keys->names, residual->Clone());
            std::string nl_descriptor = card::JoinDescriptor(
                JoinType::kInner, schema_keys,
                card::JoinResidualShape(PlanOp::kNestedLoopJoin, nl_pred.get(),
                                        schema_keys));
            if (nl_descriptor != descriptor) {
              nl_own = estimate(lb, rb, hist_rows, std::move(nl_descriptor));
              nl_card = &nl_own;
            }
          }
          shared = estimate(lb, rb, hist_rows, std::move(descriptor));
        } else {
          shared.rows = hist_rows;
        }

        // Cost the candidates: hash, merge, nested loop. One replaces the
        // subset's best only when strictly cheaper, so ties go to the
        // earlier split and candidate.
        bool have = cur.found;
        double best_cost = cur.found ? cur.est.total_cost : 0.0;
        PlanOp win_op = PlanOp::kHashJoin;
        PlanEstimates win_est;
        CardEstimate* win_card = nullptr;
        const auto offer = [&](PlanOp op, const PlanEstimates& l_in,
                               const PlanEstimates& r_in, CardEstimate* c) {
          const PlanEstimates est =
              JoinEstimates(op, JoinType::kInner, l_in, r_in,
                            keys->positions.size(), c->rows, cm_);
          if (have && !(est.total_cost < best_cost)) return;
          have = true;
          best_cost = est.total_cost;
          win_op = op;
          win_est = est;
          win_card = c;
        };
        offer(PlanOp::kHashJoin, lb.est, rb.est, &shared);
        if (!key_names.empty()) {
          offer(PlanOp::kMergeJoin, SortEstimates(lb.est, cm_),
                SortEstimates(rb.est, cm_), &shared);
        }
        if (nested_loop) {
          // The inner side is a base scan, so it is always materialized.
          offer(PlanOp::kNestedLoopJoin, lb.est,
                MaterializeEstimates(rb.est, cm_), nl_card);
        }
        if (win_card == nullptr) continue;
        cur.found = true;
        cur.left = left;
        cur.right = right;
        cur.op = win_op;
        cur.keys = std::move(*keys);
        cur.residual = std::move(residual);
        cur.est = win_est;
        cur.card = std::move(*win_card);
      }
    }
    if (!cur.found) {
      if (mask == full) return Status::Internal("join enumeration failed");
      continue;
    }
    cur.schema = JoinSchema(JoinType::kInner, best[cur.left].schema,
                            best[cur.right].schema);
  }

  // Build the winner. The chosen splits partition the block, so every
  // subset on the way is built exactly once from parts moved, never cloned.
  const auto build = [&](const auto& self,
                         uint32_t mask) -> std::unique_ptr<PlanNode> {
    Best& b = best[mask];
    if (b.scan != nullptr) return std::move(b.scan);
    auto node = AssembleJoin(b.op, JoinType::kInner, self(self, b.left),
                             self(self, b.right), std::move(b.keys),
                             std::move(b.residual));
    node->est = b.est;
    node->card_signature = b.card.sig.signature;
    node->card_class = b.card.sig.class_hash;
    node->card_features = b.card.features;
    node->est_source = b.card.source;
    return node;
  };
  return build(build, full);
}

}  // namespace qpp
