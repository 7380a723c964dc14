#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <string_view>

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

const ColumnStats* Optimizer::LookupStats(const std::string& name) const {
  const size_t dot = name.find('.');
  const Table* table = nullptr;
  std::string_view column = name;
  if (dot != std::string::npos) {
    auto it = alias_tables_.find(column.substr(0, dot));
    if (it == alias_tables_.end()) return nullptr;
    table = it->second;
    column.remove_prefix(dot + 1);
  } else {
    table = db_->TableWithColumn(name);
    if (table == nullptr) return nullptr;
  }
  const TableStats* ts = db_->GetStats(table->id());
  return ts == nullptr ? nullptr : ts->Column(column);
}

StatsResolver Optimizer::GetStatsResolver() const {
  return [this](const std::string& name) { return LookupStats(name); };
}

double Optimizer::NDistinct(const std::string& column) const {
  const ColumnStats* cs = LookupStats(column);
  if (cs == nullptr) return kDefaultNDistinct;
  return std::max(1.0, cs->ndistinct);
}

double Optimizer::KeySelectivity(const std::string& a,
                                 const std::string& b) const {
  return 1.0 / std::max(NDistinct(a), NDistinct(b));
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
      sel *= KeySelectivity(lname, rname);
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

  // Resolve aliases. Each names one relation: a repeated one would make
  // every qualified reference to it ambiguous.
  std::vector<std::string> aliases(n);
  for (size_t i = 0; i < n; ++i) {
    aliases[i] = block.relations[i].alias.empty() ? block.relations[i].table
                                                  : block.relations[i].alias;
    for (size_t j = 0; j < i; ++j) {
      if (aliases[j] == aliases[i]) {
        return Status::InvalidArgument("duplicate relation alias " +
                                       aliases[i]);
      }
    }
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
  // A join's residual is memoized by the bitmask of the pending filters it
  // newly covers.
  if (pending.size() > 64) {
    return Status::InvalidArgument("too many multi-relation filters (max 64)");
  }

  // Resolve equi-join predicates to relation pairs.
  struct EquiPred {
    int rel_a = 0, rel_b = 0;
    std::string col_a, col_b;
    // Block-invariant, filled once the scans exist:
    bool resolves = false;     // both columns resolve in their scans' schemas
    double selectivity = 1.0;  // KeySelectivity(col_a, col_b)
    std::string schema_a, schema_b;  // the scans' names for the columns
    std::string key_pair;            // their JoinKeyPair, when stamping
  };
  std::vector<EquiPred> preds;
  for (const auto& [a, b] : block.equi_preds) {
    QPP_ASSIGN_OR_RETURN(const int ra, owner_of(a));
    QPP_ASSIGN_OR_RETURN(const int rb, owner_of(b));
    if (ra < 0 || rb < 0 || ra == rb) {
      return Status::InvalidArgument("bad equi-join predicate " + a + "=" + b);
    }
    EquiPred& p = preds.emplace_back();
    p.rel_a = ra;
    p.rel_b = rb;
    p.col_a = a;
    p.col_b = b;
  }

  // Cost-first DP over relation subsets. Each subset keeps the recipe of
  // its cheapest plan rather than the plan: every split is costed from its
  // two inputs' estimates alone, and only the winning plan is built, once,
  // at the end. The three physical joins of a split answer one cardinality
  // question: Sort and Materialize copy their input's rows, and a nested
  // loop's key conjuncts drop out of its signature. So each split is
  // estimated, and the estimator consulted, once for all three.
  //
  // What does not depend on the split is computed once: per block, each
  // equi-key's selectivity and descriptor pair; per subset, its winner's
  // sorted and materialized estimates, its signature parts and the hashes
  // of its relation set; per set of newly covered filters, the residual.
  // A split itself allocates nothing unless it wins.
  struct CardEstimate {
    double rows = 0.0;  // output rows, learned when the estimator answered
    card::NodeSignature sig;
    std::array<double, 3> features{};
    const char* source = "hist";
  };
  struct Best {
    bool found = false;
    std::unique_ptr<PlanNode> scan;  // single relations
    uint32_t left = 0, right = 0;    // joins: the winning split
    PlanOp op = PlanOp::kHashJoin;
    uint64_t residual = 0;  // the pending filters the winner newly covers
    PlanEstimates est;
    CardEstimate card;
    // Memoized from the final winner for the subset's ancestors:
    PlanEstimates sorted;        // a merge join's input
    PlanEstimates materialized;  // a nested loop's inner side
    // When stamping: the scan's or the winning join's own descriptor, the
    // whole sub-plan's sorted descriptors (viewing the subsets' own ones,
    // which stay put: `best` never reallocates), and ScaleRows(est.rows).
    std::string descriptor;
    std::vector<std::string_view> descriptors;
    double scaled_rows = 0.0;
  };
  const bool stamp = card_estimator_ != nullptr;
  const uint32_t full = n >= 32 ? 0xFFFFFFFFu : (1u << n) - 1;
  std::vector<Best> best(full + 1);
  const auto memoize = [&](Best& b) {
    b.sorted = SortEstimates(b.est, cm_);
    b.materialized = MaterializeEstimates(b.est, cm_);
    if (stamp) b.scaled_rows = card::ScaleRows(b.est.rows);
  };

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
    b.est = b.scan->est;
    memoize(b);
    if (stamp) {
      b.descriptor = card::NodeDescriptor(*b.scan);
      b.descriptors.push_back(b.descriptor);
    }
  }

  // A column resolves in a join's input schema exactly where it resolves in
  // its own relation's scan: labels are unique, and owner_of admits no
  // unqualified name two relations' tables share. So a key that does not
  // resolve in its scans never joins (the split is skipped, as in MakeJoin),
  // and one that does names the same schema column at every join.
  std::vector<std::vector<size_t>> preds_of(n);  // per relation, in order
  for (size_t k = 0; k < preds.size(); ++k) {
    EquiPred& p = preds[k];
    preds_of[static_cast<size_t>(p.rel_a)].push_back(k);
    preds_of[static_cast<size_t>(p.rel_b)].push_back(k);
    const Schema& sa = best[1u << p.rel_a].scan->output_schema;
    const Schema& sb = best[1u << p.rel_b].scan->output_schema;
    const auto ia = ResolveColumn(sa, p.col_a);
    const auto ib = ResolveColumn(sb, p.col_b);
    p.resolves = ia.ok() && ib.ok();
    if (!p.resolves) continue;
    p.selectivity = KeySelectivity(p.col_a, p.col_b);
    p.schema_a = sa.column(static_cast<size_t>(*ia)).name;
    p.schema_b = sb.column(static_cast<size_t>(*ib)).name;
    if (stamp) p.key_pair = card::JoinKeyPair(p.schema_a, p.schema_b);
  }
  // Calls visit(pred, left name, right name) for each equi-key joining
  // `left` to relation `r`, in block order, with the key's given names
  // oriented (left, r).
  const auto for_each_key = [&](uint32_t left, size_t r, const auto& visit) {
    for (size_t k : preds_of[r]) {
      const EquiPred& p = preds[k];
      const bool a_right = static_cast<size_t>(p.rel_a) == r;
      if (!(left & (1u << (a_right ? p.rel_b : p.rel_a)))) continue;
      visit(p, a_right ? p.col_b : p.col_a, a_right ? p.col_a : p.col_b);
    }
  };

  struct Residual {
    ExprPtr expr;  // the newly covered filters, conjoined
    double selectivity = 1.0;
    std::string shape;  // normalized, when stamping
  };
  std::unordered_map<uint64_t, Residual> residuals;
  const auto residual_of = [&](uint64_t bits) -> const Residual& {
    auto [it, inserted] = residuals.try_emplace(bits);
    Residual& res = it->second;
    if (inserted) {
      std::vector<ExprPtr> conj;
      for (size_t k = 0; k < pending.size(); ++k) {
        if (bits & (uint64_t{1} << k)) conj.push_back(pending[k].expr->Clone());
      }
      res.expr = conj.size() == 1 ? std::move(conj[0]) : And(std::move(conj));
      res.selectivity = EstimateSelectivity(*res.expr, GetStatsResolver(), cm_);
      if (stamp) res.shape = card::NormalizePredicateShape(*res.expr);
    }
    return res;
  };

  // The cardinality of joining `l` and `r` into a node over relations
  // hashed as `relations`, whose own signature descriptor is `descriptor`,
  // given its histogram baseline.
  const auto estimate = [&](const card::RelationHashes& relations,
                            const Best& l, const Best& r, double hist_rows,
                            std::string_view descriptor) {
    CardEstimate e;
    e.rows = hist_rows;
    const card::NodeSignature sig = card::HashJoinSignature(
        relations, l.descriptors, r.descriptors, descriptor);
    if (sig.signature == 0) return e;
    e.sig = sig;
    e.features = card::JoinCardFeatures(l.est.rows, l.scaled_rows, r.est.rows,
                                        r.scaled_rows, hist_rows);
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

  // Scratch reused by every split: stamping allocates only while these grow.
  std::vector<size_t> by_label(n);  // relation indices in label order
  for (size_t i = 0; i < n; ++i) by_label[i] = i;
  std::sort(by_label.begin(), by_label.end(),
            [&](size_t a, size_t b) { return aliases[a] < aliases[b]; });
  std::vector<std::string_view> labels, key_pairs;
  std::string descriptor, nl_descriptor;

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // single relation
    Best& cur = best[mask];
    card::RelationHashes relations;
    if (stamp) {
      labels.clear();
      for (size_t i : by_label) {
        if (mask & (1u << i)) labels.push_back(aliases[i]);
      }
      relations = card::HashRelations(labels);
    }
    // Try connected splits first; fall back to cross products.
    for (int pass = 0; pass < 2 && !cur.found; ++pass) {
      // Left-deep enumeration (System R): the build/inner side is always a
      // base relation. Besides keeping the search small, this normalizes
      // plan shapes so that equivalent query fragments compile to identical
      // sub-plan structures across templates — the sharing that Figure 4 of
      // the paper observes and hybrid/online modeling exploit. The inner
      // relation ascends, so the outer subset descends.
      for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        const uint32_t right = rest & (~rest + 1);
        const uint32_t left = mask ^ right;
        const size_t r = static_cast<size_t>(std::countr_zero(right));
        const Best& lb = best[left];
        const Best& rb = best[right];
        if (!lb.found || !rb.found) continue;

        // Keys connecting the two sides.
        size_t num_keys = 0;
        bool resolves = true;
        double key_sel = 1.0;
        key_pairs.clear();
        for_each_key(left, r, [&](const EquiPred& p, const std::string&,
                                  const std::string&) {
          ++num_keys;
          resolves = resolves && p.resolves;
          key_sel *= p.selectivity;
          if (stamp) key_pairs.push_back(p.key_pair);
        });
        if (pass == 0 && num_keys == 0) continue;  // avoid cross products
        if (!resolves) continue;

        // Residual filters newly covered at this join.
        uint64_t residual_bits = 0;
        for (size_t k = 0; k < pending.size(); ++k) {
          const uint32_t rel_mask = pending[k].rel_mask;
          if (covered_by(rel_mask, mask) && !covered_by(rel_mask, left) &&
              !covered_by(rel_mask, right)) {
            residual_bits |= uint64_t{1} << k;
          }
        }
        const Residual* residual =
            residual_bits == 0 ? nullptr : &residual_of(residual_bits);

        // JoinRows of an inner join, from the memoized selectivities.
        double rows = std::max(1.0, lb.est.rows) * std::max(1.0, rb.est.rows) *
                      key_sel;
        if (residual != nullptr) rows *= residual->selectivity;
        const double hist_rows = std::max(1.0, std::round(rows));
        const bool nested_loop = rb.est.rows <= 2000.0;
        CardEstimate shared, nl_own;
        CardEstimate* nl_card = &shared;
        if (stamp) {
          card::WriteJoinDescriptor(
              JoinType::kInner, key_pairs,
              residual ? std::string_view(residual->shape) : std::string_view(),
              &descriptor);
          // Inside a nested loop's predicate, beside the key equalities, a
          // residual can normalize differently: one that repeats a key
          // equality drops out, as does the wrapper of a one-conjunct AND.
          // Such a nested loop asks its own question.
          if (nested_loop && residual != nullptr) {
            std::vector<std::pair<std::string, std::string>> names,
                schema_keys;
            for_each_key(left, r, [&](const EquiPred& p, const std::string& l,
                                      const std::string& rn) {
              names.emplace_back(l, rn);
              // Key conjuncts match a pair in either orientation.
              schema_keys.emplace_back(p.schema_a, p.schema_b);
            });
            const ExprPtr nl_pred =
                NestedLoopPredicate(names, residual->expr->Clone());
            card::WriteJoinDescriptor(
                JoinType::kInner, key_pairs,
                card::JoinResidualShape(PlanOp::kNestedLoopJoin, nl_pred.get(),
                                        schema_keys),
                &nl_descriptor);
            if (nl_descriptor != descriptor) {
              nl_own = estimate(relations, lb, rb, hist_rows, nl_descriptor);
              nl_card = &nl_own;
            }
          }
          shared = estimate(relations, lb, rb, hist_rows, descriptor);
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
          const PlanEstimates est = JoinEstimates(
              op, JoinType::kInner, l_in, r_in, num_keys, c->rows, cm_);
          if (have && !(est.total_cost < best_cost)) return;
          have = true;
          best_cost = est.total_cost;
          win_op = op;
          win_est = est;
          win_card = c;
        };
        offer(PlanOp::kHashJoin, lb.est, rb.est, &shared);
        if (num_keys > 0) {
          offer(PlanOp::kMergeJoin, lb.sorted, rb.sorted, &shared);
        }
        if (nested_loop) {
          // The inner side is a base scan, so it is always materialized.
          offer(PlanOp::kNestedLoopJoin, lb.est, rb.materialized, nl_card);
        }
        if (win_card == nullptr) continue;
        cur.found = true;
        cur.left = left;
        cur.right = right;
        cur.op = win_op;
        cur.residual = residual_bits;
        cur.est = win_est;
        cur.card = *win_card;
        if (stamp) cur.descriptor = win_card == &nl_own ? nl_descriptor
                                                        : descriptor;
      }
    }
    if (!cur.found) {
      if (mask == full) return Status::Internal("join enumeration failed");
      continue;
    }
    memoize(cur);
    if (stamp) {
      const auto& l = best[cur.left].descriptors;
      const auto& r = best[cur.right].descriptors;
      cur.descriptors.reserve(l.size() + r.size() + 1);
      std::merge(l.begin(), l.end(), r.begin(), r.end(),
                 std::back_inserter(cur.descriptors));
      const std::string_view own = cur.descriptor;
      cur.descriptors.insert(std::upper_bound(cur.descriptors.begin(),
                                              cur.descriptors.end(), own),
                             own);
    }
  }

  // Build the winner. The chosen splits partition the block, so every
  // subset on the way is built exactly once from parts moved; only the
  // residuals are cloned, from their memo.
  const auto build = [&](const auto& self, uint32_t mask)
      -> Result<std::unique_ptr<PlanNode>> {
    Best& b = best[mask];
    if (b.scan != nullptr) return std::move(b.scan);
    QPP_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> left, self(self, b.left));
    QPP_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> right, self(self, b.right));
    std::vector<std::pair<std::string, std::string>> key_names;
    for_each_key(b.left, static_cast<size_t>(std::countr_zero(b.right)),
                 [&](const EquiPred&, const std::string& l,
                     const std::string& r) { key_names.emplace_back(l, r); });
    QPP_ASSIGN_OR_RETURN(JoinKeys keys,
                         ResolveJoinKeys(left->output_schema,
                                         right->output_schema, key_names));
    ExprPtr residual =
        b.residual == 0 ? nullptr : residuals.at(b.residual).expr->Clone();
    auto node = AssembleJoin(b.op, JoinType::kInner, std::move(left),
                             std::move(right), std::move(keys),
                             std::move(residual));
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
