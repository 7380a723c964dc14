#include "card/signature.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/checksum.h"

namespace qpp::card {
namespace {

const char* CmpShapeName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?op";
}

// Renders the inequality in the less-than direction so "a < b" and "b > a"
// normalize identically across template authors.
bool IsGreaterOp(CmpOp op) { return op == CmpOp::kGt || op == CmpOp::kGe; }

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    default: return op;
  }
}

std::string SortedChildShapes(const Expr& e, const char* name) {
  std::vector<std::string> shapes;
  for (const Expr* c : e.Children()) {
    shapes.push_back(NormalizePredicateShape(*c));
  }
  std::sort(shapes.begin(), shapes.end());
  std::string out = name;
  out += "(";
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (i) out += ",";
    out += shapes[i];
  }
  out += ")";
  return out;
}

// "a" matches "a", and an unqualified name matches its qualified form
// ("n_name" ~ "n1.n_name"). Predicates are written against either form
// depending on whether the template aliases the relation.
bool NamesMatch(const std::string& a, const std::string& b) {
  if (a == b) return true;
  if (a.size() > b.size()) {
    return a.size() > b.size() + 1 && a[a.size() - b.size() - 1] == '.' &&
           a.compare(a.size() - b.size(), b.size(), b) == 0;
  }
  return b.size() > a.size() + 1 && b[b.size() - a.size() - 1] == '.' &&
         b.compare(b.size() - a.size(), a.size(), a) == 0;
}

// Resolved (schema) names of the node's equi-join keys, one "a=b" string
// per pair with the two sides sorted, then the pairs sorted — invariant to
// join orientation and key order.
std::vector<std::pair<std::string, std::string>> JoinKeyNames(
    const PlanNode& node) {
  std::vector<std::pair<std::string, std::string>> out;
  if (node.num_children() < 2) return out;
  const Schema& ls = node.child(0)->output_schema;
  const Schema& rs = node.child(1)->output_schema;
  for (const auto& [l, r] : node.join_keys) {
    if (l < 0 || r < 0 ||
        static_cast<size_t>(l) >= ls.columns().size() ||
        static_cast<size_t>(r) >= rs.columns().size()) {
      continue;
    }
    out.emplace_back(ls.column(static_cast<size_t>(l)).name,
                     rs.column(static_cast<size_t>(r)).name);
  }
  return out;
}

// True when `e` is one of the synthesized key-equality conjuncts a
// NestedLoopJoin folds into its predicate (Eq of two column refs matching a
// join-key pair in either orientation, possibly unqualified).
bool IsJoinKeyConjunct(
    const Expr& e,
    const std::vector<std::pair<std::string, std::string>>& key_names) {
  if (e.kind() != Expr::Kind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(e);
  if (cmp.op() != CmpOp::kEq) return false;
  if (cmp.left()->kind() != Expr::Kind::kColumnRef ||
      cmp.right()->kind() != Expr::Kind::kColumnRef) {
    return false;
  }
  const std::string& a = static_cast<const ColumnRefExpr&>(*cmp.left()).name();
  const std::string& b = static_cast<const ColumnRefExpr&>(*cmp.right()).name();
  for (const auto& [l, r] : key_names) {
    if ((NamesMatch(a, l) && NamesMatch(b, r)) ||
        (NamesMatch(a, r) && NamesMatch(b, l))) {
      return true;
    }
  }
  return false;
}

bool IsJoin(PlanOp op) {
  return op == PlanOp::kHashJoin || op == PlanOp::kMergeJoin ||
         op == PlanOp::kNestedLoopJoin;
}

bool IsAggregate(PlanOp op) {
  return op == PlanOp::kHashAggregate || op == PlanOp::kGroupAggregate;
}

bool IsScan(PlanOp op) {
  return op == PlanOp::kSeqScan || op == PlanOp::kIndexScan;
}

// The node's own cardinality-relevant descriptor; empty for the
// cardinality-neutral operators. Physical details (sort keys, projection
// lists, materialization) are invisible on purpose.
std::string NodeDescriptor(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kSeqScan: {
      std::string d = "S:" + node.label + ":";
      if (node.predicate) d += NormalizePredicateShape(*node.predicate);
      return d;
    }
    case PlanOp::kIndexScan: {
      std::string key_col;
      if (node.table != nullptr && node.index_column >= 0 &&
          static_cast<size_t>(node.index_column) <
              node.table->schema().columns().size()) {
        key_col = node.table->schema()
                      .column(static_cast<size_t>(node.index_column))
                      .name;
      }
      std::string d = "I:" + node.label + ":" + key_col + ":";
      if (node.predicate) d += NormalizePredicateShape(*node.predicate);
      return d;
    }
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin:
    case PlanOp::kNestedLoopJoin: {
      const auto key_names = JoinKeyNames(node);
      return JoinDescriptor(
          node.join_type, key_names,
          JoinResidualShape(node.op, node.predicate.get(), key_names));
    }
    case PlanOp::kHashAggregate:
    case PlanOp::kGroupAggregate: {
      std::vector<std::string> groups;
      if (!node.children.empty()) {
        const Schema& cs = node.child(0)->output_schema;
        for (int idx : node.group_keys) {
          if (idx >= 0 && static_cast<size_t>(idx) < cs.columns().size()) {
            groups.push_back(cs.column(static_cast<size_t>(idx)).name);
          }
        }
      }
      std::sort(groups.begin(), groups.end());
      std::string d = "A:";
      for (size_t i = 0; i < groups.size(); ++i) {
        if (i) d += ",";
        d += groups[i];
      }
      d += ":";
      if (node.having) d += NormalizePredicateShape(*node.having);
      return d;
    }
    case PlanOp::kFilter: {
      std::string d = "F:";
      if (node.predicate) d += NormalizePredicateShape(*node.predicate);
      return d;
    }
    case PlanOp::kLimit:
      // The bound is a constant, so only the operator's presence matters.
      return "L";
    case PlanOp::kSort:
    case PlanOp::kMaterialize:
    case PlanOp::kProject:
      break;  // cardinality-neutral
  }
  return "";
}

// Appends the sub-plan's descriptors and scanned relation labels, unsorted.
void CollectParts(const PlanNode& node, SignatureParts* parts) {
  std::string d = NodeDescriptor(node);
  if (!d.empty()) parts->descriptors.push_back(std::move(d));
  if (IsScan(node.op)) parts->relations.push_back(node.label);
  for (const auto& c : node.children) CollectParts(*c, parts);
}

double SafeLog1p(double v) { return std::log1p(std::max(0.0, v)); }

}  // namespace

std::string NormalizePredicateShape(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(e).name();
    case Expr::Kind::kLiteral:
      return "?";
    case Expr::Kind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(e);
      std::string l = NormalizePredicateShape(*cmp.left());
      std::string r = NormalizePredicateShape(*cmp.right());
      CmpOp op = cmp.op();
      if (IsGreaterOp(op)) {
        op = FlipCmp(op);
        std::swap(l, r);
      }
      if ((op == CmpOp::kEq || op == CmpOp::kNe) && r < l) std::swap(l, r);
      return "(" + l + CmpShapeName(op) + r + ")";
    }
    case Expr::Kind::kAnd:
      return SortedChildShapes(e, "and");
    case Expr::Kind::kOr:
      return SortedChildShapes(e, "or");
    case Expr::Kind::kNot:
      return "not(" + NormalizePredicateShape(*e.Children()[0]) + ")";
    case Expr::Kind::kArith: {
      const auto& ar = static_cast<const ArithExpr&>(e);
      const auto children = e.Children();
      return "(" + NormalizePredicateShape(*children[0]) +
             ArithOpName(ar.op()) + NormalizePredicateShape(*children[1]) +
             ")";
    }
    case Expr::Kind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(e);
      return std::string(like.negated() ? "notlike(" : "like(") +
             NormalizePredicateShape(*like.input()) + ")";
    }
    case Expr::Kind::kInList: {
      // The member count is structural (fixed per template), the members
      // themselves are constants.
      const auto& in = static_cast<const InListExpr&>(e);
      return std::string(in.negated() ? "notin" : "in") + "[" +
             std::to_string(in.values().size()) + "](" +
             NormalizePredicateShape(*in.input()) + ")";
    }
    case Expr::Kind::kCase: {
      std::string out = "case(";
      const auto children = e.Children();
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += ",";
        out += NormalizePredicateShape(*children[i]);
      }
      return out + ")";
    }
    case Expr::Kind::kExtractYear:
      return "year(" + NormalizePredicateShape(*e.Children()[0]) + ")";
    case Expr::Kind::kSubstring:
      return "substr(" + NormalizePredicateShape(*e.Children()[0]) + ")";
    case Expr::Kind::kIsNull: {
      const auto& isnull = static_cast<const IsNullExpr&>(e);
      return std::string(isnull.negated() ? "notnull(" : "isnull(") +
             NormalizePredicateShape(*e.Children()[0]) + ")";
    }
  }
  return "?expr";
}

std::string JoinResidualShape(
    PlanOp op, const Expr* predicate,
    const std::vector<std::pair<std::string, std::string>>& key_names) {
  if (predicate == nullptr) return "";
  if (op != PlanOp::kNestedLoopJoin) return NormalizePredicateShape(*predicate);
  std::vector<const Expr*> conjuncts;
  if (predicate->kind() == Expr::Kind::kAnd) {
    for (const Expr* c : predicate->Children()) conjuncts.push_back(c);
  } else {
    conjuncts.push_back(predicate);
  }
  std::vector<std::string> shapes;
  for (const Expr* c : conjuncts) {
    if (IsJoinKeyConjunct(*c, key_names)) continue;
    shapes.push_back(NormalizePredicateShape(*c));
  }
  if (shapes.empty()) return "";
  std::sort(shapes.begin(), shapes.end());
  std::string out = shapes.size() == 1 ? "" : "and(";
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (i) out += ",";
    out += shapes[i];
  }
  if (shapes.size() > 1) out += ")";
  return out;
}

std::string JoinDescriptor(
    JoinType type,
    const std::vector<std::pair<std::string, std::string>>& key_names,
    const std::string& residual_shape) {
  std::vector<std::string> pairs;
  for (const auto& [l, r] : key_names) {
    pairs.push_back(l <= r ? l + "=" + r : r + "=" + l);
  }
  std::sort(pairs.begin(), pairs.end());
  std::string d = "J:";
  d += JoinTypeName(type);
  d += ":";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i) d += ",";
    d += pairs[i];
  }
  d += ":";
  d += residual_shape;
  return d;
}

SignatureParts CollectSignatureParts(const PlanNode& node) {
  SignatureParts parts;
  CollectParts(node, &parts);
  std::sort(parts.descriptors.begin(), parts.descriptors.end());
  std::sort(parts.relations.begin(), parts.relations.end());
  return parts;
}

SignatureParts MergeSignatureParts(const SignatureParts& left,
                                   const SignatureParts& right,
                                   std::string descriptor) {
  SignatureParts out;
  out.descriptors.reserve(left.descriptors.size() +
                          right.descriptors.size() + 1);
  std::merge(left.descriptors.begin(), left.descriptors.end(),
             right.descriptors.begin(), right.descriptors.end(),
             std::back_inserter(out.descriptors));
  const auto at = std::upper_bound(out.descriptors.begin(),
                                   out.descriptors.end(), descriptor);
  out.descriptors.insert(at, std::move(descriptor));
  out.relations.reserve(left.relations.size() + right.relations.size());
  std::merge(left.relations.begin(), left.relations.end(),
             right.relations.begin(), right.relations.end(),
             std::back_inserter(out.relations));
  return out;
}

NodeSignature HashSignatureParts(const SignatureParts& parts) {
  std::string rel_list;
  for (size_t i = 0; i < parts.relations.size(); ++i) {
    if (i) rel_list += ",";
    rel_list += parts.relations[i];
  }
  std::string payload = "cardsig v1\n" + rel_list + "\n";
  for (const auto& d : parts.descriptors) {
    payload += d;
    payload += "\n";
  }
  NodeSignature out;
  out.signature = Fnv1a64(payload);
  out.class_hash = Fnv1a64("cardclass v1\n" + rel_list);
  return out;
}

NodeSignature ComputePlanNodeSignature(const PlanNode& node) {
  if (!IsScan(node.op) && !IsJoin(node.op) && !IsAggregate(node.op)) {
    return {};
  }
  return HashSignatureParts(CollectSignatureParts(node));
}

std::array<double, 3> ComputeCardFeatures(const PlanNode& node) {
  std::array<double, 3> f{};
  if (IsScan(node.op)) {
    const double in_rows =
        node.table != nullptr ? static_cast<double>(node.table->num_rows())
                              : node.est.rows;
    f = {SafeLog1p(in_rows), SafeLog1p(node.est.rows), 0.0};
  } else if (IsJoin(node.op) && node.num_children() >= 2) {
    f = JoinCardFeatures(node.child(0)->est.rows, node.child(1)->est.rows,
                         node.est.rows);
  } else if (IsAggregate(node.op) && node.num_children() >= 1) {
    f = {SafeLog1p(node.child(0)->est.rows), SafeLog1p(node.est.rows), 0.0};
  }
  return f;
}

std::array<double, 3> JoinCardFeatures(double left_rows, double right_rows,
                                       double rows) {
  return {SafeLog1p(std::max(left_rows, right_rows)),
          SafeLog1p(std::min(left_rows, right_rows)), SafeLog1p(rows)};
}

void StampSignatures(PlanNode* root) {
  if (root == nullptr) return;
  const NodeSignature sig = ComputePlanNodeSignature(*root);
  if (sig.signature != 0) {
    root->card_signature = sig.signature;
    root->card_class = sig.class_hash;
    root->card_features = ComputeCardFeatures(*root);
  }
  for (auto& c : root->children) StampSignatures(c.get());
}

}  // namespace qpp::card
