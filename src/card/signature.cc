#include "card/signature.h"

#include <algorithm>
#include <cmath>
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

// Appends the sub-plan's descriptors and scanned relation labels, unsorted.
void CollectParts(const PlanNode& node, SignatureParts* parts) {
  std::string d = NodeDescriptor(node);
  if (!d.empty()) parts->descriptors.push_back(std::move(d));
  if (IsScan(node.op)) parts->relations.push_back(node.label);
  for (const auto& c : node.children) CollectParts(*c, parts);
}

// Hashes one descriptor line of a signature payload.
uint64_t HashDescriptor(uint64_t state, std::string_view descriptor) {
  return Fnv1a64Update(Fnv1a64Update(state, descriptor), "\n");
}

// HashRelations over any sorted list of labels.
template <typename Labels>
RelationHashes HashRelationList(const Labels& relations) {
  uint64_t prefix = Fnv1a64("cardsig v1\n");
  uint64_t class_hash = Fnv1a64("cardclass v1\n");
  bool first = true;
  for (const auto& label : relations) {
    if (!first) {
      prefix = Fnv1a64Update(prefix, ",");
      class_hash = Fnv1a64Update(class_hash, ",");
    }
    first = false;
    prefix = Fnv1a64Update(prefix, label);
    class_hash = Fnv1a64Update(class_hash, label);
  }
  return {Fnv1a64Update(prefix, "\n"), class_hash};
}

}  // namespace

// Physical details (sort keys, projection lists, materialization) are
// invisible on purpose.
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
      std::vector<std::string> pairs;
      for (const auto& [l, r] : key_names) pairs.push_back(JoinKeyPair(l, r));
      std::vector<std::string_view> views(pairs.begin(), pairs.end());
      std::string d;
      WriteJoinDescriptor(
          node.join_type, views,
          JoinResidualShape(node.op, node.predicate.get(), key_names), &d);
      return d;
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

std::string JoinKeyPair(const std::string& a, const std::string& b) {
  return a <= b ? a + "=" + b : b + "=" + a;
}

void WriteJoinDescriptor(JoinType type, std::span<std::string_view> key_pairs,
                         std::string_view residual_shape, std::string* out) {
  std::sort(key_pairs.begin(), key_pairs.end());
  out->assign("J:");
  *out += JoinTypeName(type);
  *out += ":";
  for (size_t i = 0; i < key_pairs.size(); ++i) {
    if (i) *out += ",";
    *out += key_pairs[i];
  }
  *out += ":";
  *out += residual_shape;
}

SignatureParts CollectSignatureParts(const PlanNode& node) {
  SignatureParts parts;
  CollectParts(node, &parts);
  std::sort(parts.descriptors.begin(), parts.descriptors.end());
  std::sort(parts.relations.begin(), parts.relations.end());
  return parts;
}

NodeSignature HashSignatureParts(const SignatureParts& parts) {
  const RelationHashes relations = HashRelationList(parts.relations);
  uint64_t h = relations.prefix;
  for (const auto& d : parts.descriptors) h = HashDescriptor(h, d);
  return {h, relations.class_hash};
}

RelationHashes HashRelations(std::span<const std::string_view> relations) {
  return HashRelationList(relations);
}

NodeSignature HashJoinSignature(const RelationHashes& relations,
                                std::span<const std::string_view> left,
                                std::span<const std::string_view> right,
                                std::string_view descriptor) {
  // Hash in merge order. The smaller input (a base scan's one descriptor,
  // in left-deep enumeration) with the own descriptor inserted is walked in
  // order, and each of its descriptors is placed in the larger input by
  // binary search. Equal descriptors are equal bytes: ties may go either
  // way.
  std::span<const std::string_view> base = left, other = right;
  if (base.size() < other.size()) std::swap(base, other);
  uint64_t h = relations.prefix;
  auto pos = base.begin();
  const auto emit = [&](std::string_view d) {
    for (const auto at = std::upper_bound(pos, base.end(), d); pos != at;
         ++pos) {
      h = HashDescriptor(h, *pos);
    }
    h = HashDescriptor(h, d);
  };
  const auto own_at = std::upper_bound(other.begin(), other.end(), descriptor);
  for (auto it = other.begin(); it != other.end(); ++it) {
    if (it == own_at) emit(descriptor);
    emit(*it);
  }
  if (own_at == other.end()) emit(descriptor);
  for (; pos != base.end(); ++pos) h = HashDescriptor(h, *pos);
  return {h, relations.class_hash};
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
    f = {ScaleRows(in_rows), ScaleRows(node.est.rows), 0.0};
  } else if (IsJoin(node.op) && node.num_children() >= 2) {
    const double l = node.child(0)->est.rows;
    const double r = node.child(1)->est.rows;
    f = JoinCardFeatures(l, ScaleRows(l), r, ScaleRows(r), node.est.rows);
  } else if (IsAggregate(node.op) && node.num_children() >= 1) {
    f = {ScaleRows(node.child(0)->est.rows), ScaleRows(node.est.rows), 0.0};
  }
  return f;
}

double ScaleRows(double rows) { return std::log1p(std::max(0.0, rows)); }

std::array<double, 3> JoinCardFeatures(double left_rows, double left_scaled,
                                       double right_rows, double right_scaled,
                                       double rows) {
  // ScaleRows of std::max and std::min of the two inputs' rows, picked as
  // those two pick.
  return {left_rows < right_rows ? right_scaled : left_scaled,
          right_rows < left_rows ? right_scaled : left_scaled,
          ScaleRows(rows)};
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
