#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"

namespace qpp::card {

/// \brief Canonical plan-node signatures for learned cardinality feedback
/// (the analogue of AQO's feature-space hashing).
///
/// A signature identifies the *question* a sub-plan answers — which
/// relations it touches and the shape of every predicate applied on the way
/// — while stripping everything that does not change the answer's
/// distribution across parameter bindings: literal constants, physical
/// operator choice (hash vs merge vs nested-loop), join order, and
/// cardinality-neutral operators (Sort/Materialize/Project). Two query
/// instances from the same template therefore share signatures per node,
/// and observed cardinalities recorded under one binding inform estimates
/// for the next.

/// Structure of `e` with constants replaced by '?': commutative operands
/// sorted, inequalities normalized to the less-than direction, LIKE
/// patterns / IN values / substring bounds stripped. Column names are kept
/// verbatim (they are part of the question, not the binding).
std::string NormalizePredicateShape(const Expr& e);

struct NodeSignature {
  /// FNV-1a over sorted relation labels + sorted sub-plan descriptors;
  /// 0 for nodes that take no signature (Sort/Materialize/Project/...).
  uint64_t signature = 0;
  /// FNV-1a over the sorted relation labels only.
  uint64_t class_hash = 0;
};

/// \brief What a signature hashes, in a form a planner can memoize per
/// sub-plan: one descriptor per cardinality-relevant node and the scanned
/// relation labels, each list sorted. A join's parts are its two inputs'
/// parts plus its own descriptor, so join enumeration derives every split's
/// signature from memoized parts without re-walking the subtrees.
struct SignatureParts {
  std::vector<std::string> descriptors;
  std::vector<std::string> relations;
};

/// Parts of the whole sub-plan rooted at `node`.
SignatureParts CollectSignatureParts(const PlanNode& node);

/// Parts of a join whose inputs have parts `left` and `right` and whose own
/// descriptor is `descriptor` (see JoinDescriptor).
SignatureParts MergeSignatureParts(const SignatureParts& left,
                                   const SignatureParts& right,
                                   std::string descriptor);

/// Signature and class hash of a sub-plan with the given parts.
NodeSignature HashSignatureParts(const SignatureParts& parts);

/// Descriptor of a join node: its type, its equi-key column names as
/// (left, right) input-schema names, and its residual shape (below).
std::string JoinDescriptor(
    JoinType type,
    const std::vector<std::pair<std::string, std::string>>& key_names,
    const std::string& residual_shape);

/// Shape of a join's residual, read off the `predicate` a join node of
/// physical operator `op` stores. A NestedLoopJoin executes its keys
/// through the predicate too, so the key-equality conjuncts are filtered
/// back out: all three physical joins of one logical join normalize alike.
std::string JoinResidualShape(
    PlanOp op, const Expr* predicate,
    const std::vector<std::pair<std::string, std::string>>& key_names);

/// Computes the signature of the sub-plan rooted at `node`. Only
/// Scan/IndexScan/Join/Aggregate nodes carry signatures; other operators
/// return {0, 0} (they contribute descriptors to ancestors instead).
NodeSignature ComputePlanNodeSignature(const PlanNode& node);

/// kNN feature vector for `node`, log1p-scaled so multiplicative
/// cardinality spreads become metric distances:
///   scans      {log1p(table rows), log1p(est rows), 0}
///   joins      {log1p(max child est rows), log1p(min child est rows),
///               log1p(est rows)}
///   aggregates {log1p(child est rows), log1p(est rows), 0}
/// Must be computed from the *baseline* (histogram) estimates — the
/// optimizer stamps features before any learned override.
std::array<double, 3> ComputeCardFeatures(const PlanNode& node);

/// The join row of ComputeCardFeatures, from the two inputs' estimated rows
/// and the join's baseline estimate.
std::array<double, 3> JoinCardFeatures(double left_rows, double right_rows,
                                       double rows);

/// Stamps card_signature/card_class/card_features on every eligible node of
/// the tree (post-hoc path for plans compiled without an estimator
/// attached; the optimizer stamps identical values at construction time).
void StampSignatures(PlanNode* root);

}  // namespace qpp::card
