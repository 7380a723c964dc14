#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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
/// operator choice (hash vs merge vs nested-loop), and cardinality-neutral
/// operators (Sort/Materialize/Project). Join order is not stripped: it
/// enters through each join's descriptor, whose key pairs and residual
/// shape depend on which relations sit on either side. Two query instances
/// from the same template therefore share signatures per node, and observed
/// cardinalities recorded under one binding inform estimates for the next.

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

/// \brief What a signature hashes: one descriptor per cardinality-relevant
/// node of the sub-plan and its scanned relation labels, each list sorted.
/// The signature is FNV-1a over "cardsig v1\n", the labels joined by ',',
/// "\n", then each descriptor and "\n"; the class hash is FNV-1a over
/// "cardclass v1\n" and the joined labels.
struct SignatureParts {
  std::vector<std::string> descriptors;
  std::vector<std::string> relations;
};

/// The node's own descriptor; empty for the cardinality-neutral operators
/// (Sort/Materialize/Project).
std::string NodeDescriptor(const PlanNode& node);

/// Parts of the whole sub-plan rooted at `node`.
SignatureParts CollectSignatureParts(const PlanNode& node);

/// Signature and class hash of a sub-plan with the given parts.
NodeSignature HashSignatureParts(const SignatureParts& parts);

/// What a signature hashes before its descriptors, which the relation labels
/// alone fix: the FNV-1a state after the signature's header and relation
/// list, and the class hash. Join enumeration computes it once per relation
/// subset and shares it among the subset's splits.
struct RelationHashes {
  uint64_t prefix = 0;
  uint64_t class_hash = 0;
};

/// Hashes of a sub-plan over the relations labelled `relations`, sorted as
/// SignatureParts::relations is.
RelationHashes HashRelations(std::span<const std::string_view> relations);

/// Signature of a join over relations hashed as `relations`, whose inputs'
/// sorted descriptors are `left` and `right` and whose own descriptor is
/// `descriptor`: the HashSignatureParts of the join's parts, hashed in merge
/// order of the three sorted sources without building the merged list. A
/// join's parts are its inputs' parts plus its own descriptor, so join
/// enumeration signs every split from its inputs' memoized lists.
NodeSignature HashJoinSignature(const RelationHashes& relations,
                                std::span<const std::string_view> left,
                                std::span<const std::string_view> right,
                                std::string_view descriptor);

/// One equi-key pair of a join descriptor: the two input-schema column
/// names, the smaller first, joined by '='.
std::string JoinKeyPair(const std::string& a, const std::string& b);

/// Writes to `out`, replacing its contents, the descriptor of a join: its
/// type, its key pairs (JoinKeyPair) in sorted order, and its residual shape
/// (below). Sorts `key_pairs` in place.
void WriteJoinDescriptor(JoinType type, std::span<std::string_view> key_pairs,
                         std::string_view residual_shape, std::string* out);

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

/// log1p(max(0, rows)): how every card feature scales a row count.
double ScaleRows(double rows);

/// The join row of ComputeCardFeatures, from the two inputs' estimated rows,
/// their ScaleRows values (which join enumeration memoizes per input), and
/// the join's baseline estimate.
std::array<double, 3> JoinCardFeatures(double left_rows, double left_scaled,
                                       double right_rows, double right_scaled,
                                       double rows);

/// Stamps card_signature/card_class/card_features on every eligible node of
/// the tree (post-hoc path for plans compiled without an estimator
/// attached; the optimizer stamps identical values at construction time).
void StampSignatures(PlanNode* root);

}  // namespace qpp::card
