#include "workload/harvest.h"

namespace qpp {
namespace {

/// True when `parent_op` drains its `child_index`-th input whatever is
/// pulled from its own output.
bool ChildResetsTaint(PlanOp parent_op, size_t child_index) {
  switch (parent_op) {
    case PlanOp::kHashJoin:
      return child_index == 1;
    case PlanOp::kSort:
    case PlanOp::kMaterialize:
    case PlanOp::kHashAggregate:
      return true;
    default:
      return false;
  }
}

bool ChildTainted(bool tainted, PlanOp parent_op, size_t child_index) {
  return (tainted || parent_op == PlanOp::kLimit) &&
         !ChildResetsTaint(parent_op, child_index);
}

void Walk(const PlanNode& node, bool tainted,
          const std::function<void(const PlanNode&)>& visit) {
  if (!tainted && node.actual.valid) visit(node);
  for (size_t i = 0; i < node.children.size(); ++i) {
    Walk(*node.children[i], ChildTainted(tainted, node.op, i), visit);
  }
}

void Walk(const QueryRecord& record, int op_index, bool tainted,
          const std::function<void(const OperatorRecord&)>& visit) {
  if (op_index < 0 || op_index >= static_cast<int>(record.ops.size())) return;
  const OperatorRecord& op = record.ops[static_cast<size_t>(op_index)];
  if (!tainted && op.actual.valid) visit(op);
  const int children[2] = {op.left_child, op.right_child};
  for (size_t i = 0; i < 2; ++i) {
    if (children[i] < 0) continue;
    Walk(record, record.IndexOfNode(children[i]),
         ChildTainted(tainted, op.op, i), visit);
  }
}

}  // namespace

void ForEachTrustedActual(const PlanNode& root,
                          const std::function<void(const PlanNode&)>& visit) {
  Walk(root, /*tainted=*/false, visit);
}

void ForEachTrustedActual(
    const QueryRecord& record,
    const std::function<void(const OperatorRecord&)>& visit) {
  Walk(record, 0, /*tainted=*/false, visit);
}

}  // namespace qpp
