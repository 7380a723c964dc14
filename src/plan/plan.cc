#include "plan/plan.h"

#include <cstdio>

namespace qpp {

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kSeqScan: return "SeqScan";
    case PlanOp::kIndexScan: return "IndexScan";
    case PlanOp::kFilter: return "Filter";
    case PlanOp::kProject: return "Project";
    case PlanOp::kNestedLoopJoin: return "NestedLoop";
    case PlanOp::kHashJoin: return "HashJoin";
    case PlanOp::kMergeJoin: return "MergeJoin";
    case PlanOp::kSort: return "Sort";
    case PlanOp::kMaterialize: return "Materialize";
    case PlanOp::kHashAggregate: return "HashAggregate";
    case PlanOp::kGroupAggregate: return "GroupAggregate";
    case PlanOp::kLimit: return "Limit";
  }
  return "?";
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "Inner";
    case JoinType::kLeftOuter: return "Left";
    case JoinType::kSemi: return "Semi";
    case JoinType::kAnti: return "Anti";
  }
  return "?";
}

int PlanNode::NodeCount() const {
  int n = 1;
  for (const auto& c : children) n += c->NodeCount();
  return n;
}

std::string PlanNode::StructuralKey() const {
  std::string key = PlanOpName(op);
  if (op == PlanOp::kSeqScan || op == PlanOp::kIndexScan) {
    key += ":" + label;
  }
  if (op == PlanOp::kHashJoin || op == PlanOp::kMergeJoin ||
      op == PlanOp::kNestedLoopJoin) {
    if (join_type != JoinType::kInner) {
      key += std::string("[") + JoinTypeName(join_type) + "]";
    }
  }
  if (!children.empty()) {
    key += "(";
    for (size_t i = 0; i < children.size(); ++i) {
      if (i) key += ",";
      key += children[i]->StructuralKey();
    }
    key += ")";
  }
  return key;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto n = std::make_unique<PlanNode>(op);
  n->output_schema = output_schema;
  n->table = table;
  n->index_column = index_column;
  n->index_probe = index_probe ? index_probe->Clone() : nullptr;
  n->predicate = predicate ? predicate->Clone() : nullptr;
  n->join_type = join_type;
  n->join_keys = join_keys;
  for (const auto& p : projections) n->projections.push_back(p->Clone());
  n->sort_keys = sort_keys;
  n->sort_desc = sort_desc;
  n->group_keys = group_keys;
  for (const auto& a : aggregates) n->aggregates.push_back(a.Clone());
  n->having = having ? having->Clone() : nullptr;
  n->limit_count = limit_count;
  n->label = label;
  n->node_id = node_id;
  n->card_signature = card_signature;
  n->card_class = card_class;
  n->card_features = card_features;
  n->card_bounds = card_bounds;
  n->est_source = est_source;
  n->est = est;
  for (const auto& c : children) n->children.push_back(c->Clone());
  return n;
}

namespace {

int AssignIdsRec(PlanNode* node, int next) {
  node->node_id = next++;
  for (auto& c : node->children) next = AssignIdsRec(c.get(), next);
  return next;
}

void ExplainRec(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(2 * depth), ' ');
  out->append(PlanOpName(node.op));
  if (!node.label.empty()) {
    out->append(" on ");
    out->append(node.label);
  }
  if (node.op == PlanOp::kHashJoin || node.op == PlanOp::kMergeJoin ||
      node.op == PlanOp::kNestedLoopJoin) {
    out->append(" [");
    out->append(JoinTypeName(node.join_type));
    out->append("]");
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  (cost=%.2f..%.2f rows=%.0f width=%.0f sel=%.4f)",
                node.est.startup_cost, node.est.total_cost, node.est.rows,
                node.est.width, node.est.selectivity);
  out->append(buf);
  if (node.predicate) {
    out->append("  filter: ");
    out->append(node.predicate->ToString());
  }
  out->append("\n");
  for (const auto& c : node.children) {
    ExplainRec(*c, depth + 1, out);
  }
}

}  // namespace

int AssignNodeIds(PlanNode* root) { return AssignIdsRec(root, 0); }

void CollectNodes(PlanNode* root, std::vector<PlanNode*>* out) {
  out->push_back(root);
  for (auto& c : root->children) CollectNodes(c.get(), out);
}

void CollectNodes(const PlanNode* root, std::vector<const PlanNode*>* out) {
  out->push_back(root);
  for (const auto& c : root->children) CollectNodes(c.get(), out);
}

std::string ExplainPlan(const PlanNode& root) {
  std::string out;
  ExplainRec(root, 0, &out);
  return out;
}

void ResetActuals(PlanNode* root) {
  root->actual = PlanActuals{};
  for (auto& c : root->children) ResetActuals(c.get());
}

}  // namespace qpp
