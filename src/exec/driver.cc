#include "exec/driver.h"

namespace qpp {
namespace {

NameResolver MakeResolver(const Schema& schema) {
  return [&schema](const std::string& name) { return ResolveName(schema, name); };
}

Schema ConcatSchemas(const Schema& l, const Schema& r) {
  std::vector<Schema::Column> cols = l.columns();
  for (const auto& c : r.columns()) cols.push_back(c);
  return Schema(std::move(cols));
}

}  // namespace

Result<int> ResolveName(const Schema& schema, const std::string& name) {
  return ResolveColumn(schema, name);
}

Status BindPlan(PlanNode* node) {
  for (auto& c : node->children) {
    QPP_RETURN_NOT_OK(BindPlan(c.get()));
  }
  switch (node->op) {
    case PlanOp::kSeqScan:
    case PlanOp::kIndexScan: {
      auto resolver = MakeResolver(node->output_schema);
      if (node->predicate) QPP_RETURN_NOT_OK(node->predicate->Bind(resolver));
      if (node->index_probe) {
        // Constant probes reference no columns but Bind recurses anyway.
        QPP_RETURN_NOT_OK(node->index_probe->Bind(resolver));
      }
      break;
    }
    case PlanOp::kFilter: {
      auto resolver = MakeResolver(node->child(0)->output_schema);
      if (node->predicate) QPP_RETURN_NOT_OK(node->predicate->Bind(resolver));
      break;
    }
    case PlanOp::kProject: {
      auto resolver = MakeResolver(node->child(0)->output_schema);
      for (auto& e : node->projections) QPP_RETURN_NOT_OK(e->Bind(resolver));
      break;
    }
    case PlanOp::kNestedLoopJoin:
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin: {
      const Schema combined = ConcatSchemas(node->child(0)->output_schema,
                                            node->child(1)->output_schema);
      auto resolver = MakeResolver(combined);
      if (node->predicate) QPP_RETURN_NOT_OK(node->predicate->Bind(resolver));
      break;
    }
    case PlanOp::kHashAggregate:
    case PlanOp::kGroupAggregate: {
      auto child_resolver = MakeResolver(node->child(0)->output_schema);
      for (auto& a : node->aggregates) {
        if (a.arg) QPP_RETURN_NOT_OK(a.arg->Bind(child_resolver));
      }
      if (node->having) {
        auto out_resolver = MakeResolver(node->output_schema);
        QPP_RETURN_NOT_OK(node->having->Bind(out_resolver));
      }
      break;
    }
    case PlanOp::kSort:
    case PlanOp::kMaterialize:
    case PlanOp::kLimit:
      break;
  }
  return Status::OK();
}

ExecutorPtr BuildExecutor(PlanNode* node, ExecContext* ctx) {
  auto child = [&](size_t i) { return BuildExecutor(node->child(i), ctx); };
  switch (node->op) {
    case PlanOp::kSeqScan:
      return std::make_unique<SeqScanExecutor>(node, ctx);
    case PlanOp::kIndexScan:
      return std::make_unique<IndexScanExecutor>(node, ctx);
    case PlanOp::kFilter:
      return std::make_unique<FilterExecutor>(node, child(0));
    case PlanOp::kProject:
      return std::make_unique<ProjectExecutor>(node, child(0));
    case PlanOp::kNestedLoopJoin:
      return std::make_unique<NestedLoopJoinExecutor>(node, child(0), child(1));
    case PlanOp::kHashJoin:
      return std::make_unique<HashJoinExecutor>(node, child(0), child(1));
    case PlanOp::kMergeJoin:
      return std::make_unique<MergeJoinExecutor>(node, child(0), child(1));
    case PlanOp::kSort:
      return std::make_unique<SortExecutor>(node, child(0));
    case PlanOp::kMaterialize:
      return std::make_unique<MaterializeExecutor>(node, child(0));
    case PlanOp::kHashAggregate:
      return std::make_unique<HashAggregateExecutor>(node, child(0));
    case PlanOp::kGroupAggregate:
      return std::make_unique<GroupAggregateExecutor>(node, child(0));
    case PlanOp::kLimit:
      return std::make_unique<LimitExecutor>(node, child(0));
  }
  return nullptr;
}

Result<ExecutionResult> ExecutePlan(PlanNode* root, Database* db,
                                    const ExecutionOptions& options) {
  QPP_RETURN_NOT_OK(BindPlan(root));  // rebinding an already-bound plan is a no-op
  ResetActuals(root);
  AssignNodeIds(root);
  if (options.cold_start) db->buffer_pool()->FlushAll();
  db->buffer_pool()->ResetCounters();

  ExecContext ctx{db->buffer_pool()};
  ExecutorPtr exec = BuildExecutor(root, &ctx);
  ExecutionResult result;
  QPP_RETURN_NOT_OK(exec->Open());
  Tuple row;
  while (true) {
    auto r = exec->Next(&row);
    if (!r.ok()) return r.status();
    if (!*r) break;
    ++result.row_count;
    if (options.collect_rows) result.rows.push_back(row);
  }
  exec->Close();
  result.latency_ms = root->actual.run_time_ms;
  // Sum the per-operator attribution rather than reading the pool's global
  // counters: the pool may be shared (InitPlans, interleaved runs), and the
  // per-node counters were reset with the actuals above.
  std::vector<const PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (const PlanNode* n : nodes) {
    result.pool_hits += n->actual.pool_hits;
    result.pool_misses += n->actual.pool_misses;
  }
  return result;
}

}  // namespace qpp
