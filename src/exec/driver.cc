#include "exec/driver.h"

#include "exec/executors.h"

namespace qpp {
namespace {

NameResolver MakeResolver(const Schema& schema) {
  return [&schema](const std::string& name) {
    return ResolveColumn(schema, name);
  };
}

Schema ConcatSchemas(const Schema& l, const Schema& r) {
  std::vector<Schema::Column> cols = l.columns();
  for (const auto& c : r.columns()) cols.push_back(c);
  return Schema(std::move(cols));
}

// Binds every expression in the plan tree to its operator's input schema.
// Scan predicates bind against the scan's (aliased) output schema, join
// residuals against the concatenated child schemas, aggregate arguments
// against the child schema, and HAVING against the aggregate's own output
// schema. Rebinding an already-bound plan is a no-op.
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

// Marks in *read every column a bound expression reads, where read[i]
// stands for the expression's input column offset + i; columns outside
// that window are left to the caller (the other side of a join).
void MarkRead(const Expr* e, size_t offset, std::vector<bool>* read) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kColumnRef) {
    const auto i =
        static_cast<size_t>(static_cast<const ColumnRefExpr*>(e)->index());
    if (i >= offset && i - offset < read->size()) (*read)[i - offset] = true;
    return;
  }
  for (const Expr* c : e->Children()) MarkRead(c, offset, read);
}

void MarkRead(const std::vector<int>& columns, std::vector<bool>* read) {
  for (int c : columns) (*read)[static_cast<size_t>(c)] = true;
}

// Builds the executor tree for a bound plan. `read` marks the node's output
// columns that its consumer reads; each operator adds the columns it reads
// itself and hands its children theirs, so a scan materializes only columns
// that some operator above it reads. Every operator records its own timings
// into its node's PlanActuals (see Executor).
ExecutorPtr BuildExecutor(PlanNode* node, std::vector<bool> read,
                          ExecContext* ctx) {
  auto child = [&](size_t i, std::vector<bool> child_read) {
    return BuildExecutor(node->child(i), std::move(child_read), ctx);
  };
  auto none = [&](size_t i) {
    return std::vector<bool>(node->child(i)->output_schema.num_columns());
  };
  switch (node->op) {
    case PlanOp::kSeqScan:
      MarkRead(node->predicate.get(), 0, &read);
      return std::make_unique<SeqScanExecutor>(node, ctx, std::move(read));
    case PlanOp::kIndexScan:
      MarkRead(node->predicate.get(), 0, &read);
      return std::make_unique<IndexScanExecutor>(node, ctx, std::move(read));
    case PlanOp::kFilter:
      MarkRead(node->predicate.get(), 0, &read);
      return std::make_unique<FilterExecutor>(node, child(0, std::move(read)));
    case PlanOp::kProject: {
      std::vector<bool> in = none(0);
      for (const auto& e : node->projections) MarkRead(e.get(), 0, &in);
      return std::make_unique<ProjectExecutor>(node, child(0, std::move(in)));
    }
    case PlanOp::kNestedLoopJoin:
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin: {
      // Residuals bind to left ++ right; semi and anti joins output the
      // left columns only.
      const size_t left_width = node->child(0)->output_schema.num_columns();
      const auto split =
          read.begin() + static_cast<std::ptrdiff_t>(left_width);
      std::vector<bool> left(read.begin(), split);
      std::vector<bool> right = none(1);
      if (split != read.end()) right.assign(split, read.end());
      for (const auto& [l, r] : node->join_keys) {
        left[static_cast<size_t>(l)] = true;
        right[static_cast<size_t>(r)] = true;
      }
      MarkRead(node->predicate.get(), 0, &left);
      MarkRead(node->predicate.get(), left_width, &right);
      ExecutorPtr l = child(0, std::move(left));
      ExecutorPtr r = child(1, std::move(right));
      if (node->op == PlanOp::kNestedLoopJoin) {
        return std::make_unique<NestedLoopJoinExecutor>(node, std::move(l),
                                                        std::move(r));
      }
      if (node->op == PlanOp::kHashJoin) {
        return std::make_unique<HashJoinExecutor>(node, std::move(l),
                                                  std::move(r));
      }
      return std::make_unique<MergeJoinExecutor>(node, std::move(l),
                                                 std::move(r));
    }
    case PlanOp::kSort:
      MarkRead(node->sort_keys, &read);
      return std::make_unique<SortExecutor>(node, child(0, std::move(read)));
    case PlanOp::kMaterialize:
      return std::make_unique<MaterializeExecutor>(node,
                                                   child(0, std::move(read)));
    case PlanOp::kHashAggregate:
    case PlanOp::kGroupAggregate: {
      std::vector<bool> in = none(0);
      MarkRead(node->group_keys, &in);
      for (const auto& a : node->aggregates) MarkRead(a.arg.get(), 0, &in);
      if (node->op == PlanOp::kHashAggregate) {
        return std::make_unique<HashAggregateExecutor>(node,
                                                       child(0, std::move(in)));
      }
      return std::make_unique<GroupAggregateExecutor>(node,
                                                      child(0, std::move(in)));
    }
    case PlanOp::kLimit:
      return std::make_unique<LimitExecutor>(node, child(0, std::move(read)));
  }
  return nullptr;
}

}  // namespace

Result<ExecutionResult> ExecutePlan(PlanNode* root, Database* db,
                                    const ExecutionOptions& options) {
  QPP_RETURN_NOT_OK(BindPlan(root));
  ResetActuals(root);
  AssignNodeIds(root);
  if (options.cold_start) db->buffer_pool()->FlushAll();

  ExecContext ctx{db->buffer_pool()};
  ExecutorPtr exec = BuildExecutor(
      root, std::vector<bool>(root->output_schema.num_columns(), true), &ctx);
  ExecutionResult result;
  QPP_RETURN_NOT_OK(exec->Open());
  Tuple row;
  while (true) {
    auto r = exec->Next(&row);
    if (!r.ok()) return r.status();
    if (!*r) break;
    ++result.row_count;
    if (options.collect_rows) result.rows.push_back(std::move(row));
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
