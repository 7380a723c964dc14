#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"
#include "storage/buffer_pool.h"

namespace qpp {

/// Shared execution state: the buffer pool "I/O" goes through.
struct ExecContext {
  BufferPool* pool = nullptr;
};

/// \brief Volcano-style iterator that records the paper's per-operator
/// timings on its plan node. Open() may be called again after Close() to
/// rescan (NestedLoopJoin relies on this; Materialize makes it cheap).
///
/// Open/Next/Close read the clock around each call of the operator's
/// *Impl. Run-time is the time spent in those calls over every rescan,
/// inclusive of children, since child calls happen within them; start-time
/// is that cumulative time when the first tuple emerged; rows counts the
/// output over every rescan. Each Close writes them into the node's
/// PlanActuals, so a node that is never closed stays invalid.
class Executor {
 public:
  explicit Executor(PlanNode* node) : node_(node) {}
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  Status Open();
  /// Produces the next tuple into *out; returns false when exhausted.
  Result<bool> Next(Tuple* out);
  void Close();

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Tuple* out) = 0;
  virtual void CloseImpl() = 0;

  PlanNode* const node_;

 private:
  double cumulative_ms_ = 0.0;
  double start_time_ms_ = -1.0;
  int64_t rows_ = 0;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// Sequential scan with optional residual predicate; charges one buffer-pool
/// sequential page access per page boundary crossed. Materializes only the
/// columns `read` marks; the others are null.
class SeqScanExecutor : public Executor {
 public:
  SeqScanExecutor(PlanNode* node, ExecContext* ctx, std::vector<bool> read)
      : Executor(node),
        ctx_(ctx),
        table_(node->table),
        predicate_(node->predicate.get()),
        read_(std::move(read)) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override {}

  ExecContext* ctx_;
  const Table* table_;
  const Expr* predicate_;
  std::vector<bool> read_;
  int64_t next_row_ = 0;
  int64_t last_page_ = -1;
};

/// Index scan: probes the table's hash index with a constant key and applies
/// the optional residual predicate. Charges random page accesses.
/// Materializes only the columns `read` marks; the others are null.
class IndexScanExecutor : public Executor {
 public:
  IndexScanExecutor(PlanNode* node, ExecContext* ctx, std::vector<bool> read)
      : Executor(node),
        ctx_(ctx),
        table_(node->table),
        index_column_(node->index_column),
        probe_(node->index_probe.get()),
        predicate_(node->predicate.get()),
        read_(std::move(read)) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override {}

  ExecContext* ctx_;
  const Table* table_;
  int index_column_;
  const Expr* probe_;
  const Expr* predicate_;
  std::vector<bool> read_;
  const std::vector<uint32_t>* matches_ = nullptr;
  size_t next_match_ = 0;
};

/// Filters child tuples by a predicate.
class FilterExecutor : public Executor {
 public:
  FilterExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node),
        child_(std::move(child)),
        predicate_(node->predicate.get()) {}

 private:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override { child_->Close(); }

  ExecutorPtr child_;
  const Expr* predicate_;
};

/// Computes projection expressions over child tuples.
class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node),
        child_(std::move(child)),
        projections_(&node->projections) {}

 private:
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override { child_->Close(); }

  ExecutorPtr child_;
  const std::vector<ExprPtr>* projections_;
  Tuple scratch_;
};

/// Nested-loop join: rescans the right (inner) child per outer tuple.
/// Supports inner / left-outer / semi / anti with an arbitrary predicate
/// over the concatenated tuple.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(PlanNode* node, ExecutorPtr left, ExecutorPtr right)
      : Executor(node),
        left_(std::move(left)),
        right_(std::move(right)),
        type_(node->join_type),
        predicate_(node->predicate.get()),
        right_arity_(node->child(1)->output_schema.num_columns()) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;
  Result<bool> AdvanceOuter();

  ExecutorPtr left_, right_;
  JoinType type_;
  const Expr* predicate_;
  size_t right_arity_;
  Tuple outer_;
  bool outer_valid_ = false;
  bool outer_matched_ = false;
  bool inner_open_ = false;
  Tuple inner_;
  Tuple combined_;  // semi/anti with a predicate only
};

/// Hash join: builds on the right child, probes with the left. Supports
/// inner / left-outer / semi / anti plus an optional residual predicate.
/// Build rows are moved into the table, and keys are hashed where they lie.
class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(PlanNode* node, ExecutorPtr left, ExecutorPtr right)
      : Executor(node),
        left_(std::move(left)),
        right_(std::move(right)),
        type_(node->join_type),
        keys_(&node->join_keys),
        residual_(node->predicate.get()),
        right_arity_(node->child(1)->output_schema.num_columns()) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;

  ExecutorPtr left_, right_;
  JoinType type_;
  const std::vector<std::pair<int, int>>* keys_;
  const Expr* residual_;
  size_t right_arity_;
  std::unordered_map<size_t, std::vector<Tuple>> hash_table_;
  Tuple probe_;
  bool probe_valid_ = false;
  bool probe_matched_ = false;
  const std::vector<Tuple>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
  Tuple combined_;  // semi/anti with a residual only
};

/// Merge join over inputs already sorted on the join keys (inner only; the
/// optimizer adds Sort children as needed). Buffers right-side key groups to
/// handle duplicates.
class MergeJoinExecutor : public Executor {
 public:
  MergeJoinExecutor(PlanNode* node, ExecutorPtr left, ExecutorPtr right)
      : Executor(node),
        left_(std::move(left)),
        right_(std::move(right)),
        keys_(&node->join_keys),
        residual_(node->predicate.get()) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;
  int CompareKeys(const Tuple& l, const Tuple& r) const;
  Result<bool> FillRightGroup();

  ExecutorPtr left_, right_;
  const std::vector<std::pair<int, int>>* keys_;
  const Expr* residual_;
  Tuple left_row_;
  Tuple prev_left_;
  bool left_valid_ = false;
  Tuple right_row_;
  bool right_valid_ = false;
  std::vector<Tuple> right_group_;
  size_t group_pos_ = 0;
  bool group_active_ = false;
};

/// Blocking full sort; moves its input rows in and its output rows out.
class SortExecutor : public Executor {
 public:
  SortExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node),
        child_(std::move(child)),
        keys_(&node->sort_keys),
        desc_(&node->sort_desc) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;

  ExecutorPtr child_;
  const std::vector<int>* keys_;
  const std::vector<bool>* desc_;
  std::vector<Tuple> rows_;
  size_t next_ = 0;
};

/// Materializes the child's output on first Open; later re-Opens replay the
/// buffer without re-executing the child (the paper's Materialize start-time
/// vs run-time example rests on exactly this behaviour). Rows are moved in
/// and copied out, since every rescan replays them.
class MaterializeExecutor : public Executor {
 public:
  MaterializeExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node), child_(std::move(child)) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override { next_ = 0; }

  ExecutorPtr child_;
  bool filled_ = false;
  std::vector<Tuple> buffer_;
  size_t next_ = 0;
};

/// Hash aggregation (blocking): groups by child column positions, computes
/// AggSpecs, applies an optional HAVING predicate over the output row.
/// Group keys are hashed where they lie; output rows are moved out.
class HashAggregateExecutor : public Executor {
 public:
  HashAggregateExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node),
        child_(std::move(child)),
        group_keys_(&node->group_keys),
        aggs_(&node->aggregates),
        having_(node->having.get()) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;

  ExecutorPtr child_;
  const std::vector<int>* group_keys_;
  const std::vector<AggSpec>* aggs_;
  const Expr* having_;
  std::vector<Tuple> results_;
  size_t next_ = 0;
};

/// Streaming aggregation over input sorted by the group keys; emits each
/// group as soon as its run ends (non-blocking start behaviour).
class GroupAggregateExecutor : public Executor {
 public:
  GroupAggregateExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node),
        child_(std::move(child)),
        group_keys_(&node->group_keys),
        aggs_(&node->aggregates),
        having_(node->having.get()) {}

 private:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override;
  bool SameGroup(const Tuple& a, const Tuple& b) const;
  void FinalizeGroup(Tuple* out) const;

  ExecutorPtr child_;
  const std::vector<int>* group_keys_;
  const std::vector<AggSpec>* aggs_;
  const Expr* having_;
  Tuple current_row_;
  Tuple next_row_;  // look-ahead; swapped with current_row_ to reuse both
  bool have_row_ = false;
  bool done_ = false;
  std::vector<AggState> states_;
};

/// LIMIT n.
class LimitExecutor : public Executor {
 public:
  LimitExecutor(PlanNode* node, ExecutorPtr child)
      : Executor(node), child_(std::move(child)), limit_(node->limit_count) {}

 private:
  Status OpenImpl() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> NextImpl(Tuple* out) override;
  void CloseImpl() override { child_->Close(); }

  ExecutorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

}  // namespace qpp
