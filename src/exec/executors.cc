#include "exec/executors.h"

#include <algorithm>
#include <chrono>

namespace qpp {
namespace {

inline double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// True iff the predicate (or absence of one) accepts the row.
inline bool Accepts(const Expr* predicate, const Tuple& row) {
  if (predicate == nullptr) return true;
  const Value v = predicate->Eval(row);
  return !v.is_null() && v.bool_value();
}

void Concat(const Tuple& l, const Tuple& r, Tuple* out) {
  out->clear();
  out->reserve(l.size() + r.size());
  out->insert(out->end(), l.begin(), l.end());
  out->insert(out->end(), r.begin(), r.end());
}

void ConcatNullRight(const Tuple& l, size_t right_arity, Tuple* out) {
  out->clear();
  out->reserve(l.size() + right_arity);
  out->insert(out->end(), l.begin(), l.end());
  for (size_t i = 0; i < right_arity; ++i) out->push_back(Value::Null());
}

// HashTuple of a join key, computed where it lies in `row`: the key's left
// (probe) columns, or its right ones on the build side. False, with *hash
// unset, when a key value is null, since null keys never join.
bool HashJoinKey(const Tuple& row, const std::vector<std::pair<int, int>>& keys,
                 bool build_side, size_t* hash) {
  size_t h = kHashTupleSeed;
  for (const auto& [l, r] : keys) {
    const Value& v = row[static_cast<size_t>(build_side ? r : l)];
    if (v.is_null()) return false;
    h = HashCombine(h, v);
  }
  *hash = h;
  return true;
}

// Opens `child`, passes each of its rows to `consume`, which may move it
// away, and closes it: the build phase of every blocking operator.
template <typename Consume>
Status Drain(Executor* child, Consume&& consume) {
  QPP_RETURN_NOT_OK(child->Open());
  Tuple row;
  while (true) {
    QPP_ASSIGN_OR_RETURN(bool has, child->Next(&row));
    if (!has) break;
    consume(row);
  }
  child->Close();
  return Status::OK();
}

// SQL semantics: an ungrouped aggregate emits exactly one row even when its
// input is empty. Writes that row to *out; returns whether HAVING keeps it.
bool EmptyInputRow(const std::vector<AggSpec>& aggs, const Expr* having,
                   Tuple* out) {
  out->clear();
  for (const auto& a : aggs) out->push_back(AggState(a.func).Finalize());
  return Accepts(having, *out);
}

}  // namespace

// -------------------------------- Executor ---------------------------------

Status Executor::Open() {
  const auto t0 = std::chrono::steady_clock::now();
  Status st = OpenImpl();
  cumulative_ms_ += ElapsedMs(t0);
  return st;
}

Result<bool> Executor::Next(Tuple* out) {
  const auto t0 = std::chrono::steady_clock::now();
  Result<bool> r = NextImpl(out);
  cumulative_ms_ += ElapsedMs(t0);
  if (r.ok() && *r) {
    if (start_time_ms_ < 0) start_time_ms_ = cumulative_ms_;
    ++rows_;
  }
  return r;
}

void Executor::Close() {
  const auto t0 = std::chrono::steady_clock::now();
  CloseImpl();
  cumulative_ms_ += ElapsedMs(t0);
  node_->actual.valid = true;
  node_->actual.start_time_ms =
      start_time_ms_ < 0 ? cumulative_ms_ : start_time_ms_;
  node_->actual.run_time_ms = cumulative_ms_;
  node_->actual.rows = static_cast<double>(rows_);
}

// -------------------------------- SeqScan ----------------------------------

Status SeqScanExecutor::OpenImpl() {
  next_row_ = 0;
  last_page_ = -1;
  return Status::OK();
}

Result<bool> SeqScanExecutor::NextImpl(Tuple* out) {
  const int64_t n = table_->num_rows();
  while (next_row_ < n) {
    const int64_t row = next_row_++;
    const int64_t page = table_->PageOfRow(row);
    if (page != last_page_) {
      if (ctx_->pool->AccessSequential(table_->id(), page)) {
        ++node_->actual.pool_hits;
      } else {
        ++node_->actual.pool_misses;
      }
      last_page_ = page;
      node_->actual.pages += 1;
    }
    table_->GetRow(row, read_, out);
    if (Accepts(predicate_, *out)) return true;
  }
  return false;
}

// -------------------------------- IndexScan --------------------------------

Status IndexScanExecutor::OpenImpl() {
  static const Tuple kEmpty;
  const Value key = probe_->Eval(kEmpty);
  if (key.is_null() || key.type() != TypeId::kInt64) {
    return Status::InvalidArgument("index probe must be a non-null INT64");
  }
  if (!table_->HasIndex(index_column_)) {
    return Status::InvalidArgument("no index on column " +
                                   std::to_string(index_column_) + " of " +
                                   table_->name());
  }
  matches_ = &table_->IndexLookup(index_column_, key.int64_value());
  next_match_ = 0;
  return Status::OK();
}

Result<bool> IndexScanExecutor::NextImpl(Tuple* out) {
  while (next_match_ < matches_->size()) {
    const int64_t row = (*matches_)[next_match_++];
    if (ctx_->pool->AccessRandom(table_->id(), table_->PageOfRow(row))) {
      ++node_->actual.pool_hits;
    } else {
      ++node_->actual.pool_misses;
    }
    node_->actual.pages += 1;
    table_->GetRow(row, read_, out);
    if (Accepts(predicate_, *out)) return true;
  }
  return false;
}

// -------------------------------- Filter -----------------------------------

Result<bool> FilterExecutor::NextImpl(Tuple* out) {
  while (true) {
    QPP_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    if (Accepts(predicate_, *out)) return true;
  }
}

// -------------------------------- Project ----------------------------------

Result<bool> ProjectExecutor::NextImpl(Tuple* out) {
  QPP_ASSIGN_OR_RETURN(bool has, child_->Next(&scratch_));
  if (!has) return false;
  out->clear();
  out->reserve(projections_->size());
  for (const auto& e : *projections_) out->push_back(e->Eval(scratch_));
  return true;
}

// ------------------------------ NestedLoopJoin -----------------------------

Status NestedLoopJoinExecutor::OpenImpl() {
  outer_valid_ = false;
  inner_open_ = false;
  return left_->Open();
}

Result<bool> NestedLoopJoinExecutor::AdvanceOuter() {
  QPP_ASSIGN_OR_RETURN(bool has, left_->Next(&outer_));
  outer_valid_ = has;
  outer_matched_ = false;
  if (has) {
    if (inner_open_) right_->Close();
    QPP_RETURN_NOT_OK(right_->Open());
    inner_open_ = true;
  }
  return has;
}

Result<bool> NestedLoopJoinExecutor::NextImpl(Tuple* out) {
  while (true) {
    if (!outer_valid_) {
      QPP_ASSIGN_OR_RETURN(bool has, AdvanceOuter());
      if (!has) return false;
    }
    QPP_ASSIGN_OR_RETURN(bool inner_has, right_->Next(&inner_));
    if (!inner_has) {
      outer_valid_ = false;
      if (outer_matched_) continue;
      if (type_ == JoinType::kAnti) {
        *out = std::move(outer_);
        return true;
      }
      if (type_ == JoinType::kLeftOuter) {
        ConcatNullRight(outer_, right_arity_, out);
        return true;
      }
      continue;
    }
    if (type_ == JoinType::kInner || type_ == JoinType::kLeftOuter) {
      Concat(outer_, inner_, out);
      if (!Accepts(predicate_, *out)) continue;
      outer_matched_ = true;
      return true;
    }
    if (predicate_ != nullptr) {
      Concat(outer_, inner_, &combined_);
      if (!Accepts(predicate_, combined_)) continue;
    }
    outer_valid_ = false;  // semi: one output per outer row; anti: skip it
    if (type_ == JoinType::kSemi) {
      *out = std::move(outer_);
      return true;
    }
  }
}

void NestedLoopJoinExecutor::CloseImpl() {
  left_->Close();
  if (inner_open_) right_->Close();
  inner_open_ = false;
}

// -------------------------------- HashJoin ---------------------------------

Status HashJoinExecutor::OpenImpl() {
  hash_table_.clear();
  probe_valid_ = false;
  bucket_ = nullptr;
  QPP_RETURN_NOT_OK(Drain(right_.get(), [this](Tuple& row) {
    size_t hash = 0;
    if (!HashJoinKey(row, *keys_, /*build_side=*/true, &hash)) return;
    hash_table_[hash].push_back(std::move(row));
  }));
  return left_->Open();
}

Result<bool> HashJoinExecutor::NextImpl(Tuple* out) {
  while (true) {
    if (!probe_valid_) {
      QPP_ASSIGN_OR_RETURN(bool has, left_->Next(&probe_));
      if (!has) return false;
      probe_valid_ = true;
      probe_matched_ = false;
      bucket_ = nullptr;
      size_t hash = 0;
      if (HashJoinKey(probe_, *keys_, /*build_side=*/false, &hash)) {
        auto it = hash_table_.find(hash);
        if (it != hash_table_.end()) bucket_ = &it->second;
      }
      bucket_pos_ = 0;
    }
    while (bucket_ != nullptr && bucket_pos_ < bucket_->size()) {
      const Tuple& build_row = (*bucket_)[bucket_pos_++];
      // Verify the key equality (hash collisions) and residual predicate.
      bool key_equal = true;
      for (const auto& [l, r] : *keys_) {
        if (probe_[static_cast<size_t>(l)].Compare(
                build_row[static_cast<size_t>(r)]) != 0) {
          key_equal = false;
          break;
        }
      }
      if (!key_equal) continue;
      if (type_ == JoinType::kInner || type_ == JoinType::kLeftOuter) {
        Concat(probe_, build_row, out);
        if (!Accepts(residual_, *out)) continue;
        probe_matched_ = true;
        return true;
      }
      if (residual_ != nullptr) {
        Concat(probe_, build_row, &combined_);
        if (!Accepts(residual_, combined_)) continue;
      }
      probe_valid_ = false;  // semi: one output per probe row; anti: drop it
      if (type_ == JoinType::kSemi) {
        *out = std::move(probe_);
        return true;
      }
      break;
    }
    if (!probe_valid_) continue;  // anti-join matched
    // Bucket exhausted for this probe row.
    probe_valid_ = false;
    if (probe_matched_) continue;
    if (type_ == JoinType::kAnti) {
      *out = std::move(probe_);
      return true;
    }
    if (type_ == JoinType::kLeftOuter) {
      ConcatNullRight(probe_, right_arity_, out);
      return true;
    }
  }
}

void HashJoinExecutor::CloseImpl() {
  left_->Close();
  hash_table_.clear();
}

// -------------------------------- MergeJoin --------------------------------

int MergeJoinExecutor::CompareKeys(const Tuple& l, const Tuple& r) const {
  for (const auto& [li, ri] : *keys_) {
    const int c = l[static_cast<size_t>(li)].Compare(r[static_cast<size_t>(ri)]);
    if (c != 0) return c;
  }
  return 0;
}

Status MergeJoinExecutor::OpenImpl() {
  QPP_RETURN_NOT_OK(left_->Open());
  QPP_RETURN_NOT_OK(right_->Open());
  auto l = left_->Next(&left_row_);
  if (!l.ok()) return l.status();
  left_valid_ = *l;
  auto r = right_->Next(&right_row_);
  if (!r.ok()) return r.status();
  right_valid_ = *r;
  group_active_ = false;
  right_group_.clear();
  return Status::OK();
}

Result<bool> MergeJoinExecutor::FillRightGroup() {
  // Moves all right rows equal (on keys) to right_row_ into right_group_;
  // right_row_ is left holding the first row past the group.
  right_group_.clear();
  right_group_.push_back(std::move(right_row_));
  while (true) {
    QPP_ASSIGN_OR_RETURN(bool has, right_->Next(&right_row_));
    if (!has) {
      right_valid_ = false;
      break;
    }
    // Compare the next right row against the group's representative using
    // the right key positions on both sides.
    bool same = true;
    for (const auto& [li, ri] : *keys_) {
      if (right_row_[static_cast<size_t>(ri)].Compare(
              right_group_.front()[static_cast<size_t>(ri)]) != 0) {
        same = false;
        break;
      }
    }
    if (!same) break;
    right_group_.push_back(std::move(right_row_));
  }
  return true;
}

Result<bool> MergeJoinExecutor::NextImpl(Tuple* out) {
  while (true) {
    if (group_active_) {
      while (group_pos_ < right_group_.size()) {
        Concat(left_row_, right_group_[group_pos_++], out);
        if (Accepts(residual_, *out)) return true;
      }
      // Advance left; if it stays in the same key group, replay the group.
      std::swap(prev_left_, left_row_);
      QPP_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      left_valid_ = has;
      if (!has) return false;
      bool same = true;
      for (const auto& [li, ri] : *keys_) {
        if (left_row_[static_cast<size_t>(li)].Compare(
                prev_left_[static_cast<size_t>(li)]) != 0) {
          same = false;
          break;
        }
      }
      if (same) {
        group_pos_ = 0;
        continue;
      }
      group_active_ = false;
    }
    if (!left_valid_ || !right_valid_) return false;
    const int c = CompareKeys(left_row_, right_row_);
    if (c < 0) {
      QPP_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      left_valid_ = has;
      if (!has) return false;
    } else if (c > 0) {
      QPP_ASSIGN_OR_RETURN(bool has, right_->Next(&right_row_));
      right_valid_ = has;
      if (!has) return false;
    } else {
      QPP_RETURN_NOT_OK(FillRightGroup().status());
      group_active_ = true;
      group_pos_ = 0;
    }
  }
}

void MergeJoinExecutor::CloseImpl() {
  left_->Close();
  right_->Close();
  right_group_.clear();
}

// ---------------------------------- Sort -----------------------------------

Status SortExecutor::OpenImpl() {
  rows_.clear();
  next_ = 0;
  QPP_RETURN_NOT_OK(Drain(
      child_.get(), [this](Tuple& row) { rows_.push_back(std::move(row)); }));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     for (size_t k = 0; k < keys_->size(); ++k) {
                       const int col = (*keys_)[k];
                       const int c = a[static_cast<size_t>(col)].Compare(
                           b[static_cast<size_t>(col)]);
                       if (c != 0) {
                         return (*desc_)[k] ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortExecutor::NextImpl(Tuple* out) {
  if (next_ >= rows_.size()) return false;
  *out = std::move(rows_[next_++]);
  return true;
}

void SortExecutor::CloseImpl() {
  rows_.clear();
  next_ = 0;
}

// ------------------------------- Materialize -------------------------------

Status MaterializeExecutor::OpenImpl() {
  next_ = 0;
  if (filled_) return Status::OK();
  QPP_RETURN_NOT_OK(Drain(
      child_.get(), [this](Tuple& row) { buffer_.push_back(std::move(row)); }));
  filled_ = true;
  return Status::OK();
}

Result<bool> MaterializeExecutor::NextImpl(Tuple* out) {
  if (next_ >= buffer_.size()) return false;
  *out = buffer_[next_++];
  return true;
}

// ------------------------------ HashAggregate ------------------------------

Status HashAggregateExecutor::OpenImpl() {
  results_.clear();
  next_ = 0;
  struct Group {
    Tuple key;
    std::vector<AggState> states;
  };
  std::unordered_map<size_t, std::vector<Group>> groups;
  const std::vector<int>& keys = *group_keys_;
  QPP_RETURN_NOT_OK(Drain(child_.get(), [&](const Tuple& row) {
    size_t hash = kHashTupleSeed;
    for (int k : keys) hash = HashCombine(hash, row[static_cast<size_t>(k)]);
    auto& chain = groups[hash];
    Group* group = nullptr;
    for (auto& g : chain) {
      bool equal = true;
      for (size_t i = 0; equal && i < keys.size(); ++i) {
        equal = g.key[i].Compare(row[static_cast<size_t>(keys[i])]) == 0;
      }
      if (equal) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      Tuple key;
      key.reserve(keys.size());
      for (int k : keys) key.push_back(row[static_cast<size_t>(k)]);
      chain.push_back(Group{std::move(key), {}});
      group = &chain.back();
      group->states.reserve(aggs_->size());
      for (const auto& a : *aggs_) group->states.emplace_back(a.func);
    }
    for (size_t i = 0; i < aggs_->size(); ++i) {
      const AggSpec& spec = (*aggs_)[i];
      group->states[i].Step(spec.arg ? spec.arg->Eval(row) : Value::Int64(1));
    }
  }));

  if (keys.empty() && groups.empty()) {
    Tuple out;
    if (EmptyInputRow(*aggs_, having_, &out)) results_.push_back(std::move(out));
    return Status::OK();
  }

  for (auto& [hash, chain] : groups) {
    for (auto& g : chain) {
      Tuple out = std::move(g.key);
      for (const auto& s : g.states) out.push_back(s.Finalize());
      if (Accepts(having_, out)) results_.push_back(std::move(out));
    }
  }
  return Status::OK();
}

Result<bool> HashAggregateExecutor::NextImpl(Tuple* out) {
  if (next_ >= results_.size()) return false;
  *out = std::move(results_[next_++]);
  return true;
}

void HashAggregateExecutor::CloseImpl() {
  results_.clear();
  next_ = 0;
}

// ------------------------------ GroupAggregate -----------------------------

bool GroupAggregateExecutor::SameGroup(const Tuple& a, const Tuple& b) const {
  for (int k : *group_keys_) {
    if (a[static_cast<size_t>(k)].Compare(b[static_cast<size_t>(k)]) != 0) {
      return false;
    }
  }
  return true;
}

void GroupAggregateExecutor::FinalizeGroup(Tuple* out) const {
  out->clear();
  out->reserve(group_keys_->size() + aggs_->size());
  for (int k : *group_keys_) {
    out->push_back(current_row_[static_cast<size_t>(k)]);
  }
  for (const auto& s : states_) out->push_back(s.Finalize());
}

Status GroupAggregateExecutor::OpenImpl() {
  have_row_ = false;
  done_ = false;
  states_.clear();
  return child_->Open();
}

Result<bool> GroupAggregateExecutor::NextImpl(Tuple* out) {
  if (done_) return false;
  while (true) {
    if (!have_row_) {
      QPP_ASSIGN_OR_RETURN(bool has, child_->Next(&current_row_));
      if (!has) {  // empty input
        done_ = true;
        return group_keys_->empty() && EmptyInputRow(*aggs_, having_, out);
      }
      have_row_ = true;
      states_.clear();
      states_.reserve(aggs_->size());
      for (const auto& a : *aggs_) states_.emplace_back(a.func);
    }
    // Fold current_row_ and subsequent rows of the same group.
    for (size_t i = 0; i < aggs_->size(); ++i) {
      const AggSpec& spec = (*aggs_)[i];
      states_[i].Step(spec.arg ? spec.arg->Eval(current_row_)
                               : Value::Int64(1));
    }
    QPP_ASSIGN_OR_RETURN(bool has, child_->Next(&next_row_));
    if (has && SameGroup(current_row_, next_row_)) {
      std::swap(current_row_, next_row_);
      continue;
    }
    FinalizeGroup(out);
    if (has) {
      std::swap(current_row_, next_row_);
      states_.clear();
      states_.reserve(aggs_->size());
      for (const auto& a : *aggs_) states_.emplace_back(a.func);
    } else {
      done_ = true;
      have_row_ = false;
    }
    if (Accepts(having_, *out)) return true;
    if (done_) return false;
  }
}

void GroupAggregateExecutor::CloseImpl() {
  child_->Close();
  states_.clear();
}

// ---------------------------------- Limit ----------------------------------

Result<bool> LimitExecutor::NextImpl(Tuple* out) {
  if (limit_ >= 0 && emitted_ >= limit_) return false;
  QPP_ASSIGN_OR_RETURN(bool has, child_->Next(out));
  if (!has) return false;
  ++emitted_;
  return true;
}

}  // namespace qpp
