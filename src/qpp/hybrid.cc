#include "qpp/hybrid.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/bundle.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace qpp {
namespace {

/// Algorithm 1 scores operator composition and trains sub-plan models on
/// the optimizer's estimates, the features a query has when it arrives.
constexpr FeatureMode kTrainMode = FeatureMode::kEstimate;

struct Candidate {
  std::string key;
  int subtree_size = 0;
  std::vector<PlanOccurrence> occurrences;
  double avg_error = 0.0;
};

}  // namespace

const char* PlanOrderingStrategyName(PlanOrderingStrategy s) {
  switch (s) {
    case PlanOrderingStrategy::kSizeBased: return "size-based";
    case PlanOrderingStrategy::kFrequencyBased: return "frequency-based";
    case PlanOrderingStrategy::kErrorBased: return "error-based";
  }
  return "?";
}

TimePrediction PlanModelTimePrediction(const PlanLevelModel& model,
                                       const QueryRecord& query, int op_index,
                                       FeatureMode mode) {
  const OperatorRecord& op = query.ops[static_cast<size_t>(op_index)];
  // Plan-level models predict total run-time; derive the start-time from
  // the optimizer's startup/total cost ratio.
  const double run = std::max(0.0, model.Predict(query, op_index, mode));
  const double ratio =
      op.est.total_cost > 0 ? op.est.startup_cost / op.est.total_cost : 0.0;
  return {std::clamp(ratio, 0.0, 1.0) * run, run};
}

PredictionOverride HybridModel::MakeOverride(const QueryRecord& query,
                                             FeatureMode mode) const {
  if (plan_models_.empty()) return nullptr;
  return [this, &query, mode](int op_index, TimePrediction* out) {
    auto it = plan_models_.find(
        query.ops[static_cast<size_t>(op_index)].structural_key);
    if (it == plan_models_.end()) return false;
    *out = PlanModelTimePrediction(it->second, query, op_index, mode);
    return true;
  };
}

double HybridModel::PredictQuery(const QueryRecord& query,
                                 FeatureMode mode) const {
  return op_models_.PredictQuery(query, mode, MakeOverride(query, mode));
}

Status HybridModel::EvaluateTrainingError(
    const std::vector<const QueryRecord*>& queries, double* out) const {
  // Per-query prediction is a pure read of the trained models; errors land
  // in per-index slots and are reduced on this thread in query order, so the
  // sum is bit-identical at any thread count.
  std::vector<double> errs(queries.size(), 0.0);
  std::vector<char> counted(queries.size(), 0);
  QPP_RETURN_NOT_OK(ThreadPool::Global()->ParallelFor(queries.size(), [&](size_t i) {
    const QueryRecord* q = queries[i];
    if (q->latency_ms <= 0) return Status::OK();
    const double pred =
        op_models_.PredictQuery(*q, kTrainMode, MakeOverride(*q, kTrainMode));
    errs[i] = *RelativeError(q->latency_ms, pred);  // latency_ms > 0 above
    counted[i] = 1;
    return Status::OK();
  }));
  double total = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!counted[i]) continue;
    total += errs[i];
    ++n;
  }
  *out = n == 0 ? 0.0 : total / static_cast<double>(n);
  return Status::OK();
}

void HybridModel::AddPlanModel(PlanLevelModel model) {
  plan_models_[model.structural_key()] = std::move(model);
}

Status HybridModel::Train(const std::vector<const QueryRecord*>& queries) {
  if (queries.empty()) return Status::InvalidArgument("no training queries");
  QPP_RETURN_NOT_OK(op_models_.Train(queries));
  plan_models_.clear();
  history_.clear();

  QPP_RETURN_NOT_OK(EvaluateTrainingError(queries, &initial_error_));
  double current_error = initial_error_;

  // Candidate sub-plans: every multi-operator plan structure with enough
  // occurrences (get_plan_list of Algorithm 1; the structural-key map is the
  // hash index the paper describes).
  std::map<std::string, Candidate> candidates;
  for (const QueryRecord* q : queries) {
    for (size_t i = 0; i < q->ops.size(); ++i) {
      const OperatorRecord& op = q->ops[i];
      if (op.subtree_size < 2 || !op.actual.valid) continue;
      Candidate& c = candidates[op.structural_key];
      c.key = op.structural_key;
      c.subtree_size = op.subtree_size;
      c.occurrences.push_back({q, static_cast<int>(i)});
    }
  }

  // Algorithm 1's epsilon: a new plan-level model is kept only when it
  // lowers the training error by at least kEpsilon. Sub-plans already
  // predicted better than kSkipErrorThreshold are not candidates.
  constexpr double kEpsilon = 0.002;
  constexpr double kSkipErrorThreshold = 0.10;
  std::set<std::string> rejected;
  PlanModelConfig sub_config;
  sub_config.feature_mode = kTrainMode;
  sub_config.require_same_key = true;

  for (int iteration = 1; iteration <= config_.max_iterations; ++iteration) {
    if (current_error <= config_.target_error) break;

    // Refresh per-candidate errors under the current model set, skipping
    // already-modeled, rejected, rare, and well-predicted plans. The error
    // of each surviving candidate is an independent read of the trained
    // models, so the refresh fans out; the arg-max below stays serial and
    // scans in map (key) order, preserving the serial tie-breaks.
    std::vector<Candidate*> eligible;
    for (auto& [key, cand] : candidates) {
      if (rejected.count(key) || plan_models_.count(key)) continue;
      if (static_cast<int>(cand.occurrences.size()) < config_.min_occurrences) {
        continue;
      }
      eligible.push_back(&cand);
    }
    QPP_RETURN_NOT_OK(ThreadPool::Global()->ParallelFor(eligible.size(), [&](size_t c) {
      Candidate& cand = *eligible[c];
      double err = 0.0;
      size_t n = 0;
      for (const PlanOccurrence& occ : cand.occurrences) {
        const OperatorRecord& op =
            occ.query->ops[static_cast<size_t>(occ.op_index)];
        if (op.actual.run_time_ms <= 0) continue;
        const TimePrediction pred =
            op_models_.PredictSubplan(*occ.query, occ.op_index, kTrainMode,
                                      MakeOverride(*occ.query, kTrainMode));
        err += *RelativeError(op.actual.run_time_ms, pred.run_ms);
        ++n;
      }
      cand.avg_error = n == 0 ? 0.0 : err / static_cast<double>(n);
      return Status::OK();
    }));

    const Candidate* chosen = nullptr;
    double best_rank = 0.0;
    for (Candidate* cand_ptr : eligible) {
      Candidate& cand = *cand_ptr;
      if (cand.avg_error < kSkipErrorThreshold) continue;

      double rank = 0.0;
      const double freq = static_cast<double>(cand.occurrences.size());
      switch (config_.strategy) {
        case PlanOrderingStrategy::kSizeBased:
          // Smaller first; ties by frequency.
          rank = -static_cast<double>(cand.subtree_size) + 1e-6 * freq;
          break;
        case PlanOrderingStrategy::kFrequencyBased:
          rank = freq - 1e-6 * static_cast<double>(cand.subtree_size);
          break;
        case PlanOrderingStrategy::kErrorBased:
          rank = freq * cand.avg_error;
          break;
      }
      if (chosen == nullptr || rank > best_rank) {
        chosen = &cand;
        best_rank = rank;
      }
    }
    if (chosen == nullptr) break;  // no candidates left

    PlanLevelModel model(sub_config);
    Status st = model.Train(chosen->occurrences);
    HybridIteration record;
    record.iteration = iteration;
    record.structural_key = chosen->key;
    if (!st.ok()) {
      rejected.insert(chosen->key);
      record.kept = false;
      record.error_after = current_error;
      history_.push_back(std::move(record));
      continue;
    }
    // Tentatively add, re-evaluate, keep only on sufficient improvement.
    plan_models_[chosen->key] = std::move(model);
    double new_error = 0.0;
    QPP_RETURN_NOT_OK(EvaluateTrainingError(queries, &new_error));
    if (new_error + kEpsilon <= current_error) {
      current_error = new_error;
      record.kept = true;
    } else {
      plan_models_.erase(chosen->key);
      rejected.insert(chosen->key);
      record.kept = false;
    }
    record.error_after = current_error;
    history_.push_back(std::move(record));
  }
  final_error_ = current_error;
  return Status::OK();
}

std::string HybridModel::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "hybridmodel v1\n";
  out << "errors " << initial_error_ << " " << final_error_ << "\n";
  out << "=== ops\n" << op_models_.Serialize() << "=== end\n";
  for (const auto& [key, model] : plan_models_) {
    out << "=== plan\n" << model.Serialize() << "=== end\n";
  }
  out << "=== endhybrid\n";
  return out.str();
}

Result<HybridModel> HybridModel::Deserialize(const std::string& text,
                                             HybridConfig config) {
  HybridModel hybrid(config);
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "hybridmodel v1") {
    return Status::InvalidArgument("not a hybrid model payload");
  }
  while (std::getline(in, line) && line != "=== endhybrid") {
    if (line.rfind("errors ", 0) == 0) {
      const std::vector<std::string> f = SplitPipe(line.substr(7), ' ');
      if (f.size() != 2) return Status::InvalidArgument("bad errors line");
      QPP_ASSIGN_OR_RETURN(hybrid.initial_error_,
                           ParseDouble(f[0], "initial error"));
      QPP_ASSIGN_OR_RETURN(hybrid.final_error_,
                           ParseDouble(f[1], "final error"));
    } else if (line == "=== ops" || line == "=== plan") {
      const bool is_ops = line == "=== ops";
      std::string payload;
      while (std::getline(in, line) && line != "=== end") {
        payload += line + "\n";
      }
      if (is_ops) {
        QPP_ASSIGN_OR_RETURN(hybrid.op_models_,
                             OperatorModelSet::Deserialize(payload));
      } else {
        QPP_ASSIGN_OR_RETURN(PlanLevelModel model,
                             PlanLevelModel::Deserialize(payload));
        hybrid.AddPlanModel(std::move(model));
      }
    }
  }
  if (!hybrid.op_models_.trained()) {
    return Status::InvalidArgument("hybrid payload missing operator models");
  }
  return hybrid;
}

}  // namespace qpp
