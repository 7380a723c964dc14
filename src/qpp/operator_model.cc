#include "qpp/operator_model.h"

#include <algorithm>
#include <sstream>

#include "common/bundle.h"
#include "common/thread_pool.h"
#include "ml/linreg.h"

namespace qpp {
namespace {

/// Fallback self-time for operator types without a trained model: a small
/// per-tuple charge.
double DefaultSelfTime(const std::vector<double>& features) {
  return 1e-4 * features[1];  // nt
}

}  // namespace

std::vector<double> OperatorModelSet::BuildFeatures(
    const QueryRecord& query, int op_index, FeatureMode mode,
    bool predicted_child_times, const PredictionOverride& override_fn) const {
  // Layout: [np, nt, nt1, nt2, sel, st1, rt1, st2, rt2] (Table 2 order).
  const OperatorRecord& op = query.ops[static_cast<size_t>(op_index)];
  std::vector<double> f = ExtractOperatorStaticFeatures(query, op_index, mode);
  f.resize(9, 0.0);
  int slot = 0;
  for (int child_id : {op.left_child, op.right_child}) {
    const size_t st_pos = static_cast<size_t>(5 + 2 * slot);
    const size_t rt_pos = st_pos + 1;
    ++slot;
    if (child_id < 0) continue;
    const int ci = query.IndexOfNode(child_id);
    if (ci < 0) continue;
    if (predicted_child_times) {
      const TimePrediction child =
          PredictSubplan(query, ci, mode, override_fn);
      f[st_pos] = child.start_ms;
      f[rt_pos] = child.run_ms;
    } else {
      const OperatorRecord& child = query.ops[static_cast<size_t>(ci)];
      f[st_pos] = child.actual.start_time_ms;
      f[rt_pos] = child.actual.run_time_ms;
    }
  }
  return f;
}

// Model inputs derived from the raw Table 2 vector: the five static features
// plus each child's *residual* time (rt - st, the work remaining after its
// first tuple) — what a blocking operator must consume before producing
// output. Child start/run times themselves re-enter the prediction
// additively (see PredictSubplan), which hard-wires the physical prior that
// a sub-plan's time includes its children's and keeps composition stable on
// unforeseen plans. Every model reads all kNumModelInputs of them.
constexpr size_t kNumModelInputs = 7;
std::vector<double> ModelInputs(const std::vector<double>& f) {
  return {f[0], f[1], f[2], f[3], f[4], f[6] - f[5], f[8] - f[7]};
}

Status OperatorModelSet::FitAllTypes(
    const std::vector<const QueryRecord*>& queries) {
  std::array<FeatureMatrix, kNumPlanOps> xs;
  std::array<std::vector<double>, kNumPlanOps> start_ys, run_ys;
  for (const QueryRecord* q : queries) {
    for (size_t i = 0; i < q->ops.size(); ++i) {
      const OperatorRecord& op = q->ops[i];
      if (!op.actual.valid) continue;
      const size_t type = static_cast<size_t>(op.op);
      const std::vector<double> f =
          BuildFeatures(*q, static_cast<int>(i), config_.train_mode,
                        /*predicted_child_times=*/false, nullptr);
      xs[type].push_back(ModelInputs(f));
      // Targets are the operator's own contribution beyond its children
      // (non-negative under inclusive subtree timing).
      start_ys[type].push_back(
          std::max(0.0, op.actual.start_time_ms - f[5] - f[7]));
      run_ys[type].push_back(
          std::max(0.0, op.actual.run_time_ms - f[6] - f[8]));
    }
  }
  // Operator types train independently (disjoint models_ slots, read-only
  // shared training arrays), so the per-type fits fan out across the
  // training pool. Types with fewer than kMinSamples samples keep the
  // additive default.
  constexpr int kMinSamples = 8;
  return ThreadPool::Global()->ParallelFor(kNumPlanOps, [&](size_t t) {
    TypeModels& tm = models_[t];
    tm = TypeModels{};
    if (static_cast<int>(xs[t].size()) < kMinSamples) return Status::OK();
    for (int which = 0; which < 2; ++which) {
      const std::vector<double>& y = which == 0 ? start_ys[t] : run_ys[t];
      auto model = std::make_unique<LinearRegression>();
      QPP_RETURN_NOT_OK(model->Fit(xs[t], y));
      double max_target = 0.0;
      for (double target : y) max_target = std::max(max_target, target);
      if (which == 0) {
        tm.start_model = std::move(model);
        tm.max_start_target = max_target;
      } else {
        tm.run_model = std::move(model);
        tm.max_run_target = max_target;
      }
    }
    return Status::OK();
  });
}

Status OperatorModelSet::Train(const std::vector<const QueryRecord*>& queries) {
  if (queries.empty()) return Status::InvalidArgument("no training queries");
  // Child-time features come from the observed log during training (the
  // paper's logged values); static features follow config_.train_mode. At
  // prediction time composition substitutes the models' own child
  // predictions.
  QPP_RETURN_NOT_OK(FitAllTypes(queries));
  trained_ = true;
  return Status::OK();
}

bool OperatorModelSet::HasModelFor(PlanOp op) const {
  const TypeModels& tm = models_[static_cast<size_t>(op)];
  return tm.start_model != nullptr && tm.run_model != nullptr;
}

TimePrediction OperatorModelSet::PredictSubplan(
    const QueryRecord& query, int op_index, FeatureMode mode,
    const PredictionOverride& override_fn) const {
  if (override_fn) {
    TimePrediction overridden;
    if (override_fn(op_index, &overridden)) return overridden;
  }
  const std::vector<double> f =
      BuildFeatures(query, op_index, mode, /*predicted_child_times=*/true,
                    override_fn);
  const std::vector<double> inputs = ModelInputs(f);
  const OperatorRecord& op = query.ops[static_cast<size_t>(op_index)];
  const TypeModels& tm = models_[static_cast<size_t>(op.op)];
  const double st1 = f[5], rt1 = f[6], st2 = f[7], rt2 = f[8];
  double self_start, self_run;
  if (tm.start_model == nullptr || tm.run_model == nullptr) {
    self_start = 0.0;
    self_run = DefaultSelfTime(f);
  } else {
    // Self-time predictions are clamped to a small multiple of the largest
    // self-time seen in training: linear models fit on a narrow feature
    // manifold (e.g. one template) must degrade gracefully on unforeseen
    // plans, not extrapolate arbitrarily.
    constexpr double kExtrapolationCap = 4.0;
    self_start = std::clamp(tm.start_model->Predict(inputs), 0.0,
                            kExtrapolationCap * tm.max_start_target);
    self_run = std::clamp(tm.run_model->Predict(inputs), 0.0,
                          kExtrapolationCap * tm.max_run_target);
  }
  TimePrediction out;
  out.start_ms = st1 + st2 + self_start;
  out.run_ms = std::max(out.start_ms, rt1 + rt2 + self_run);
  return out;
}

double OperatorModelSet::PredictQuery(
    const QueryRecord& query, FeatureMode mode,
    const PredictionOverride& override_fn) const {
  if (query.ops.empty()) return 0.0;
  return PredictSubplan(query, 0, mode, override_fn).run_ms;
}

std::string OperatorModelSet::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "opmodelset\n";
  out << "mode " << static_cast<int>(config_.train_mode) << "\n";
  for (int t = 0; t < kNumPlanOps; ++t) {
    const TypeModels& tm = models_[static_cast<size_t>(t)];
    if (tm.start_model == nullptr || tm.run_model == nullptr) continue;
    out << "optype " << t << "\n";
    out << "max_targets " << tm.max_start_target << " " << tm.max_run_target
        << "\n";
    out << "start_model " << tm.start_model->Serialize() << "\n";
    out << "run_model " << tm.run_model->Serialize() << "\n";
  }
  return out.str();
}

Result<OperatorModelSet> OperatorModelSet::Deserialize(const std::string& text) {
  OperatorModelSet set;
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "opmodelset") {
    return Status::InvalidArgument("not an operator model payload");
  }
  TypeModels* tm = nullptr;  // the optype section being read
  while (std::getline(in, line)) {
    if (line.rfind("mode ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(set.config_.train_mode,
                           ParseFeatureMode(line.substr(5)));
    } else if (line.rfind("optype ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(const uint64_t t, ParseU64(line.substr(7), "optype"));
      if (t >= static_cast<uint64_t>(kNumPlanOps)) {
        return Status::InvalidArgument("bad optype");
      }
      tm = &set.models_[t];
    } else if (tm != nullptr && line.rfind("max_targets ", 0) == 0) {
      const std::vector<std::string> f = SplitPipe(line.substr(12), ' ');
      if (f.size() != 2) return Status::InvalidArgument("bad max_targets");
      QPP_ASSIGN_OR_RETURN(tm->max_start_target,
                           ParseDouble(f[0], "max start target"));
      QPP_ASSIGN_OR_RETURN(tm->max_run_target,
                           ParseDouble(f[1], "max run target"));
    } else if (tm != nullptr && line.rfind("start_model ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(tm->start_model, DeserializeModel(line.substr(12)));
    } else if (tm != nullptr && line.rfind("run_model ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(tm->run_model, DeserializeModel(line.substr(10)));
    }
  }
  for (const TypeModels& t : set.models_) {
    for (const RegressionModel* model :
         {t.start_model.get(), t.run_model.get()}) {
      if (model != nullptr && model->width() != kNumModelInputs) {
        return Status::InvalidArgument(
            "operator model width " + std::to_string(model->width()) +
            ", expected " + std::to_string(kNumModelInputs));
      }
    }
  }
  set.trained_ = true;
  return set;
}

}  // namespace qpp
