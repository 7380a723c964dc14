#include "qpp/predictor.h"

#include <limits>
#include <optional>
#include <sstream>

#include "common/bundle.h"
#include "ml/linreg.h"

namespace qpp {

const char* PredictionMethodName(PredictionMethod m) {
  switch (m) {
    case PredictionMethod::kOptimizerCost: return "optimizer-cost";
    case PredictionMethod::kPlanLevel: return "plan-level";
    case PredictionMethod::kOperatorLevel: return "operator-level";
    case PredictionMethod::kHybrid: return "hybrid";
    case PredictionMethod::kOnline: return "online";
  }
  return "?";
}

Status QueryPerformancePredictor::Train(const QueryLog& log) {
  if (log.queries.empty()) {
    return Status::InvalidArgument("empty training log");
  }
  std::vector<const QueryRecord*> refs;
  refs.reserve(log.queries.size());
  for (const QueryRecord& q : log.queries) refs.push_back(&q);

  // Each method trains a local model and takes it only on success.
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost: {
      FeatureMatrix x;
      std::vector<double> y;
      for (const QueryRecord* q : refs) {
        x.push_back({q->root().est.total_cost});
        y.push_back(q->latency_ms);
      }
      auto model = std::make_unique<LinearRegression>();
      QPP_RETURN_NOT_OK(model->Fit(x, y));
      cost_baseline_ = std::move(model);
      return Status::OK();
    }
    case PredictionMethod::kPlanLevel: {
      PlanModelConfig cfg;
      cfg.feature_mode = config_.feature_mode;
      PlanLevelModel model(cfg);
      std::vector<PlanOccurrence> occurrences;
      for (const QueryRecord* q : refs) occurrences.push_back({q, 0});
      QPP_RETURN_NOT_OK(model.Train(occurrences));
      global_plan_model_ = std::move(model);
      return Status::OK();
    }
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid: {
      HybridConfig cfg = config_.hybrid;
      if (config_.method == PredictionMethod::kOperatorLevel) {
        cfg.max_iterations = 0;  // pure operator composition, no plan models
      }
      auto model = std::make_unique<HybridModel>(cfg);
      QPP_RETURN_NOT_OK(model->Train(refs));
      hybrid_ = std::move(model);
      return Status::OK();
    }
    case PredictionMethod::kOnline: {
      HybridConfig cfg = config_.hybrid;
      cfg.max_iterations = 0;  // operator models only; plan models online
      HybridModel operators(cfg);
      QPP_RETURN_NOT_OK(operators.Train(refs));
      online_ = std::make_unique<OnlinePredictor>(
          log, std::move(operators), config_.hybrid.min_occurrences);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

bool QueryPerformancePredictor::trained() const {
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost: return cost_baseline_ != nullptr;
    case PredictionMethod::kPlanLevel: return global_plan_model_.trained();
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid: return hybrid_ != nullptr;
    case PredictionMethod::kOnline: return online_ != nullptr;
  }
  return false;
}

Result<double> QueryPerformancePredictor::PredictLatencyMs(
    const QueryRecord& query) const {
  if (!trained()) return Status::InvalidArgument("predictor not trained");
  if (query.ops.empty()) return Status::InvalidArgument("empty query record");
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost:
      return cost_baseline_->Predict({query.root().est.total_cost});
    case PredictionMethod::kPlanLevel:
      return global_plan_model_.Predict(query, 0, config_.feature_mode);
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid:
      return hybrid_->PredictQuery(query, config_.feature_mode);
    case PredictionMethod::kOnline:
      return online_->PredictQuery(query, config_.feature_mode);
  }
  return Status::Internal("unreachable");
}

Result<std::string> QueryPerformancePredictor::SerializeModels() const {
  if (!trained()) return Status::InvalidArgument("predictor not trained");
  std::ostringstream out;
  out << "qpp models v3\n";
  out << "method " << static_cast<int>(config_.method) << "\n";
  out << "feature_mode " << static_cast<int>(config_.feature_mode) << "\n";
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost:
      out << "costmodel " << cost_baseline_->Serialize() << "\n";
      break;
    case PredictionMethod::kPlanLevel:
      out << "=== plan\n" << global_plan_model_.Serialize() << "=== end\n";
      break;
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid:
      out << hybrid_->Serialize();
      break;
    case PredictionMethod::kOnline:
      // Operator models plus everything the sub-plan models are built from:
      // the online model cache is rebuilt deterministically (seeded
      // training) on demand, so a reloaded predictor gives bitwise-identical
      // predictions.
      out << "min_occurrences " << online_->min_occurrences() << "\n";
      out << online_->operators().Serialize();
      out << "=== log\n";
      online_->training().WriteTo(out);
      out << "=== endlog\n";
      break;
  }
  return out.str();
}

Status QueryPerformancePredictor::LoadModelsFromText(
    const std::string& text, const std::string& source_name) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("qpp models ", 0) != 0) {
    return Status::IOError(source_name + ": not a qpp model payload");
  }
  if (line != "qpp models v3") {
    // v1 and v2 wrote a feature list per model, which v3 models do not read:
    // a v2 list can permute all of a model's inputs.
    return Status::IOError(source_name + ": unsupported payload version '" +
                           line + "', expected 'qpp models v3'");
  }
  if (!std::getline(in, line) || line.rfind("method ", 0) != 0) {
    return Status::IOError(source_name + ": missing method line");
  }
  QPP_ASSIGN_OR_RETURN(const uint64_t method,
                       ParseU64(line.substr(7), "prediction method"));
  if (method > static_cast<uint64_t>(PredictionMethod::kOnline)) {
    return Status::IOError(source_name + ": unknown prediction method " +
                           line.substr(7));
  }
  // Parsed into a fresh predictor, which replaces this one once complete.
  QueryPerformancePredictor loaded;
  loaded.config_.method = static_cast<PredictionMethod>(method);
  std::optional<HybridModel> hybrid;
  std::optional<QueryLog> log;
  while (std::getline(in, line)) {
    if (line.rfind("feature_mode ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(loaded.config_.feature_mode,
                           ParseFeatureMode(line.substr(13)));
    } else if (line.rfind("min_occurrences ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(const uint64_t min_occurrences,
                           ParseU64(line.substr(16), "min_occurrences"));
      if (min_occurrences >
          static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        return Status::IOError(source_name + ": min_occurrences " +
                               line.substr(16) + " out of range");
      }
      loaded.config_.hybrid.min_occurrences = static_cast<int>(min_occurrences);
    } else if (line.rfind("costmodel ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(loaded.cost_baseline_,
                           DeserializeModel(line.substr(10)));
    } else if (line == "hybridmodel v1") {
      std::string payload = line + "\n";
      while (std::getline(in, line)) {
        payload += line + "\n";
        if (line == "=== endhybrid") break;
      }
      QPP_ASSIGN_OR_RETURN(hybrid, HybridModel::Deserialize(payload));
    } else if (line == "=== log") {
      std::string payload;
      while (std::getline(in, line) && line != "=== endlog") {
        payload += line + "\n";
      }
      std::istringstream log_in(payload);
      QPP_ASSIGN_OR_RETURN(
          log, QueryLog::LoadFromStream(log_in, source_name + " (embedded log)"));
    } else if (line == "=== plan") {
      // The kPlanLevel global model.
      std::string payload;
      while (std::getline(in, line) && line != "=== end") {
        payload += line + "\n";
      }
      QPP_ASSIGN_OR_RETURN(loaded.global_plan_model_,
                           PlanLevelModel::Deserialize(payload));
    }
  }
  switch (loaded.config_.method) {
    case PredictionMethod::kOptimizerCost:
      if (loaded.cost_baseline_ == nullptr) {
        return Status::IOError(source_name + ": missing costmodel line");
      }
      break;
    case PredictionMethod::kPlanLevel:
      if (!loaded.global_plan_model_.trained()) {
        return Status::IOError(source_name + ": missing plan model section");
      }
      break;
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid:
      if (!hybrid.has_value()) {
        return Status::IOError(source_name +
                               ": missing operator model section");
      }
      loaded.hybrid_ = std::make_unique<HybridModel>(std::move(*hybrid));
      break;
    case PredictionMethod::kOnline:
      if (!hybrid.has_value()) {
        return Status::IOError(source_name +
                               ": missing operator model section");
      }
      if (!log.has_value() || log->queries.empty()) {
        return Status::IOError(source_name +
                               ": online method needs an embedded log");
      }
      // A payload without a min_occurrences line (written before the line
      // existed) gets the default, HybridConfig's.
      loaded.online_ = std::make_unique<OnlinePredictor>(
          std::move(*log), std::move(*hybrid),
          loaded.config_.hybrid.min_occurrences);
      break;
  }
  *this = std::move(loaded);
  return Status::OK();
}

}  // namespace qpp
