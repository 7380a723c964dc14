#include "qpp/predictor.h"

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

QueryPerformancePredictor::QueryPerformancePredictor(
    QueryPerformancePredictor&& other) noexcept
    : config_(std::move(other.config_)),
      trained_(other.trained_),
      training_log_(std::move(other.training_log_)),
      training_refs_(std::move(other.training_refs_)),
      hybrid_(std::move(other.hybrid_)),
      global_plan_model_(std::move(other.global_plan_model_)),
      cost_baseline_(std::move(other.cost_baseline_)),
      online_(std::move(other.online_)) {
  other.trained_ = false;
  if (online_ != nullptr) online_->set_op_models(&hybrid_.operator_models());
}

QueryPerformancePredictor& QueryPerformancePredictor::operator=(
    QueryPerformancePredictor&& other) noexcept {
  if (this == &other) return *this;
  config_ = std::move(other.config_);
  trained_ = other.trained_;
  other.trained_ = false;
  training_log_ = std::move(other.training_log_);
  training_refs_ = std::move(other.training_refs_);
  hybrid_ = std::move(other.hybrid_);
  global_plan_model_ = std::move(other.global_plan_model_);
  cost_baseline_ = std::move(other.cost_baseline_);
  online_ = std::move(other.online_);
  if (online_ != nullptr) online_->set_op_models(&hybrid_.operator_models());
  return *this;
}

Status QueryPerformancePredictor::Train(const QueryLog& log) {
  if (log.queries.empty()) {
    return Status::InvalidArgument("empty training log");
  }
  training_log_ = log;
  training_refs_.clear();
  training_refs_.reserve(training_log_.queries.size());
  for (const QueryRecord& q : training_log_.queries) {
    training_refs_.push_back(&q);
  }

  switch (config_.method) {
    case PredictionMethod::kOptimizerCost: {
      FeatureMatrix x;
      std::vector<double> y;
      for (const QueryRecord* q : training_refs_) {
        x.push_back({q->root().est.total_cost});
        y.push_back(q->latency_ms);
      }
      cost_baseline_ = std::make_unique<LinearRegression>();
      QPP_RETURN_NOT_OK(cost_baseline_->Fit(x, y));
      break;
    }
    case PredictionMethod::kPlanLevel: {
      PlanModelConfig cfg;
      cfg.feature_mode = config_.feature_mode;
      global_plan_model_ = PlanLevelModel(cfg);
      std::vector<PlanOccurrence> occurrences;
      for (const QueryRecord* q : training_refs_) {
        occurrences.push_back({q, 0});
      }
      QPP_RETURN_NOT_OK(global_plan_model_.Train(occurrences));
      break;
    }
    case PredictionMethod::kOperatorLevel: {
      HybridConfig cfg = config_.hybrid;
      cfg.max_iterations = 0;  // pure operator composition, no plan models
      hybrid_ = HybridModel(cfg);
      QPP_RETURN_NOT_OK(hybrid_.Train(training_refs_));
      break;
    }
    case PredictionMethod::kHybrid: {
      hybrid_ = HybridModel(config_.hybrid);
      QPP_RETURN_NOT_OK(hybrid_.Train(training_refs_));
      break;
    }
    case PredictionMethod::kOnline: {
      HybridConfig cfg = config_.hybrid;
      cfg.max_iterations = 0;  // operator models only; plan models online
      hybrid_ = HybridModel(cfg);
      QPP_RETURN_NOT_OK(hybrid_.Train(training_refs_));
      online_ = std::make_unique<OnlinePredictor>(
          training_refs_, &hybrid_.operator_models(),
          config_.hybrid.min_occurrences);
      break;
    }
  }
  trained_ = true;
  return Status::OK();
}

Result<double> QueryPerformancePredictor::PredictLatencyMs(
    const QueryRecord& query) const {
  if (!trained_) return Status::InvalidArgument("predictor not trained");
  if (query.ops.empty()) return Status::InvalidArgument("empty query record");
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost:
      return cost_baseline_->Predict({query.root().est.total_cost});
    case PredictionMethod::kPlanLevel:
      return global_plan_model_.Predict(query, 0, config_.feature_mode);
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid:
      return hybrid_.PredictQuery(query, config_.feature_mode);
    case PredictionMethod::kOnline:
      return online_->PredictQuery(query, config_.feature_mode);
  }
  return Status::Internal("unreachable");
}

Result<std::string> QueryPerformancePredictor::SerializeModels() const {
  if (!trained_) return Status::InvalidArgument("predictor not trained");
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
      out << hybrid_.Serialize();
      break;
    case PredictionMethod::kOnline:
      // Operator models plus the training corpus: the online sub-plan model
      // cache is rebuilt deterministically (seeded training) on demand, so
      // a reloaded predictor gives bitwise-identical predictions.
      out << hybrid_.Serialize();
      out << "=== log\n";
      training_log_.WriteTo(out);
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
  config_.method = static_cast<PredictionMethod>(method);
  trained_ = false;
  online_.reset();
  cost_baseline_.reset();
  hybrid_ = HybridModel(config_.hybrid);
  bool have_log = false;
  while (std::getline(in, line)) {
    if (line.rfind("feature_mode ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(config_.feature_mode,
                           ParseFeatureMode(line.substr(13)));
    } else if (line.rfind("costmodel ", 0) == 0) {
      QPP_ASSIGN_OR_RETURN(cost_baseline_, DeserializeModel(line.substr(10)));
    } else if (line == "hybridmodel v1") {
      std::string payload = line + "\n";
      while (std::getline(in, line)) {
        payload += line + "\n";
        if (line == "=== endhybrid") break;
      }
      QPP_ASSIGN_OR_RETURN(hybrid_,
                           HybridModel::Deserialize(payload, config_.hybrid));
    } else if (line == "=== log") {
      std::string payload;
      while (std::getline(in, line) && line != "=== endlog") {
        payload += line + "\n";
      }
      std::istringstream log_in(payload);
      QPP_ASSIGN_OR_RETURN(
          training_log_,
          QueryLog::LoadFromStream(log_in, source_name + " (embedded log)"));
      have_log = true;
    } else if (line == "=== plan") {
      // The kPlanLevel global model.
      std::string payload;
      while (std::getline(in, line) && line != "=== end") {
        payload += line + "\n";
      }
      QPP_ASSIGN_OR_RETURN(global_plan_model_,
                           PlanLevelModel::Deserialize(payload));
    }
  }
  switch (config_.method) {
    case PredictionMethod::kOptimizerCost:
      if (cost_baseline_ == nullptr) {
        return Status::IOError(source_name + ": missing costmodel line");
      }
      break;
    case PredictionMethod::kPlanLevel:
      if (!global_plan_model_.trained()) {
        return Status::IOError(source_name + ": missing plan model section");
      }
      break;
    case PredictionMethod::kOperatorLevel:
    case PredictionMethod::kHybrid:
      if (!hybrid_.operator_models().trained()) {
        return Status::IOError(source_name +
                               ": missing operator model section");
      }
      break;
    case PredictionMethod::kOnline: {
      if (!hybrid_.operator_models().trained()) {
        return Status::IOError(source_name +
                               ": missing operator model section");
      }
      if (!have_log || training_log_.queries.empty()) {
        return Status::IOError(source_name +
                               ": online method needs an embedded log");
      }
      training_refs_.clear();
      training_refs_.reserve(training_log_.queries.size());
      for (const QueryRecord& q : training_log_.queries) {
        training_refs_.push_back(&q);
      }
      online_ = std::make_unique<OnlinePredictor>(
          training_refs_, &hybrid_.operator_models(),
          config_.hybrid.min_occurrences);
      break;
    }
  }
  trained_ = true;
  return Status::OK();
}

}  // namespace qpp
