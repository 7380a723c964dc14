#include <gtest/gtest.h>

#include <memory>

#include "catalog/database.h"
#include "common/stats.h"
#include "qpp/features.h"
#include "qpp/hybrid.h"
#include "qpp/online.h"
#include "qpp/predictor.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"
#include "workload/templates.h"

namespace qpp {
namespace {

/// Shared small workload log for all QPP tests (built once; ~100 queries).
class QppTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = 0.004;
    db_ = std::make_unique<Database>();
    auto tables = tpch::Dbgen(cfg).Generate();
    ASSERT_TRUE(tables.ok());
    ASSERT_TRUE(db_->AdoptTables(std::move(*tables)).ok());
    ASSERT_TRUE(db_->AnalyzeAll().ok());
    WorkloadConfig wc;
    wc.templates = {1, 3, 4, 6, 10, 12, 14};
    wc.queries_per_template = 12;
    auto log = RunWorkload(db_.get(), wc);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    log_ = std::make_unique<QueryLog>(std::move(*log));
    refs_ = std::make_unique<std::vector<const QueryRecord*>>();
    for (const auto& q : log_->queries) refs_->push_back(&q);
  }
  static void TearDownTestSuite() {
    refs_.reset();
    log_.reset();
    db_.reset();
  }

  static std::unique_ptr<Database> db_;
  static std::unique_ptr<QueryLog> log_;
  static std::unique_ptr<std::vector<const QueryRecord*>> refs_;
};

std::unique_ptr<Database> QppTest::db_;
std::unique_ptr<QueryLog> QppTest::log_;
std::unique_ptr<std::vector<const QueryRecord*>> QppTest::refs_;

// --------------------------------- Features ---------------------------------

TEST_F(QppTest, PlanFeatureVectorShapeAndContents) {
  const QueryRecord& q = log_->queries.front();
  const auto f = ExtractPlanFeatures(q, 0, FeatureMode::kEstimate);
  ASSERT_EQ(f.size(), PlanFeatureNames().size());
  EXPECT_DOUBLE_EQ(f[0], q.root().est.total_cost);   // p_tot_cost
  EXPECT_DOUBLE_EQ(f[1], q.root().est.startup_cost); // p_st_cost
  EXPECT_DOUBLE_EQ(f[2], q.root().est.rows);         // p_rows
  EXPECT_DOUBLE_EQ(f[3], q.root().est.width);        // p_width
  EXPECT_DOUBLE_EQ(f[4], static_cast<double>(q.ops.size()));  // op_count
  EXPECT_GT(f[5], 0.0);  // row_count
  EXPECT_GT(f[6], 0.0);  // byte_count
  // Operator counts sum to op_count.
  double cnt_sum = 0;
  for (int op = 0; op < kNumPlanOps; ++op) {
    cnt_sum += f[static_cast<size_t>(7 + 2 * op)];
  }
  EXPECT_DOUBLE_EQ(cnt_sum, f[4]);
}

TEST_F(QppTest, PlanFeatureNamesMatchTable1) {
  const auto& names = PlanFeatureNames();
  EXPECT_EQ(names[0], "p_tot_cost");
  EXPECT_EQ(names[1], "p_st_cost");
  EXPECT_EQ(names[2], "p_rows");
  EXPECT_EQ(names[3], "p_width");
  EXPECT_EQ(names[4], "op_count");
  EXPECT_EQ(names[5], "row_count");
  EXPECT_EQ(names[6], "byte_count");
  // Per-operator cnt/rows pairs for all 12 operator types.
  EXPECT_EQ(names.size(), 7u + 2u * kNumPlanOps);
}

TEST_F(QppTest, ActualModeUsesObservedRows) {
  // Find a query whose root estimate differs from the observed cardinality.
  for (const QueryRecord& q : log_->queries) {
    if (q.root().actual.rows != q.root().est.rows) {
      const auto est = ExtractPlanFeatures(q, 0, FeatureMode::kEstimate);
      const auto act = ExtractPlanFeatures(q, 0, FeatureMode::kActual);
      EXPECT_DOUBLE_EQ(est[2], q.root().est.rows);
      EXPECT_DOUBLE_EQ(act[2], q.root().actual.rows);
      return;
    }
  }
  FAIL() << "no query with estimation error found";
}

TEST_F(QppTest, OperatorFeatureVector) {
  const QueryRecord& q = log_->queries.front();
  for (size_t i = 0; i < q.ops.size(); ++i) {
    const auto f =
        ExtractOperatorStaticFeatures(q, static_cast<int>(i), FeatureMode::kEstimate);
    ASSERT_EQ(static_cast<int>(f.size()), kNumOperatorStaticFeatures);
    EXPECT_DOUBLE_EQ(f[1], q.ops[i].est.rows);          // nt
    EXPECT_DOUBLE_EQ(f[4], q.ops[i].est.selectivity);   // sel
    EXPECT_GE(f[2], 0.0);                               // nt1
  }
}

TEST_F(QppTest, SubtreeIndicesClosedUnderChildren) {
  const QueryRecord& q = log_->queries.back();
  for (size_t i = 0; i < q.ops.size(); ++i) {
    const auto subtree = SubtreeOpIndices(q, static_cast<int>(i));
    EXPECT_EQ(static_cast<int>(subtree.size()), q.ops[i].subtree_size);
  }
}

// -------------------------------- Plan model --------------------------------

TEST_F(QppTest, GlobalPlanModelLearnsWorkload) {
  PlanModelConfig cfg;
  PlanLevelModel model(cfg);
  std::vector<PlanOccurrence> occurrences;
  for (const QueryRecord* q : *refs_) occurrences.push_back({q, 0});
  ASSERT_TRUE(model.Train(occurrences).ok());
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.structural_key(), "*");
  // Training-set predictions correlate with actual latency.
  std::vector<double> actual, pred;
  for (const QueryRecord* q : *refs_) {
    actual.push_back(q->latency_ms);
    pred.push_back(model.Predict(*q, 0, FeatureMode::kEstimate));
  }
  EXPECT_LT(MeanRelativeError(actual, pred), 0.35);
  EXPECT_GT(PredictiveRisk(actual, pred), 0.5);
}

TEST_F(QppTest, KeyedPlanModelRejectsMixedStructures) {
  PlanModelConfig cfg;
  cfg.require_same_key = true;
  PlanLevelModel model(cfg);
  // Roots of different templates have different structural keys.
  std::vector<PlanOccurrence> occurrences;
  for (const QueryRecord* q : *refs_) occurrences.push_back({q, 0});
  EXPECT_FALSE(model.Train(occurrences).ok());
}

TEST_F(QppTest, PlanModelNeedsEnoughOccurrences) {
  PlanLevelModel model{PlanModelConfig{}};
  std::vector<PlanOccurrence> few = {{refs_->front(), 0}};
  EXPECT_FALSE(model.Train(few).ok());
}

TEST_F(QppTest, PlanModelSerializationRoundTrip) {
  PlanModelConfig cfg;
  PlanLevelModel model(cfg);
  std::vector<PlanOccurrence> occurrences;
  for (const QueryRecord* q : *refs_) occurrences.push_back({q, 0});
  ASSERT_TRUE(model.Train(occurrences).ok());
  auto restored = PlanLevelModel::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const QueryRecord* q : *refs_) {
    EXPECT_NEAR(restored->Predict(*q, 0, FeatureMode::kEstimate),
                model.Predict(*q, 0, FeatureMode::kEstimate), 1e-9);
  }
}

// ------------------------------ Operator models -----------------------------

TEST_F(QppTest, OperatorModelsTrainAndPredictPositive) {
  OperatorModelSet models;
  ASSERT_TRUE(models.Train(*refs_).ok());
  EXPECT_TRUE(models.trained());
  EXPECT_TRUE(models.HasModelFor(PlanOp::kSeqScan));
  for (const QueryRecord* q : *refs_) {
    const TimePrediction p = models.PredictSubplan(*q, 0, FeatureMode::kEstimate);
    EXPECT_GE(p.start_ms, 0.0);
    EXPECT_GE(p.run_ms, p.start_ms);
  }
}

TEST_F(QppTest, OperatorModelsBeatTrivialBaseline) {
  OperatorModelSet models;
  ASSERT_TRUE(models.Train(*refs_).ok());
  std::vector<double> actual, pred, mean_pred;
  double mean_latency = 0;
  for (const QueryRecord* q : *refs_) mean_latency += q->latency_ms;
  mean_latency /= static_cast<double>(refs_->size());
  for (const QueryRecord* q : *refs_) {
    actual.push_back(q->latency_ms);
    pred.push_back(models.PredictQuery(*q, FeatureMode::kEstimate));
    mean_pred.push_back(mean_latency);
  }
  EXPECT_LT(MeanRelativeError(actual, pred),
            MeanRelativeError(actual, mean_pred));
}

TEST_F(QppTest, OperatorModelOverrideShortCircuits) {
  OperatorModelSet models;
  ASSERT_TRUE(models.Train(*refs_).ok());
  const QueryRecord& q = log_->queries.front();
  const double fixed = 1234.5;
  PredictionOverride override_fn = [&](int op_index, TimePrediction* out) {
    if (op_index != 0) return false;
    out->start_ms = 0;
    out->run_ms = fixed;
    return true;
  };
  EXPECT_DOUBLE_EQ(models.PredictQuery(q, FeatureMode::kEstimate, override_fn),
                   fixed);
}

TEST_F(QppTest, OperatorModelSerializationRoundTrip) {
  OperatorModelSet models;
  ASSERT_TRUE(models.Train(*refs_).ok());
  auto restored = OperatorModelSet::Deserialize(models.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const QueryRecord* q : *refs_) {
    EXPECT_NEAR(restored->PredictQuery(*q, FeatureMode::kEstimate),
                models.PredictQuery(*q, FeatureMode::kEstimate), 1e-9);
  }
}

// ---------------------------------- Hybrid ----------------------------------

TEST_F(QppTest, HybridImprovesOnOperatorOnly) {
  HybridConfig cfg;
  cfg.max_iterations = 8;
  cfg.min_occurrences = 6;
  HybridModel hybrid(cfg);
  ASSERT_TRUE(hybrid.Train(*refs_).ok());
  EXPECT_LE(hybrid.final_error(), hybrid.initial_error());
  // Iteration history is recorded and monotone in error.
  double prev = hybrid.initial_error();
  for (const HybridIteration& it : hybrid.history()) {
    EXPECT_LE(it.error_after, prev + 1e-9);
    prev = it.error_after;
  }
}

TEST_F(QppTest, HybridKeepsOnlyUsefulModels) {
  HybridConfig cfg;
  cfg.max_iterations = 8;
  cfg.min_occurrences = 6;
  HybridModel hybrid(cfg);
  ASSERT_TRUE(hybrid.Train(*refs_).ok());
  int kept = 0;
  for (const auto& it : hybrid.history()) kept += it.kept;
  EXPECT_EQ(static_cast<size_t>(kept), hybrid.plan_models().size());
}

TEST_F(QppTest, HybridZeroIterationsEqualsOperatorOnly) {
  HybridConfig cfg;
  cfg.max_iterations = 0;
  HybridModel hybrid(cfg);
  ASSERT_TRUE(hybrid.Train(*refs_).ok());
  EXPECT_TRUE(hybrid.plan_models().empty());
  EXPECT_DOUBLE_EQ(hybrid.final_error(), hybrid.initial_error());
}

class StrategyTest : public QppTest,
                     public ::testing::WithParamInterface<PlanOrderingStrategy> {};

TEST_P(StrategyTest, AllStrategiesReduceTrainingError) {
  HybridConfig cfg;
  cfg.strategy = GetParam();
  cfg.max_iterations = 8;
  cfg.min_occurrences = 6;
  HybridModel hybrid(cfg);
  ASSERT_TRUE(hybrid.Train(*refs_).ok());
  EXPECT_LE(hybrid.final_error(), hybrid.initial_error());
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategyTest,
                         ::testing::Values(PlanOrderingStrategy::kSizeBased,
                                           PlanOrderingStrategy::kFrequencyBased,
                                           PlanOrderingStrategy::kErrorBased));

// ---------------------------------- Online ----------------------------------

TEST_F(QppTest, OnlinePredictorBuildsAndCachesModels) {
  OperatorModelSet op_models;
  ASSERT_TRUE(op_models.Train(*refs_).ok());
  OnlinePredictor online(*refs_, &op_models, /*min_occurrences=*/6);
  const QueryRecord& q = log_->queries.front();
  const double p1 = online.PredictQuery(q, FeatureMode::kEstimate);
  const int built = online.models_built();
  const double p2 = online.PredictQuery(q, FeatureMode::kEstimate);
  EXPECT_EQ(online.models_built(), built);  // cache hit, nothing rebuilt
  EXPECT_DOUBLE_EQ(p1, p2);
  EXPECT_GE(p1, 0.0);
}

// ---------------------------------- Facade ----------------------------------

class MethodTest : public QppTest,
                   public ::testing::WithParamInterface<PredictionMethod> {};

TEST_P(MethodTest, TrainPredictAllMethods) {
  PredictorConfig cfg;
  cfg.method = GetParam();
  cfg.hybrid.max_iterations = 4;
  cfg.hybrid.min_occurrences = 6;
  QueryPerformancePredictor predictor(cfg);
  ASSERT_TRUE(predictor.Train(*log_).ok());
  std::vector<double> actual, pred;
  for (const QueryRecord& q : log_->queries) {
    auto r = predictor.PredictLatencyMs(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    actual.push_back(q.latency_ms);
    pred.push_back(*r);
  }
  // Training-set accuracy sanity: every learned method beats 80% error.
  EXPECT_LT(MeanRelativeError(actual, pred), 0.8)
      << PredictionMethodName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodTest,
                         ::testing::Values(PredictionMethod::kOptimizerCost,
                                           PredictionMethod::kPlanLevel,
                                           PredictionMethod::kOperatorLevel,
                                           PredictionMethod::kHybrid,
                                           PredictionMethod::kOnline));

TEST_F(QppTest, PredictorRequiresTraining) {
  QueryPerformancePredictor predictor;
  EXPECT_FALSE(predictor.PredictLatencyMs(log_->queries.front()).ok());
  EXPECT_FALSE(predictor.Train(QueryLog{}).ok());
}

TEST_F(QppTest, PredictorModelMaterializationRoundTrip) {
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kHybrid;
  cfg.hybrid.max_iterations = 4;
  cfg.hybrid.min_occurrences = 6;
  QueryPerformancePredictor predictor(cfg);
  ASSERT_TRUE(predictor.Train(*log_).ok());
  auto text = predictor.SerializeModels();
  ASSERT_TRUE(text.ok());

  QueryPerformancePredictor restored(cfg);
  ASSERT_TRUE(restored.LoadModelsFromText(*text).ok());
  for (const QueryRecord& q : log_->queries) {
    auto a = predictor.PredictLatencyMs(q);
    auto b = restored.PredictLatencyMs(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NEAR(*a, *b, 1e-6);
  }
}

// Every number of a model payload is parsed strictly: a malformed one is an
// error from LoadModelsFromText, never an exception or a silent zero. So is
// a model whose width is not its input count (31 plan features, 7 operator
// inputs), and a payload of a version before v3.
TEST_F(QppTest, MalformedModelPayloadNumbersAreErrors) {
  const auto serialized = [](PredictionMethod method) {
    PredictorConfig cfg;
    cfg.method = method;
    cfg.hybrid.max_iterations = 0;
    QueryPerformancePredictor predictor(cfg);
    EXPECT_TRUE(predictor.Train(*log_).ok());
    return *predictor.SerializeModels();
  };
  // Replaces the first line starting with `prefix` by `line`.
  const auto with_line = [](std::string text, const std::string& prefix,
                            const std::string& line) {
    const size_t at = text.find("\n" + prefix) + 1;
    EXPECT_NE(at, 0u) << prefix;
    text.replace(at, text.find('\n', at) - at, line);
    return text;
  };
  const std::string ops = serialized(PredictionMethod::kOperatorLevel);
  const std::string plan = serialized(PredictionMethod::kPlanLevel);
  QueryPerformancePredictor ok;
  ASSERT_TRUE(ok.LoadModelsFromText(ops).ok());
  ASSERT_TRUE(ok.LoadModelsFromText(plan).ok());
  const std::vector<std::pair<const std::string*, std::string>> cases = {
      {&ops, "method x"},
      {&ops, "method 9"},
      {&ops, "feature_mode 2"},
      {&ops, "errors 0.5 zero"},
      {&ops, "mode -1"},
      {&ops, "optype 3x"},
      {&ops, "max_targets 1.5 2.5oops"},
      {&ops, "max_targets 1.5"},
      {&ops, "run_model linreg|0|abc|0"},
      {&ops, "start_model linreg|1e-06|0.5|2|1|2"},
      {&ops, "run_model linreg|1e-06|0.5|8|1|2|3|4|5|6|7|8"},
      {&plan, "cv_error NaNa"},
      {&plan, "model svr|0|1|0.1|1|0|1|9223372036854775808|2|0|0"},
      {&plan, "model svr|0|1|0.1|1|0|1|2|1|0|0|1|1|0.5|0.2|0.3"},
  };
  for (const auto& [text, line] : cases) {
    const std::string prefix = line.substr(0, line.find(' ') + 1);
    QueryPerformancePredictor restored;
    EXPECT_FALSE(
        restored.LoadModelsFromText(with_line(*text, prefix, line)).ok())
        << line;
  }
  const std::string v2 = "qpp models v2" + ops.substr(ops.find('\n'));
  const Status v2_status = QueryPerformancePredictor().LoadModelsFromText(v2);
  EXPECT_NE(v2_status.message().find("qpp models v2"), std::string::npos)
      << v2_status.ToString();
}

TEST_F(QppTest, OnlineModelsMaterializeViaEmbeddedLog) {
  // Online models build per-query sub-plan models on demand, so persistence
  // serializes the operator models plus the training log and rebuilds the
  // cache deterministically on load (seeded Rng, order-independent pool).
  PredictorConfig cfg;
  cfg.method = PredictionMethod::kOnline;
  cfg.hybrid.min_occurrences = 6;
  QueryPerformancePredictor predictor(cfg);
  ASSERT_TRUE(predictor.Train(*log_).ok());
  auto text = predictor.SerializeModels();
  ASSERT_TRUE(text.ok());

  QueryPerformancePredictor restored(cfg);
  ASSERT_TRUE(restored.LoadModelsFromText(*text).ok());
  for (const QueryRecord& q : log_->queries) {
    auto a = predictor.PredictLatencyMs(q);
    auto b = restored.PredictLatencyMs(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

}  // namespace
}  // namespace qpp
