// train_tpch: the *train* pipeline. A label phase plans and cold-executes
// a fixed pool of instances of the 14 operator-level TPC-H templates on a
// fresh SF 0.01 database (exec/storage/optimizer do the work); a fit phase
// runs 5-fold CV of the hybrid method, the three final fits and a bundle
// save+load on the fixed-label corpus (ml/qpp/serve do the work, on inputs
// that repeat exactly).
#include <array>
#include <optional>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "exec/driver.h"
#include "fixture.h"
#include "ml/validation.h"
#include "optimizer/optimizer.h"
#include "qpp/features.h"
#include "serve/model_store.h"
#include "spans.h"
#include "workload/templates.h"

namespace e2e {
namespace {

/// Fold assignment seed: fixed, so the CV error repeats exactly.
constexpr uint64_t kCvSeed = 42;
constexpr int kCvFolds = 5;
/// The label phase executes a fixed pool of template instances (drawn once
/// from this seed), in an order shuffled by the run's seed, so every run
/// measures the same work.
constexpr uint64_t kLabelPoolSeed = 20120401;
constexpr int kInstancesPerTemplate = 2;

struct LabelStats {
  size_t pool_size = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  double busy_s = 0.0;       // planning + execution + recording
  double execute_s = 0.0;    // ExecutePlan only
  double rows = 0.0;         // actual output rows over all operators
  uint64_t pool_misses = 0;
  /// Planning + execution + recording time, and median query latency, of
  /// each whole pass.
  std::vector<double> pass_busy_s;
  std::vector<double> pass_p50_us;
  std::array<double, qpp::kNumPlanOps> self_ms{};
  std::vector<double> latency_us;
};

/// Adds each operator's own run time (its run time minus its children's)
/// and output rows to the totals.
void AccumulateOperators(const qpp::PlanNode& node, LabelStats* stats) {
  double children_ms = 0.0;
  for (size_t i = 0; i < node.num_children(); ++i) {
    children_ms += node.child(i)->actual.run_time_ms;
    AccumulateOperators(*node.child(i), stats);
  }
  stats->self_ms[static_cast<size_t>(node.op)] +=
      node.actual.run_time_ms - children_ms;
  stats->rows += node.actual.rows;
}

/// Plans, executes and records whole passes over the label pool until
/// `seconds` have passed (at least one pass).
LabelStats RunLabelPhase(qpp::Database* db, uint64_t seed, double seconds,
                         Report* rep) {
  struct Instance {
    int template_id;
    uint64_t plan_seed;
  };
  std::vector<Instance> pool;
  qpp::Rng pool_rng(kLabelPoolSeed);
  for (int template_id : qpp::tpch::OperatorLevelTemplates()) {
    for (int i = 0; i < kInstancesPerTemplate; ++i) {
      pool.push_back({template_id, pool_rng.Next()});
    }
  }
  LabelStats stats;
  qpp::Optimizer optimizer(db);
  qpp::Rng order(seed);
  const int64_t start = NowNs();
  do {
    const double busy_before = stats.busy_s;
    const size_t latency_before = stats.latency_us.size();
    order.Shuffle(&pool);
    for (const auto& [template_id, plan_seed] : pool) {
      qpp::Rng rng(plan_seed);
      qpp::tpch::TemplateContext ctx{&optimizer, db, &rng};
      const int64_t t0 = NowNs();
      auto plan = [&] {
        ScopedSpan span(Layer::kOptimizer, "optimizer.plan");
        return qpp::tpch::GenerateTemplateQuery(template_id, &ctx);
      }();
      ++stats.queries;
      if (!plan.ok()) {
        ++stats.failed;
        continue;
      }
      qpp::ExecutionOptions exec_opts;
      exec_opts.cold_start = true;
      exec_opts.collect_rows = false;
      const int64_t t_exec = NowNs();
      auto result = [&] {
        ScopedSpan span(Layer::kExec, "exec.execute");
        return qpp::ExecutePlan(plan->root.get(), db, exec_opts);
      }();
      stats.execute_s += SecondsSince(t_exec);
      if (!result.ok()) {
        ++stats.failed;
        continue;
      }
      qpp::QueryRecord record = [&] {
        ScopedSpan span(Layer::kWorkload, "workload.record");
        return qpp::RecordFromPlan(*plan, result->latency_ms);
      }();
      const int64_t t1 = NowNs();
      stats.busy_s += static_cast<double>(t1 - t0) / 1e9;
      stats.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      stats.pool_misses += result->pool_misses;
      AccumulateOperators(*plan->root, &stats);

      // The label must survive the log's text encoding bit for bit.
      ScopedSpan span(Layer::kWorkload, "workload.roundtrip_check");
      const std::string text = qpp::SerializeQueryRecord(record);
      auto parsed = qpp::ParseQueryRecord(text, "<label>");
      rep->Check(parsed.ok() && qpp::SerializeQueryRecord(*parsed) == text &&
                     parsed->ops.size() == record.ops.size() &&
                     SameBits(parsed->latency_ms, record.latency_ms),
                 "label record of template " + std::to_string(template_id) +
                     " does not round-trip");
    }
    stats.pass_busy_s.push_back(stats.busy_s - busy_before);
    stats.pass_p50_us.push_back(Quantile(
        std::vector<double>(stats.latency_us.begin() + latency_before,
                            stats.latency_us.end()),
        0.5));
  } while (SecondsSince(start) < seconds);
  stats.pool_size = pool.size();
  return stats;
}

struct FitStats {
  double fit_s = 0.0;
  double cv_mre = 0.0;
  uint64_t predictions = 0;
  uint64_t failed = 0;
};

/// Stratified K-fold CV of the hybrid method; a failed fold fit or
/// prediction is counted, never scored.
FitStats CrossValidateHybrid(const qpp::QueryLog& log) {
  ScopedSpan span(Layer::kMl, "ml.cv");
  std::vector<int> strata;
  for (const auto& q : log.queries) strata.push_back(q.template_id);
  qpp::Rng rng(kCvSeed);
  const std::vector<qpp::Fold> folds =
      qpp::StratifiedKFold(strata, kCvFolds, &rng);
  std::vector<std::vector<std::optional<double>>> predicted(folds.size());
  const qpp::Status st =
      qpp::ThreadPool::Global()->ParallelFor(folds.size(), [&](size_t f) {
        qpp::QueryLog train;
        for (size_t i : folds[f].train) train.queries.push_back(log.queries[i]);
        qpp::PredictorConfig cfg;
        cfg.method = qpp::PredictionMethod::kHybrid;
        qpp::QueryPerformancePredictor predictor(cfg);
        predicted[f].assign(folds[f].test.size(), std::nullopt);
        QPP_RETURN_NOT_OK(predictor.Train(train));
        for (size_t t = 0; t < folds[f].test.size(); ++t) {
          auto r = predictor.PredictLatencyMs(log.queries[folds[f].test[t]]);
          if (r.ok()) predicted[f][t] = *r;
        }
        return qpp::Status::OK();
      });
  FitStats stats;
  double err_sum = 0.0;
  uint64_t scored = 0;
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t t = 0; t < folds[f].test.size(); ++t) {
      ++stats.predictions;
      const std::optional<double>& p = predicted[f][t];
      const double actual = log.queries[folds[f].test[t]].latency_ms;
      std::optional<double> err;
      if (st.ok() && p.has_value()) err = qpp::RelativeError(actual, *p);
      if (!err.has_value()) {
        ++stats.failed;
        continue;
      }
      err_sum += *err;
      ++scored;
    }
  }
  stats.cv_mre = scored > 0 ? err_sum / static_cast<double>(scored) : 0.0;
  return stats;
}

/// CV, final fits and bundle round trip on the fixed-label corpus.
FitStats RunFitPhase(const Options& opt, Report* rep) {
  const int64_t start = NowNs();
  auto log = LoadPinnedCorpus(opt.corpus_path);
  CheckSetup(log.status(), "fixed-label corpus");
  {
    ScopedSpan span(Layer::kQpp, "qpp.features");
    double sink = 0.0;
    for (const auto& q : log->queries) {
      for (size_t i = 0; i < q.ops.size(); ++i) {
        sink += qpp::ExtractPlanFeatures(q, static_cast<int>(i),
                                         qpp::FeatureMode::kEstimate)[0];
      }
    }
    rep->Check(sink > 0.0, "plan features are empty");
  }
  FitStats stats = CrossValidateHybrid(*log);
  std::shared_ptr<qpp::QueryPerformancePredictor> hybrid;
  for (auto [method, name] :
       {std::pair{qpp::PredictionMethod::kPlanLevel, "qpp.train.plan"},
        std::pair{qpp::PredictionMethod::kOperatorLevel,
                  "qpp.train.operator"},
        std::pair{qpp::PredictionMethod::kHybrid, "qpp.train.hybrid"}}) {
    auto trained = TrainPredictor(method, *log, name);
    rep->Check(trained.ok(), std::string(name) + " failed");
    if (trained.ok()) hybrid = *trained;
  }
  const std::string bundle = opt.out_dir + "/train_tpch.bundle";
  qpp::Status saved = [&] {
    ScopedSpan span(Layer::kServe, "serve.bundle_save");
    return qpp::serve::SaveModelBundle(*hybrid, bundle);
  }();
  auto loaded = [&] {
    ScopedSpan span(Layer::kServe, "serve.bundle_load");
    return qpp::serve::LoadModelBundle(bundle);
  }();
  stats.fit_s = SecondsSince(start);
  rep->Check(saved.ok() && loaded.ok(), "bundle save/load failed");
  if (loaded.ok()) {
    // A reloaded bundle must answer exactly as the model that wrote it.
    ScopedSpan span(Layer::kQpp, "qpp.bundle_check");
    for (const auto& q : log->queries) {
      auto a = hybrid->PredictLatencyMs(q);
      auto b = loaded->PredictLatencyMs(q);
      ++stats.predictions;
      if (!a.ok() || !b.ok()) ++stats.failed;
      rep->Check(a.ok() && b.ok() && SameBits(*a, *b),
                 "reloaded bundle predicts differently");
    }
  }
  return stats;
}

}  // namespace

int RunTrainTpch(const Options& opt, Report* rep) {
  // Set-up: the database build, repeated so its median is steady.
  std::vector<double> setup_s;
  std::unique_ptr<qpp::Database> db;
  {
    ScopedSpan root(Layer::kBench, "setup");
    for (int i = 0; i < (opt.tiny ? 1 : 5); ++i) {
      db.reset();
      const int64_t t0 = NowNs();
      db = BuildTpchDatabase();
      setup_s.push_back(SecondsSince(t0));
    }
  }

  ScopedSpan root(Layer::kBench, "run");
  const LabelStats label =
      RunLabelPhase(db.get(), opt.seed, opt.tiny ? 0.0 : opt.seconds, rep);
  rep->Count(label.queries, label.failed);
  // The fit phase is fixed work; repeat it so its median is steady.
  std::vector<double> fit_s;
  FitStats fit;
  for (int i = 0; i < (opt.tiny ? 1 : 3); ++i) {
    fit = RunFitPhase(opt, rep);
    fit_s.push_back(fit.fit_s);
    rep->Count(fit.predictions, fit.failed);
  }

  const double tail = TailQuantileLevel(label.latency_us.size());
  rep->Metric("setup_s", Median(setup_s), "s");
  // Per pass, so a slow stretch of the shared machine moves one pass.
  rep->Metric("train.label_qps",
              static_cast<double>(label.pool_size) /
                  Median(label.pass_busy_s),
              "queries/s");
  rep->Metric("train.label_p50_us", Median(label.pass_p50_us), "us");
  rep->Metric("train.label_tail_us", Quantile(label.latency_us, tail), "us");
  rep->Metric("train.fit_s", Median(fit_s), "s");
  rep->Metric("train.cv_mre", fit.cv_mre, "ratio");
  rep->Note("label phase: " + std::to_string(label.queries) +
            " queries in passes over a pool of " +
            std::to_string(kInstancesPerTemplate) +
            " instances per template; latency tail is " +
            QuantileLabel(tail) + " of " +
            std::to_string(label.latency_us.size()) + " samples");

  const double queries = static_cast<double>(label.queries - label.failed);
  rep->LayerMetric("exec.tuples_per_s", label.rows / label.execute_s,
                   "tuples/s");
  rep->LayerMetric("storage.pool_misses_per_query",
                   static_cast<double>(label.pool_misses) / queries, "count");
  for (int op = 0; op < qpp::kNumPlanOps; ++op) {
    rep->LayerMetric(
        std::string("exec.self_ms.") +
            qpp::PlanOpName(static_cast<qpp::PlanOp>(op)),
        label.self_ms[static_cast<size_t>(op)], "ms");
  }
  return 0;
}

}  // namespace e2e
