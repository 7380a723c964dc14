#include "bench/bench_util.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ml/validation.h"
#include "tpch/dbgen.h"
#include "workload/runner.h"

namespace qpp::bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

std::string CacheDir() {
  const char* v = std::getenv("QPP_CACHE_DIR");
  if (v != nullptr) return v;  // may be empty = disabled
  return "qpp_cache";
}

}  // namespace

double SmallScaleFactor() { return EnvDouble("QPP_SF_SMALL", 0.01); }
double LargeScaleFactor() { return EnvDouble("QPP_SF_LARGE", 0.05); }
int QueriesPerTemplate() { return EnvInt("QPP_QUERIES", 30); }

std::unique_ptr<Database> BuildDatabase(double scale_factor) {
  tpch::DbgenConfig cfg;
  cfg.scale_factor = scale_factor;
  auto db = std::make_unique<Database>();
  auto tables = tpch::Dbgen(cfg).Generate();
  if (!tables.ok()) {
    std::fprintf(stderr, "dbgen failed: %s\n",
                 tables.status().ToString().c_str());
    std::exit(1);
  }
  Status st = db->AdoptTables(std::move(*tables));
  if (st.ok()) st = db->AnalyzeAll();
  if (!st.ok()) {
    std::fprintf(stderr, "database setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return db;
}

QueryLog GetWorkload(Database* db, double scale_factor,
                     const std::vector<int>& templates,
                     const std::string& label) {
  std::ostringstream tag;
  tag << "wl_sf" << scale_factor << "_q" << QueriesPerTemplate() << "_t";
  for (int t : templates) tag << t << "-";
  const std::string dir = CacheDir();
  const std::string path = dir.empty() ? "" : dir + "/" + tag.str() + ".log";
  if (!path.empty()) {
    auto cached = QueryLog::LoadFromFile(path);
    if (cached.ok()) {
      std::printf("[%s DB] workload loaded from cache (%zu queries): %s\n",
                  label.c_str(), cached->queries.size(), path.c_str());
      return std::move(*cached);
    }
  }
  std::printf("[%s DB] executing workload (%zu templates x %d queries)...\n",
              label.c_str(), templates.size(), QueriesPerTemplate());
  std::fflush(stdout);
  WorkloadConfig wc;
  wc.templates = templates;
  wc.queries_per_template = QueriesPerTemplate();
  auto log = RunWorkload(db, wc);
  if (!log.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 log.status().ToString().c_str());
    std::exit(1);
  }
  if (!path.empty()) {
    ::mkdir(dir.c_str(), 0755);
    Status st = log->SaveToFile(path);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: cache write failed: %s\n",
                   st.ToString().c_str());
    }
  }
  return std::move(*log);
}

std::map<int, double> ErrorsByTemplate(const std::vector<int>& template_ids,
                                       const std::vector<double>& actual,
                                       const std::vector<double>& predicted) {
  std::map<int, std::vector<double>> a, p;
  for (size_t i = 0; i < template_ids.size(); ++i) {
    a[template_ids[i]].push_back(actual[i]);
    p[template_ids[i]].push_back(predicted[i]);
  }
  std::map<int, double> out;
  for (const auto& [tid, values] : a) {
    out[tid] = MeanRelativeError(values, p[tid]);
  }
  return out;
}

void PrintTemplateErrors(const std::string& title,
                         const std::map<int, double>& errors, size_t failed) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-8s %s\n", "template", "rel_error(%)");
  double total = 0;
  for (const auto& [tid, err] : errors) {
    std::printf("  %-8d %.1f\n", tid, 100.0 * err);
    total += err;
  }
  if (!errors.empty()) {
    std::printf("  %-8s %.1f\n", "mean",
                100.0 * total / static_cast<double>(errors.size()));
  }
  if (failed > 0) std::printf("  %-8s %zu queries\n", "failed", failed);
}

CvPredictions CrossValidatedPredictions(const QueryLog& log,
                                        PredictorConfig config, int folds,
                                        uint64_t seed) {
  std::vector<int> strata;
  for (const auto& q : log.queries) strata.push_back(q.template_id);
  Rng rng(seed);
  const auto fold_set = StratifiedKFold(strata, folds, &rng);
  // Folds train and predict independently; per-fold outputs are concatenated
  // in fold order afterwards so the result matches a serial run exactly.
  std::vector<std::vector<Result<double>>> fold_pred(fold_set.size());
  Status st = ThreadPool::Global()->ParallelFor(fold_set.size(), [&](size_t f) {
    const Fold& fold = fold_set[f];
    QueryLog train;
    for (size_t i : fold.train) train.queries.push_back(log.queries[i]);
    QueryPerformancePredictor predictor(config);
    QPP_RETURN_NOT_OK(predictor.Train(train));
    fold_pred[f].reserve(fold.test.size());
    for (size_t i : fold.test) {
      fold_pred[f].push_back(predictor.PredictLatencyMs(log.queries[i]));
    }
    return Status::OK();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  CvPredictions out;
  for (size_t f = 0; f < fold_set.size(); ++f) {
    const Fold& fold = fold_set[f];
    for (size_t t = 0; t < fold.test.size(); ++t) {
      const Result<double>& predicted = fold_pred[f][t];
      if (!predicted.ok()) {
        ++out.failed;
        continue;
      }
      const size_t i = fold.test[t];
      out.template_ids.push_back(log.queries[i].template_id);
      out.actual.push_back(log.queries[i].latency_ms);
      out.predicted.push_back(*predicted);
    }
  }
  return out;
}

void PrintSectionHeader(const std::string& text) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", text.c_str());
  std::printf("================================================================\n");
}

}  // namespace qpp::bench
