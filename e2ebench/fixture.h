#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "plan/plan.h"
#include "qpp/predictor.h"
#include "report.h"
#include "workload/query_log.h"

namespace e2e {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still run every stage (smoke test).
  bool tiny = false;
  /// Scratch directory for bundles and span files (inside the checkout).
  std::string out_dir = ".bench_out";
  /// The benchmark's fixed-label training log.
  std::string corpus_path = "e2ebench/corpus/tpch_sf0.01_q30_op14.log";
};

/// TPC-H scale factor of every database the benchmark builds.
inline constexpr double kScaleFactor = 0.01;

int RunTrainTpch(const Options& opt, Report* rep);
int RunServeOpen(const Options& opt, Report* rep);
int RunLearnMixed(const Options& opt, Report* rep);

/// Seconds since `start_ns` (a NowNs() reading).
double SecondsSince(int64_t start_ns);

double Median(std::vector<double> v);

/// dbgen + AdoptTables + AnalyzeAll at kScaleFactor, spanned as the tpch
/// and catalog layers. Exits on failure (set-up cannot be skipped).
std::unique_ptr<qpp::Database> BuildTpchDatabase();

/// Loads the fixed-label corpus after checking its FNV-1a checksum against
/// the pinned value; a changed file is an error, never silently used.
qpp::Result<qpp::QueryLog> LoadPinnedCorpus(const std::string& path);

/// Trains one predictor of the given method on `log`, spanned as qpp.
qpp::Result<std::shared_ptr<qpp::QueryPerformancePredictor>> TrainPredictor(
    qpp::PredictionMethod method, const qpp::QueryLog& log,
    const char* span_name);

/// Counts plan nodes whose estimate came from a learned backend (`card` or
/// `kde` est_source) and all nodes, for the learned-share ratio.
void CountEstimateSources(const qpp::PlanNode& node, uint64_t* learned,
                          uint64_t* total);

/// Bit-for-bit equality of two doubles (NaN-safe).
bool SameBits(double a, double b);

/// Exits with a message when `st` is not OK (for set-up steps).
void CheckSetup(const qpp::Status& st, const char* what);

}  // namespace e2e
