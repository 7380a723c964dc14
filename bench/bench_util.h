#pragma once

// Shared infrastructure for the figure-reproduction benchmark binaries.
//
// Environment knobs (all optional):
//   QPP_SF_SMALL   small-database scale factor   (default 0.01; paper: 1 GB)
//   QPP_SF_LARGE   large-database scale factor   (default 0.05; paper: 10 GB)
//   QPP_QUERIES    queries generated per template (default 30; paper: ~55)
//   QPP_CACHE_DIR  directory for workload-log caching across binaries
//                  (default ./qpp_cache; set empty to disable)

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/stats.h"
#include "qpp/predictor.h"
#include "workload/query_log.h"

#include "bench/check.h"

namespace qpp::bench {

double SmallScaleFactor();
double LargeScaleFactor();
int QueriesPerTemplate();

/// Builds (and analyzes) a TPC-H database at the given scale factor.
std::unique_ptr<Database> BuildDatabase(double scale_factor);

/// Executes (or loads from cache) the workload for the given templates on a
/// database of the given scale factor. `label` names the database in output
/// ("large" / "small").
QueryLog GetWorkload(Database* db, double scale_factor,
                     const std::vector<int>& templates,
                     const std::string& label);

/// Per-template mean relative error from aligned (template, actual,
/// predicted) triples.
std::map<int, double> ErrorsByTemplate(const std::vector<int>& template_ids,
                                       const std::vector<double>& actual,
                                       const std::vector<double>& predicted);

/// Prints "tmpl err%" rows plus the mean, in the style of the paper's
/// per-template bar charts, and a "failed" row when `failed` predictions
/// were left out of the errors.
void PrintTemplateErrors(const std::string& title,
                         const std::map<int, double>& errors,
                         size_t failed = 0);

/// Cross-validated per-query predictions of one method over a log
/// (stratified by template, like the paper's Section 5.1 protocol).
/// Queries whose prediction failed are counted in `failed` and left out of
/// the aligned vectors, never scored as a 0 ms prediction.
struct CvPredictions {
  std::vector<int> template_ids;
  std::vector<double> actual;
  std::vector<double> predicted;
  size_t failed = 0;
};
CvPredictions CrossValidatedPredictions(const QueryLog& log,
                                        PredictorConfig config, int folds = 5,
                                        uint64_t seed = 99);

void PrintSectionHeader(const std::string& text);

}  // namespace qpp::bench
