#pragma once

#include <vector>

#include "catalog/database.h"
#include "common/rng.h"
#include "optimizer/cardinality.h"
#include "workload/query_log.h"

namespace qpp {

/// \brief Configuration of a training/testing workload run, mirroring the
/// paper's setup (Section 5.1): N queries per template, cold-start
/// executions, and a per-query timeout.
struct WorkloadConfig {
  /// TPC-H template numbers to draw queries from.
  std::vector<int> templates;
  /// Queries generated per template (the paper used ~55).
  int queries_per_template = 30;
  /// Master seed for parameter generation.
  uint64_t seed = 7;
  /// Flush the buffer pool before each query (paper: cold starts).
  bool cold_start = true;
  /// Skip recording queries slower than this (0 = no timeout), the analogue
  /// of the paper's one-hour cap.
  double timeout_ms = 0.0;
  /// Cardinality backend attached to the workload's optimizer (null keeps
  /// the histogram baseline and planning bit-identical; see
  /// optimizer/cardinality.h). Borrowed; must outlive the run.
  const CardinalityEstimator* cardinality_estimator = nullptr;
};

/// Generates, optimizes and executes the workload against the database,
/// returning the per-operator instrumented log the QPP models train on.
Result<QueryLog> RunWorkload(Database* db, const WorkloadConfig& config);

}  // namespace qpp
