#pragma once

#include <string>
#include <vector>

#include "workload/query_log.h"

namespace qpp {

/// Which feature values feed the models: optimizer estimates (the practical,
/// compile-time option the paper defaults to) or observed actual values
/// (the Section 5.3.3 upper-bound study).
enum class FeatureMode { kEstimate, kActual };

/// Parses a persisted FeatureMode number; out-of-range values are errors.
Result<FeatureMode> ParseFeatureMode(const std::string& s);

/// Names of the plan-level features (Table 1), in extraction order:
/// p_tot_cost, p_st_cost, p_rows, p_width, op_count, row_count, byte_count,
/// then <operator>_cnt and <operator>_rows for every operator type.
const std::vector<std::string>& PlanFeatureNames();

/// Extracts the Table 1 feature vector for the sub-plan rooted at
/// `op_index` (pass 0 for the whole query). In kActual mode, cardinality-
/// derived features use observed row counts; cost features are always the
/// optimizer's (there is no "actual cost").
std::vector<double> ExtractPlanFeatures(const QueryRecord& query, int op_index,
                                        FeatureMode mode);

/// Number of leading static features (np, nt, nt1, nt2, sel); the remaining
/// four are child start/run times supplied during composition.
constexpr int kNumOperatorStaticFeatures = 5;

/// Extracts the static (non-time) portion of the Table 2 features for one
/// operator; child time features are appended by the composition logic.
std::vector<double> ExtractOperatorStaticFeatures(const QueryRecord& query,
                                                  int op_index,
                                                  FeatureMode mode);

/// Indices (into QueryRecord::ops) of all operators in the sub-plan rooted
/// at `op_index`, including itself.
std::vector<int> SubtreeOpIndices(const QueryRecord& query, int op_index);

}  // namespace qpp
