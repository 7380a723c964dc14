#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace qpp {

/// Small statistics helpers shared by the catalog, the models and the
/// evaluation metrics. All functions tolerate empty input by returning 0
/// unless noted.

/// Arithmetic mean.
double Mean(const std::vector<double>& v);

/// Population variance (divides by n).
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double Stddev(const std::vector<double>& v);

/// p-th percentile (p in [0, 100]) with linear interpolation; input need not
/// be sorted.
double Percentile(std::vector<double> v, double p);

/// Relative error |actual - estimate| / |actual| for ONE pair — the
/// per-sample building block of the paper's primary error metric. Returns
/// nullopt when actual == 0, where relative error is undefined; callers
/// must skip (or otherwise handle) such pairs explicitly. This is the
/// single convention for the whole codebase: the aggregate helpers below
/// skip undefined pairs, and the former per-file `RelErr` copies (online,
/// hybrid, feedback) silently returned 0.0 instead — biasing windowed
/// errors toward zero whenever a query measured 0 ms.
std::optional<double> RelativeError(double actual, double estimate);

/// Mean of |actual - estimate| / |actual| over all pairs — the paper's
/// primary error metric (Section 5.1). Pairs with actual == 0 are skipped.
double MeanRelativeError(const std::vector<double>& actual,
                         const std::vector<double>& estimate);

/// Max of the per-query relative errors (skips actual == 0).
double MaxRelativeError(const std::vector<double>& actual,
                        const std::vector<double>& estimate);

/// Min of the per-query relative errors (skips actual == 0).
double MinRelativeError(const std::vector<double>& actual,
                        const std::vector<double>& estimate);

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot.
double RSquared(const std::vector<double>& actual,
                const std::vector<double>& estimate);

/// The "predictive risk" metric referenced by the paper (via [1]):
/// 1 - sum((actual-estimate)^2) / sum((actual-mean)^2). Identical in form to
/// R^2; kept as a named alias so experiment output matches the paper's
/// terminology.
double PredictiveRisk(const std::vector<double>& actual,
                      const std::vector<double>& estimate);

}  // namespace qpp
