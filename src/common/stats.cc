#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace qpp {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double Stddev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  if (p >= 100) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

std::optional<double> RelativeError(double actual, double estimate) {
  if (actual == 0.0) return std::nullopt;
  return std::abs(actual - estimate) / std::abs(actual);
}

namespace {

template <typename Fold>
double FoldRelativeErrors(const std::vector<double>& actual,
                          const std::vector<double>& estimate, double init,
                          Fold fold, bool mean) {
  if (actual.size() != estimate.size()) return 0.0;
  double acc = init;
  size_t n = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    const std::optional<double> rel = RelativeError(actual[i], estimate[i]);
    if (!rel) continue;
    acc = fold(acc, *rel);
    ++n;
  }
  if (n == 0) return 0.0;
  return mean ? acc / static_cast<double>(n) : acc;
}

}  // namespace

double MeanRelativeError(const std::vector<double>& actual,
                         const std::vector<double>& estimate) {
  return FoldRelativeErrors(
      actual, estimate, 0.0, [](double a, double r) { return a + r; }, true);
}

double MaxRelativeError(const std::vector<double>& actual,
                        const std::vector<double>& estimate) {
  return FoldRelativeErrors(
      actual, estimate, 0.0,
      [](double a, double r) { return std::max(a, r); }, false);
}

double MinRelativeError(const std::vector<double>& actual,
                        const std::vector<double>& estimate) {
  return FoldRelativeErrors(
      actual, estimate, 1e300,
      [](double a, double r) { return std::min(a, r); }, false);
}

double RSquared(const std::vector<double>& actual,
                const std::vector<double>& estimate) {
  if (actual.size() != estimate.size() || actual.empty()) return 0.0;
  const double m = Mean(actual);
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - estimate[i]) * (actual[i] - estimate[i]);
    ss_tot += (actual[i] - m) * (actual[i] - m);
  }
  if (ss_tot <= 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

double PredictiveRisk(const std::vector<double>& actual,
                      const std::vector<double>& estimate) {
  return RSquared(actual, estimate);
}

}  // namespace qpp
