#include "catalog/stats.h"

#include <algorithm>
#include <cmath>

namespace qpp {

double NumericView(const Value& v) {
  if (v.type() == TypeId::kString) {
    const std::string& s = v.string_value();
    uint64_t packed = 0;
    for (size_t i = 0; i < 8; ++i) {
      packed = (packed << 8) | (i < s.size() ? static_cast<uint8_t>(s[i]) : 0);
    }
    return static_cast<double>(packed);
  }
  return v.AsDouble();
}

double ColumnStats::McvTotalFrequency() const {
  double total = 0.0;
  for (const auto& [value, freq] : mcvs) total += freq;
  return total;
}

double ColumnStats::EqSelectivity(const Value& v) const {
  for (const auto& [value, freq] : mcvs) {
    if (value.Compare(v) == 0) return freq;
  }
  const double remaining = std::max(0.0, 1.0 - McvTotalFrequency() - null_fraction);
  const double other_distinct =
      std::max(1.0, ndistinct - static_cast<double>(mcvs.size()));
  return std::min(1.0, remaining / other_distinct);
}

double ColumnStats::LtSelectivity(double v, bool inclusive) const {
  // A NaN probe fails every comparison below (including upper_bound's,
  // whose ordering it would violate); treat it as "nothing below".
  if (std::isnan(v)) return 0.0;
  // MCV mass strictly below (or at, when inclusive) the constant.
  double mcv_below = 0.0;
  for (const auto& [value, freq] : mcvs) {
    const double nv = NumericView(value);
    if (nv < v || (inclusive && nv == v)) mcv_below += freq;
  }
  const double non_mcv_mass =
      std::max(0.0, 1.0 - McvTotalFrequency() - null_fraction);
  double hist_frac;
  if (histogram.size() < 2) {
    // No histogram (e.g. all sampled values were MCVs): interpolate linearly
    // over [min, max].
    if (max_value <= min_value) {
      hist_frac = v >= max_value ? 1.0 : 0.0;
    } else {
      hist_frac = (v - min_value) / (max_value - min_value);
    }
  } else if (v <= histogram.front()) {
    hist_frac = 0.0;
  } else if (v >= histogram.back()) {
    hist_frac = 1.0;
  } else {
    // Find the bin containing v and interpolate within it.
    const auto it = std::upper_bound(histogram.begin(), histogram.end(), v);
    const size_t bin = static_cast<size_t>(it - histogram.begin()) - 1;
    const double lo = histogram[bin];
    const double hi = histogram[bin + 1];
    const double within = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    hist_frac = (static_cast<double>(bin) + within) /
                static_cast<double>(histogram.size() - 1);
  }
  // Zero-row tables leave min/max as NaN, and the linear interpolation
  // above then produces NaN; no data means no histogram information.
  if (std::isnan(hist_frac)) hist_frac = 0.5;
  hist_frac = std::clamp(hist_frac, 0.0, 1.0);
  return std::clamp(mcv_below + non_mcv_mass * hist_frac, 0.0, 1.0);
}

double ColumnStats::CmpSelectivity(CmpOp op, const Value& v) const {
  const double nv = NumericView(v);
  switch (op) {
    case CmpOp::kEq:
      return EqSelectivity(v);
    case CmpOp::kNe:
      return std::clamp(1.0 - EqSelectivity(v) - null_fraction, 0.0, 1.0);
    case CmpOp::kLt:
      return LtSelectivity(nv, /*inclusive=*/false);
    case CmpOp::kLe:
      return LtSelectivity(nv, /*inclusive=*/true);
    case CmpOp::kGt:
      return std::clamp(1.0 - LtSelectivity(nv, true) - null_fraction, 0.0, 1.0);
    case CmpOp::kGe:
      return std::clamp(1.0 - LtSelectivity(nv, false) - null_fraction, 0.0, 1.0);
  }
  return 0.333;
}

const ColumnStats* TableStats::Column(std::string_view name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace qpp
