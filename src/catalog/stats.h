#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "storage/value.h"

namespace qpp {

/// Maps a value onto the real line for histogram purposes: numerics and
/// dates use their natural order; strings pack their first 8 bytes
/// big-endian (the PostgreSQL convert_string_to_scalar idea), which makes
/// prefix-LIKE estimable as a range query.
double NumericView(const Value& v);

/// \brief Per-column statistics produced by ANALYZE on a bounded sample,
/// PostgreSQL-style: null fraction, estimated #distinct (Haas-Stokes
/// scale-up), most-common values with frequencies, and an equi-depth
/// histogram over the numeric view.
///
/// Because the statistics come from a sample and the planner combines them
/// under the attribute-independence assumption, estimates carry the same
/// systematic errors the paper's Section 5.3.3 discusses — which is exactly
/// what the estimate-based feature mode must cope with.
struct ColumnStats {
  std::string name;
  TypeId type = TypeId::kNull;
  double null_fraction = 0.0;
  /// Estimated number of distinct values in the whole table.
  double ndistinct = 1.0;
  double min_value = 0.0;  // numeric view
  double max_value = 0.0;  // numeric view
  /// Equi-depth histogram bounds over the numeric view; bins = size()-1.
  std::vector<double> histogram;
  /// Most-common values with their estimated population frequency.
  std::vector<std::pair<Value, double>> mcvs;

  /// Total population frequency covered by the MCV list.
  double McvTotalFrequency() const;

  /// Selectivity of `column = v`.
  double EqSelectivity(const Value& v) const;

  /// Selectivity of `column < v` (or <= when `inclusive`).
  double LtSelectivity(double v, bool inclusive) const;

  /// Selectivity of a comparison against a constant.
  double CmpSelectivity(CmpOp op, const Value& v) const;
};

/// \brief Table-level statistics: row/page counts plus per-column stats.
struct TableStats {
  int64_t row_count = 0;
  int64_t page_count = 0;
  std::vector<ColumnStats> columns;

  /// Stats for the named column, or nullptr.
  const ColumnStats* Column(std::string_view name) const;
};

}  // namespace qpp
