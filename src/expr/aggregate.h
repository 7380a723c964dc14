#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "expr/expr.h"

namespace qpp {

/// Aggregate functions supported by the aggregation operators.
enum class AggFunc {
  kCountStar,
  kCount,
  kCountDistinct,
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// One aggregate in a query's SELECT list: function, argument expression
/// (null for COUNT(*)), and output column name.
struct AggSpec {
  AggFunc func;
  ExprPtr arg;
  std::string output_name;

  AggSpec(AggFunc f, ExprPtr a, std::string name)
      : func(f), arg(std::move(a)), output_name(std::move(name)) {}

  AggSpec Clone() const {
    return AggSpec(func, arg ? arg->Clone() : nullptr, output_name);
  }
};

/// \brief Running state for one aggregate over one group.
///
/// Sum/avg over decimals run through the software Decimal path — the
/// CPU-bound numeric aggregation behaviour the paper highlights.
class AggState {
 public:
  explicit AggState(AggFunc func) : func_(func) {}

  /// Folds one input value in (already-evaluated argument; ignored value for
  /// COUNT(*)). Null arguments are skipped per SQL, except COUNT(*).
  void Step(const Value& v);

  /// Produces the aggregate result.
  Value Finalize() const;

 private:
  AggFunc func_;
  int64_t count_ = 0;
  bool seen_ = false;
  bool is_decimal_ = false;
  bool is_double_ = false;
  Decimal dec_sum_{0, 2};
  double dbl_sum_ = 0.0;
  int64_t int_sum_ = 0;
  Value min_, max_;
  std::unordered_set<size_t> distinct_hashes_;
};

/// Convenience factories used by the workload templates.
AggSpec AggCountStar(std::string name);
AggSpec AggCount(ExprPtr arg, std::string name);
AggSpec AggCountDistinct(ExprPtr arg, std::string name);
AggSpec AggSum(ExprPtr arg, std::string name);
AggSpec AggAvg(ExprPtr arg, std::string name);
AggSpec AggMin(ExprPtr arg, std::string name);
AggSpec AggMax(ExprPtr arg, std::string name);

}  // namespace qpp
