#include "expr/aggregate.h"

namespace qpp {

void AggState::Step(const Value& v) {
  if (func_ == AggFunc::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      break;
    case AggFunc::kCountDistinct:
      distinct_hashes_.insert(v.Hash());
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count_;
      if (v.type() == TypeId::kDecimal) {
        is_decimal_ = true;
        dec_sum_ = dec_sum_.Add(v.decimal_value());
      } else if (v.type() == TypeId::kDouble) {
        is_double_ = true;
        dbl_sum_ += v.double_value();
      } else {
        int_sum_ += v.int64_value();
      }
      break;
    case AggFunc::kMin:
      if (!seen_ || v.Compare(min_) < 0) min_ = v;
      seen_ = true;
      break;
    case AggFunc::kMax:
      if (!seen_ || v.Compare(max_) > 0) max_ = v;
      seen_ = true;
      break;
    default:
      break;
  }
}

Value AggState::Finalize() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kCountDistinct:
      return Value::Int64(static_cast<int64_t>(distinct_hashes_.size()));
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      if (is_decimal_) return Value::MakeDecimal(dec_sum_);
      if (is_double_) return Value::MakeDouble(dbl_sum_);
      return Value::Int64(int_sum_);
    case AggFunc::kAvg: {
      if (count_ == 0) return Value::Null();
      if (is_decimal_) {
        return Value::MakeDecimal(dec_sum_.Div(Decimal(count_, 0)));
      }
      const double total =
          is_double_ ? dbl_sum_ : static_cast<double>(int_sum_);
      return Value::MakeDouble(total / static_cast<double>(count_));
    }
    case AggFunc::kMin:
      return seen_ ? min_ : Value::Null();
    case AggFunc::kMax:
      return seen_ ? max_ : Value::Null();
  }
  return Value::Null();
}

AggSpec AggCountStar(std::string name) {
  return AggSpec(AggFunc::kCountStar, nullptr, std::move(name));
}
AggSpec AggCount(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kCount, std::move(arg), std::move(name));
}
AggSpec AggCountDistinct(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kCountDistinct, std::move(arg), std::move(name));
}
AggSpec AggSum(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kSum, std::move(arg), std::move(name));
}
AggSpec AggAvg(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kAvg, std::move(arg), std::move(name));
}
AggSpec AggMin(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kMin, std::move(arg), std::move(name));
}
AggSpec AggMax(ExprPtr arg, std::string name) {
  return AggSpec(AggFunc::kMax, std::move(arg), std::move(name));
}

}  // namespace qpp
