#include "storage/value.h"

#include <functional>

namespace qpp {

const char* TypeName(TypeId t) {
  switch (t) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return "BOOL";
    case TypeId::kInt64: return "INT64";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kDecimal: return "DECIMAL";
    case TypeId::kDate: return "DATE";
    case TypeId::kString: return "STRING";
  }
  return "UNKNOWN";
}

TypeId Value::type() const {
  switch (repr_.index()) {
    case 0: return TypeId::kNull;
    case 1: return TypeId::kBool;
    case 2: return TypeId::kInt64;
    case 3: return TypeId::kDouble;
    case 4: return TypeId::kDecimal;
    case 5: return TypeId::kDate;
    case 6: return TypeId::kString;
  }
  return TypeId::kNull;
}

double Value::AsDouble() const {
  switch (type()) {
    case TypeId::kBool: return bool_value() ? 1.0 : 0.0;
    case TypeId::kInt64: return static_cast<double>(int64_value());
    case TypeId::kDouble: return double_value();
    case TypeId::kDecimal: return decimal_value().ToDouble();
    case TypeId::kDate: return static_cast<double>(date_value().days_since_epoch());
    default: return 0.0;
  }
}

int Value::Compare(const Value& other) const {
  const bool ln = is_null();
  const bool rn = other.is_null();
  if (ln || rn) return (ln ? 0 : 1) - (rn ? 0 : 1) == 0 ? 0 : (ln ? -1 : 1);
  const TypeId lt = type();
  const TypeId rt = other.type();
  if (lt == TypeId::kString || rt == TypeId::kString) {
    if (lt != TypeId::kString || rt != TypeId::kString) {
      // Mixed string/non-string: order by type id for a total order.
      return static_cast<int>(lt) - static_cast<int>(rt);
    }
    return string_value().compare(other.string_value()) < 0
               ? -1
               : (string_value() == other.string_value() ? 0 : 1);
  }
  if (lt == TypeId::kDecimal && rt == TypeId::kDecimal) {
    return decimal_value().Compare(other.decimal_value());
  }
  if (lt == TypeId::kInt64 && rt == TypeId::kInt64) {
    const int64_t a = int64_value();
    const int64_t b = other.int64_value();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  if (lt == TypeId::kDate && rt == TypeId::kDate) {
    const int32_t a = date_value().days_since_epoch();
    const int32_t b = other.date_value().days_since_epoch();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  const double a = AsDouble();
  const double b = other.AsDouble();
  return a < b ? -1 : (a == b ? 0 : 1);
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kNull: return "NULL";
    case TypeId::kBool: return bool_value() ? "true" : "false";
    case TypeId::kInt64: return std::to_string(int64_value());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_value());
      return buf;
    }
    case TypeId::kDecimal: return decimal_value().ToString();
    case TypeId::kDate: return date_value().ToString();
    case TypeId::kString: return string_value();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull: return 0x9E3779B9;
    case TypeId::kBool: return bool_value() ? 0x85EBCA6B : 0xC2B2AE35;
    case TypeId::kInt64: return std::hash<int64_t>()(int64_value());
    case TypeId::kDouble: return std::hash<double>()(double_value());
    case TypeId::kDecimal: {
      // Normalize to scale kMaxScale so equal values hash equally.
      const Decimal d = decimal_value().Rescale(Decimal::kMaxScale);
      return std::hash<int64_t>()(d.unscaled()) ^ 0x51ED270B;
    }
    case TypeId::kDate:
      return std::hash<int64_t>()(date_value().days_since_epoch()) ^ 0x27D4EB2F;
    case TypeId::kString: return std::hash<std::string>()(string_value());
  }
  return 0;
}

size_t HashTuple(const Tuple& t) {
  size_t h = kHashTupleSeed;
  for (const Value& v : t) h = HashCombine(h, v);
  return h;
}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<int> ResolveColumn(const Schema& schema, const std::string& name) {
  const int exact = schema.FindColumn(name);
  if (exact >= 0) return exact;
  int found = -1;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const std::string& cn = schema.column(i).name;
    const size_t dot = cn.rfind('.');
    if (dot != std::string::npos &&
        cn.compare(dot + 1, std::string::npos, name) == 0) {
      if (found >= 0) {
        return Status::InvalidArgument("ambiguous column name: " + name);
      }
      found = static_cast<int>(i);
    }
  }
  if (found < 0) return Status::NotFound("column not found: " + name);
  return found;
}

int Schema::EstimatedRowWidth() const {
  int w = 0;
  for (const auto& c : columns_) {
    if (c.type == TypeId::kString) {
      w += (c.modifier > 0 ? c.modifier : 16) + 16;
    } else {
      w += 8;
    }
  }
  return w;
}

}  // namespace qpp
