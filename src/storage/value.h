#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/date.h"
#include "common/decimal.h"
#include "common/result.h"

namespace qpp {

/// Column / value types supported by the engine. This is the TPC-H type
/// vocabulary: identifiers and integers, money decimals, dates, and strings,
/// plus booleans and doubles for expression results.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kDecimal,
  kDate,
  kString,
};

/// Returns a human-readable type name ("INT64", "DECIMAL", ...).
const char* TypeName(TypeId t);

/// \brief A dynamically typed scalar value flowing through the executor.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int64(int64_t v) { return Value(Repr(v)); }
  static Value MakeDouble(double v) { return Value(Repr(v)); }
  static Value MakeDecimal(Decimal v) { return Value(Repr(v)); }
  static Value MakeDate(Date v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }

  TypeId type() const;

  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int64_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const Decimal& decimal_value() const { return std::get<Decimal>(repr_); }
  const Date& date_value() const { return std::get<Date>(repr_); }
  const std::string& string_value() const { return std::get<std::string>(repr_); }

  /// Numeric view used by comparisons/statistics: int64, double and decimal
  /// coerce to double; date coerces to days-since-epoch; bool to 0/1.
  /// Strings and nulls return 0 (callers must check type first).
  double AsDouble() const;

  /// Three-way comparison with SQL semantics for same-family types (numeric
  /// types are mutually comparable; strings compare lexicographically).
  /// Nulls compare less than everything (used only for sorting; predicate
  /// evaluation handles nulls separately).
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Display form used by EXPLAIN and tests.
  std::string ToString() const;

  /// Hash for group-by / hash-join keys; equal values hash equally across
  /// numeric representations.
  size_t Hash() const;

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, Decimal,
                            Date, std::string>;
  explicit Value(Repr r) : repr_(std::move(r)) {}
  Repr repr_;
};

/// A tuple is a row of values; the executor is tuple-at-a-time (Volcano).
using Tuple = std::vector<Value>;

/// Hash of a multi-column key: HashCombine folded over its values from
/// kHashTupleSeed, so a key can also be hashed where it lies in a row.
size_t HashTuple(const Tuple& t);

constexpr size_t kHashTupleSeed = 0x811C9DC5;

inline size_t HashCombine(size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9E3779B9 + (h << 6) + (h >> 2));
}

/// \brief An ordered list of named, typed columns.
class Schema {
 public:
  struct Column {
    std::string name;
    TypeId type;
    /// Fixed decimal scale for kDecimal columns; average string width hint
    /// for kString columns (used for byte accounting), else unused.
    int modifier = 0;
  };

  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column with the given name, or -1 if absent.
  int FindColumn(const std::string& name) const;

  /// Estimated width in bytes of one row (8 bytes per fixed column, the
  /// modifier hint + 16 for strings) — the "width" the optimizer reports.
  int EstimatedRowWidth() const;

  void AddColumn(std::string name, TypeId type, int modifier = 0) {
    columns_.push_back({std::move(name), type, modifier});
  }

 private:
  std::vector<Column> columns_;
};

/// Resolves a column name in a schema: exact match first, then a unique
/// unqualified-suffix match ("n_name" finds "n1.n_name" when unambiguous).
/// Fails with NotFound / InvalidArgument (ambiguity) otherwise.
Result<int> ResolveColumn(const Schema& schema, const std::string& name);

}  // namespace qpp
