#include "storage/table.h"

#include <algorithm>

namespace qpp {

Table::Table(int id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {
  const int width = std::max(1, schema_.EstimatedRowWidth());
  rows_per_page_ =
      std::max<int64_t>(1, static_cast<int64_t>(BufferPool::kPageSize) / width);
  columns_.reserve(schema_.num_columns());
  nulls_.resize(schema_.num_columns());
  for (const auto& col : schema_.columns()) {
    switch (col.type) {
      case TypeId::kInt64:
      case TypeId::kDecimal:
        columns_.emplace_back(std::vector<int64_t>{});
        break;
      case TypeId::kDate:
        columns_.emplace_back(std::vector<int32_t>{});
        break;
      case TypeId::kDouble:
        columns_.emplace_back(std::vector<double>{});
        break;
      case TypeId::kBool:
        columns_.emplace_back(std::vector<uint8_t>{});
        break;
      default:
        columns_.emplace_back(std::vector<std::string>{});
        break;
    }
  }
}

int64_t Table::num_pages() const {
  return (num_rows_ + rows_per_page_ - 1) / rows_per_page_;
}

Status Table::AppendRow(const Tuple& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " + name_);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row[c];
    const TypeId expected = schema_.column(c).type;
    const bool null = v.is_null();
    if (!null && v.type() != expected) {
      return Status::InvalidArgument(
          "type mismatch in column " + schema_.column(c).name + ": expected " +
          TypeName(expected) + ", got " + TypeName(v.type()));
    }
    if (null && nulls_[c].empty()) {
      nulls_[c].assign(static_cast<size_t>(num_rows_), false);
    }
    // The bitmap is materialized lazily: absent means "no nulls so far".
    if (null || !nulls_[c].empty()) nulls_[c].push_back(null);
    switch (expected) {
      case TypeId::kInt64:
        std::get<std::vector<int64_t>>(columns_[c]).push_back(
            null ? 0 : v.int64_value());
        break;
      case TypeId::kDecimal:
        std::get<std::vector<int64_t>>(columns_[c]).push_back(
            null ? 0 : v.decimal_value().Rescale(schema_.column(c).modifier)
                           .unscaled());
        break;
      case TypeId::kDate:
        std::get<std::vector<int32_t>>(columns_[c]).push_back(
            null ? 0 : v.date_value().days_since_epoch());
        break;
      case TypeId::kDouble:
        std::get<std::vector<double>>(columns_[c]).push_back(
            null ? 0.0 : v.double_value());
        break;
      case TypeId::kBool:
        std::get<std::vector<uint8_t>>(columns_[c]).push_back(
            null ? 0 : (v.bool_value() ? 1 : 0));
        break;
      default:
        std::get<std::vector<std::string>>(columns_[c]).push_back(
            null ? std::string() : v.string_value());
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

Value Table::GetValue(int64_t row, int col) const {
  if (!nulls_[col].empty() && nulls_[col][static_cast<size_t>(row)]) {
    return Value::Null();
  }
  const auto& column = schema_.column(col);
  const size_t r = static_cast<size_t>(row);
  switch (column.type) {
    case TypeId::kInt64:
      return Value::Int64(std::get<std::vector<int64_t>>(columns_[col])[r]);
    case TypeId::kDecimal:
      return Value::MakeDecimal(Decimal(
          std::get<std::vector<int64_t>>(columns_[col])[r], column.modifier));
    case TypeId::kDate:
      return Value::MakeDate(
          Date(std::get<std::vector<int32_t>>(columns_[col])[r]));
    case TypeId::kDouble:
      return Value::MakeDouble(std::get<std::vector<double>>(columns_[col])[r]);
    case TypeId::kBool:
      return Value::Bool(std::get<std::vector<uint8_t>>(columns_[col])[r] != 0);
    default:
      return Value::String(std::get<std::vector<std::string>>(columns_[col])[r]);
  }
}

void Table::GetRow(int64_t row, const std::vector<bool>& read,
                   Tuple* out) const {
  out->resize(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    (*out)[c] = read[c] ? GetValue(row, static_cast<int>(c)) : Value::Null();
  }
}

Status Table::CreateIndex(const std::string& column_name) {
  const int col = schema_.FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("no column " + column_name + " in " + name_);
  }
  if (schema_.column(col).type != TypeId::kInt64) {
    return Status::InvalidArgument("hash indexes require an INT64 column");
  }
  if (indexes_.count(col)) return Status::OK();
  auto& index = indexes_[col];
  const auto& data = std::get<std::vector<int64_t>>(columns_[col]);
  index.reserve(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    index[data[r]].push_back(static_cast<uint32_t>(r));
  }
  return Status::OK();
}

const std::vector<uint32_t>& Table::IndexLookup(int col, int64_t key) const {
  auto idx_it = indexes_.find(col);
  if (idx_it == indexes_.end()) return empty_rows_;
  auto it = idx_it->second.find(key);
  if (it == idx_it->second.end()) return empty_rows_;
  return it->second;
}

}  // namespace qpp
