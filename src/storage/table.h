#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/value.h"

namespace qpp {

/// \brief An in-memory columnar table with logical paging and optional
/// single-column hash indexes.
///
/// Storage is columnar for compactness, but the executor charges it as the
/// row store the paper instrumented: rows are assigned to logical 8 KB
/// pages by the full schema's estimated row width, and scans charge page
/// reads against the BufferPool as they cross page boundaries. A scan
/// materializes only the columns its plan reads (GetRow's mask), as
/// PostgreSQL's scan target lists and lazy tuple deforming do.
class Table {
 public:
  Table(int id, std::string name, Schema schema);

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  int64_t num_rows() const { return num_rows_; }

  /// Number of logical pages occupied by the table.
  int64_t num_pages() const;

  /// Rows stored per logical page (>= 1).
  int64_t rows_per_page() const { return rows_per_page_; }

  /// Logical page holding the given row.
  int64_t PageOfRow(int64_t row) const { return row / rows_per_page_; }

  /// Appends one row; the tuple must match the schema arity and types
  /// (kNull allowed anywhere).
  Status AppendRow(const Tuple& row);

  /// Reads a single cell.
  Value GetValue(int64_t row, int col) const;

  /// Resizes *out to the schema's width, reads the cells `read` marks
  /// (one flag per column) and sets the others null.
  void GetRow(int64_t row, const std::vector<bool>& read, Tuple* out) const;

  /// Builds a hash index over an int64 column (key -> row ids). Re-building
  /// an existing index is a no-op.
  Status CreateIndex(const std::string& column_name);

  bool HasIndex(int col) const { return indexes_.count(col) > 0; }

  /// Row ids whose `col` equals `key`; empty when no match. Requires an
  /// index on `col`.
  const std::vector<uint32_t>& IndexLookup(int col, int64_t key) const;

 private:
  using ColumnData = std::variant<std::vector<int64_t>,   // int64 / decimal
                                  std::vector<int32_t>,   // date
                                  std::vector<double>,    // double
                                  std::vector<uint8_t>,   // bool
                                  std::vector<std::string>>;

  int id_;
  std::string name_;
  Schema schema_;
  int64_t num_rows_ = 0;
  int64_t rows_per_page_;
  std::vector<ColumnData> columns_;
  std::vector<std::vector<bool>> nulls_;  // per column; empty = no nulls yet
  std::unordered_map<int, std::unordered_map<int64_t, std::vector<uint32_t>>>
      indexes_;
  std::vector<uint32_t> empty_rows_;
};

}  // namespace qpp
