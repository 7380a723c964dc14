#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/stats.h"
#include "common/result.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"

namespace qpp {

/// ANALYZE parameters; the histogram bins, MCV count and sampling seed are
/// constants in database.cc.
struct AnalyzeConfig {
  /// Max rows sampled per table; sampling (rather than full scans) is what
  /// gives the planner realistically imperfect statistics.
  int64_t sample_size = 30000;
};

/// \brief The database instance: tables, the buffer pool they are paged
/// through, and optimizer statistics.
class Database {
 public:
  Database() : Database(BufferPool::Config{}) {}
  explicit Database(BufferPool::Config pool_config)
      : buffer_pool_(pool_config) {}

  /// Adds a table; its Table::id() must be unique within the database.
  Status AddTable(std::unique_ptr<Table> table);

  /// Adds a batch of tables (e.g. the Dbgen output).
  Status AdoptTables(std::vector<std::unique_ptr<Table>> tables);

  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  Table* GetTableById(int id);
  const Table* GetTableById(int id) const;
  std::vector<const Table*> tables() const;

  /// The first table, in the order they were added, whose schema has a
  /// column named exactly `column`; null when none has. One hash lookup.
  const Table* TableWithColumn(const std::string& column) const;

  BufferPool* buffer_pool() { return &buffer_pool_; }

  /// Computes statistics for every table.
  Status AnalyzeAll(const AnalyzeConfig& config = AnalyzeConfig());

  /// Computes statistics for one table.
  Status Analyze(const std::string& table_name, const AnalyzeConfig& config);

  /// Statistics for a table id, or nullptr if not analyzed.
  const TableStats* GetStats(int table_id) const;

 private:
  Status AnalyzeTable(const Table& table, const AnalyzeConfig& config,
                      Rng* rng);

  BufferPool buffer_pool_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, Table*> by_name_;
  std::unordered_map<int, Table*> by_id_;
  /// Column name -> first table owning it (TableWithColumn).
  std::unordered_map<std::string, const Table*> by_column_;
  std::unordered_map<int, TableStats> stats_;
};

}  // namespace qpp
