#include "catalog/database.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace qpp {
namespace {

/// Seed of ANALYZE's row-sample draws (Analyze mixes in the table id).
constexpr uint64_t kAnalyzeSeed = 0xA11A1;

}  // namespace

Status Database::AddTable(std::unique_ptr<Table> table) {
  if (by_name_.count(table->name())) {
    return Status::AlreadyExists("table " + table->name());
  }
  if (by_id_.count(table->id())) {
    return Status::AlreadyExists("table id " + std::to_string(table->id()));
  }
  Table* raw = table.get();
  tables_.push_back(std::move(table));
  by_name_[raw->name()] = raw;
  by_id_[raw->id()] = raw;
  for (const auto& c : raw->schema().columns()) by_column_.emplace(c.name, raw);
  return Status::OK();
}

Status Database::AdoptTables(std::vector<std::unique_ptr<Table>> tables) {
  for (auto& t : tables) {
    QPP_RETURN_NOT_OK(AddTable(std::move(t)));
  }
  return Status::OK();
}

Table* Database::GetTable(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Table* Database::GetTable(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Table* Database::GetTableById(int id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const Table* Database::GetTableById(int id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<const Table*> Database::tables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

const Table* Database::TableWithColumn(const std::string& column) const {
  auto it = by_column_.find(column);
  return it == by_column_.end() ? nullptr : it->second;
}

Status Database::AnalyzeAll(const AnalyzeConfig& config) {
  Rng rng(kAnalyzeSeed);
  for (const auto& t : tables_) {
    QPP_RETURN_NOT_OK(AnalyzeTable(*t, config, &rng));
  }
  return Status::OK();
}

Status Database::Analyze(const std::string& table_name,
                         const AnalyzeConfig& config) {
  const Table* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("table " + table_name);
  Rng rng(kAnalyzeSeed ^ static_cast<uint64_t>(t->id()));
  return AnalyzeTable(*t, config, &rng);
}

const TableStats* Database::GetStats(int table_id) const {
  auto it = stats_.find(table_id);
  return it == stats_.end() ? nullptr : &it->second;
}

Status Database::AnalyzeTable(const Table& table, const AnalyzeConfig& config,
                              Rng* rng) {
  TableStats ts;
  ts.row_count = table.num_rows();
  ts.page_count = table.num_pages();

  // Choose a row sample (without replacement via permutation prefix for
  // small tables; Bernoulli-style via random draws for large ones).
  const int64_t n = table.num_rows();
  std::vector<int64_t> sample;
  if (n <= config.sample_size) {
    sample.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) sample[static_cast<size_t>(i)] = i;
  } else {
    sample.reserve(static_cast<size_t>(config.sample_size));
    for (int64_t i = 0; i < config.sample_size; ++i) {
      sample.push_back(rng->UniformInt(0, n - 1));
    }
  }

  const Schema& schema = table.schema();
  ts.columns.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = ts.columns[c];
    cs.name = schema.column(c).name;
    cs.type = schema.column(c).type;
    if (sample.empty()) {
      continue;
    }

    // Count value frequencies in the sample. Keyed by display string for
    // exact equality across numeric representations.
    std::map<std::string, std::pair<Value, int64_t>> freq;
    std::vector<double> numeric;
    numeric.reserve(sample.size());
    int64_t nulls = 0;
    for (int64_t row : sample) {
      const Value v = table.GetValue(row, static_cast<int>(c));
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      auto& slot = freq[v.ToString()];
      if (slot.second == 0) slot.first = v;
      ++slot.second;
      numeric.push_back(NumericView(v));
    }
    const int64_t sample_n = static_cast<int64_t>(sample.size());
    cs.null_fraction =
        static_cast<double>(nulls) / static_cast<double>(sample_n);
    if (numeric.empty()) {
      cs.null_fraction = 1.0;
      continue;
    }

    // Haas-Stokes "Duj1" scale-up of sample distinct count to the table.
    const double d = static_cast<double>(freq.size());
    double f1 = 0;
    for (const auto& [key, vc] : freq) {
      if (vc.second == 1) f1 += 1;
    }
    const double ns = static_cast<double>(numeric.size());
    const double N =
        static_cast<double>(n) * (1.0 - cs.null_fraction) + 1e-9;
    if (ns >= N - 0.5) {
      cs.ndistinct = d;  // sampled (almost) everything: exact
    } else {
      const double denom = 1.0 - f1 * (1.0 - ns / N) / ns;
      cs.ndistinct = std::min(N, denom > 1e-9 ? d / denom : N);
    }
    cs.ndistinct = std::max(1.0, cs.ndistinct);

    std::sort(numeric.begin(), numeric.end());
    cs.min_value = numeric.front();
    cs.max_value = numeric.back();

    // MCVs: up to kMcvCount values appearing more than ~1.25x the average
    // frequency, like PostgreSQL's "common enough to matter" rule.
    constexpr int kMcvCount = 20;
    std::vector<std::pair<Value, int64_t>> by_count;
    by_count.reserve(freq.size());
    for (auto& [key, vc] : freq) by_count.push_back(vc);
    std::sort(by_count.begin(), by_count.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    const double avg_freq = ns / d;
    for (const auto& [value, count] : by_count) {
      if (static_cast<int>(cs.mcvs.size()) >= kMcvCount) break;
      if (static_cast<double>(count) < 1.25 * avg_freq || count < 2) break;
      cs.mcvs.emplace_back(value,
                           static_cast<double>(count) / static_cast<double>(sample_n));
    }

    // Equi-depth histogram over the sorted sample, with PostgreSQL's
    // default 100 bins as in the paper's setup.
    constexpr int kHistogramBins = 100;
    const int bins =
        std::min<int>(kHistogramBins,
                      std::max<int>(1, static_cast<int>(numeric.size())));
    cs.histogram.resize(static_cast<size_t>(bins) + 1);
    for (int b = 0; b <= bins; ++b) {
      const size_t idx = static_cast<size_t>(
          std::llround(static_cast<double>(b) / bins *
                       static_cast<double>(numeric.size() - 1)));
      cs.histogram[static_cast<size_t>(b)] = numeric[idx];
    }
  }

  stats_[table.id()] = std::move(ts);
  return Status::OK();
}

}  // namespace qpp
