#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace qpp {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// \brief Simulated disk subsystem: an LRU buffer pool over logical 8 KB
/// pages.
///
/// Tables in this engine live in memory, so "I/O" is modeled as real CPU
/// work: a cold page access runs a checksum pass over a page-sized buffer
/// (`io_work_passes` times), making scan latency genuinely proportional to
/// pages read and making repeated scans of cached data measurably faster —
/// the "operator interactions (multiple scans on the same table that use the
/// same cached data)" effect the paper lists among the failure modes of
/// operator-level models. Random (index) accesses charge extra passes,
/// mirroring the seq_page_cost / random_page_cost asymmetry.
///
/// The pool is intentionally *not* visible to the optimizer's cost model,
/// which — like PostgreSQL's — assumes cold reads. That gap is one of the
/// systematic cost-model errors the learned models must absorb.
class BufferPool {
 public:
  struct Config {
    /// Pool capacity in pages. Default 16384 pages = 128 MB logical.
    size_t capacity_pages = 16384;
    /// Checksum passes over the 8 KB buffer per cold sequential page read;
    /// a cold random read charges kRandomMultiplier times as many.
    int io_work_passes = 3;
  };

  static constexpr size_t kPageSize = 8192;
  /// Multiplier on io_work_passes for random page reads.
  static constexpr int kRandomMultiplier = 4;

  BufferPool() : BufferPool(Config{}) {}
  explicit BufferPool(Config config);

  /// Sequential access to page `page_index` of table `table_id`. Performs
  /// read work on a miss and updates recency. Returns true on a hit, so
  /// callers can attribute pool activity per operator.
  bool AccessSequential(int table_id, int64_t page_index);

  /// Random access (index lookups); costlier on miss. Returns true on hit.
  bool AccessRandom(int table_id, int64_t page_index);

  /// Drops all cached pages — the experiment harness calls this before each
  /// query to reproduce the paper's cold-start runs.
  void FlushAll();

  size_t num_cached_pages() const { return lru_.size(); }

  const Config& config() const { return config_; }

  /// Key layout: bits [63:40] table id (24 bits), bits [39:0] page index
  /// (40 bits, 8 EB of 8 KB pages per table). Both fields are masked so an
  /// out-of-range page index can never bleed into the table-id bits and
  /// silently alias a page of another table (the unmasked packing did
  /// exactly that for page_index >= 2^40 or negative table ids); debug
  /// builds additionally assert the precondition. Public for tests.
  static constexpr int kTableIdBits = 24;
  static constexpr int kPageIndexBits = 40;
  static uint64_t MakeKey(int table_id, int64_t page_index) {
    assert(table_id >= 0 &&
           table_id < (1 << kTableIdBits) &&
           page_index >= 0 &&
           page_index < (int64_t{1} << kPageIndexBits));
    constexpr uint64_t kPageMask = (uint64_t{1} << kPageIndexBits) - 1;
    constexpr uint64_t kTableMask = (uint64_t{1} << kTableIdBits) - 1;
    return ((static_cast<uint64_t>(static_cast<int64_t>(table_id)) &
             kTableMask)
            << kPageIndexBits) |
           (static_cast<uint64_t>(page_index) & kPageMask);
  }

 private:
  using Key = uint64_t;

  bool Access(int table_id, int64_t page_index, int work_passes);
  void PerformReadWork(int passes);

  Config config_;
  std::list<Key> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Key>::iterator> pages_;
  // Process-wide metrics (registry-owned, stable for process lifetime);
  // the exported hit rate covers every access this pool has served.
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Gauge* metric_hit_rate_;
  uint64_t lifetime_hits_ = 0;
  uint64_t lifetime_misses_ = 0;
  // Scratch buffer the read work runs over; contents are irrelevant, the
  // pass is what costs time.
  uint64_t scratch_[kPageSize / sizeof(uint64_t)];
  volatile uint64_t sink_ = 0;  // defeats dead-code elimination
};

}  // namespace qpp
