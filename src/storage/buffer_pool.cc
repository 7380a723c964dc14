#include "storage/buffer_pool.h"

#include "obs/metrics.h"

namespace qpp {

BufferPool::BufferPool(Config config)
    : config_(config),
      metric_hits_(obs::MetricsRegistry::Global()->GetCounter(
          "storage.buffer_pool.hits")),
      metric_misses_(obs::MetricsRegistry::Global()->GetCounter(
          "storage.buffer_pool.misses")),
      metric_hit_rate_(obs::MetricsRegistry::Global()->GetGauge(
          "storage.buffer_pool.hit_rate")) {
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (auto& w : scratch_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
}

bool BufferPool::AccessSequential(int table_id, int64_t page_index) {
  return Access(table_id, page_index, config_.io_work_passes);
}

bool BufferPool::AccessRandom(int table_id, int64_t page_index) {
  return Access(table_id, page_index,
                config_.io_work_passes * kRandomMultiplier);
}

bool BufferPool::Access(int table_id, int64_t page_index, int work_passes) {
  const Key key = MakeKey(table_id, page_index);
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    ++lifetime_hits_;
    metric_hits_->Increment();
    metric_hit_rate_->Set(static_cast<double>(lifetime_hits_) /
                          static_cast<double>(lifetime_hits_ +
                                              lifetime_misses_));
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  ++lifetime_misses_;
  metric_misses_->Increment();
  metric_hit_rate_->Set(static_cast<double>(lifetime_hits_) /
                        static_cast<double>(lifetime_hits_ +
                                            lifetime_misses_));
  PerformReadWork(work_passes);
  lru_.push_front(key);
  pages_[key] = lru_.begin();
  if (lru_.size() > config_.capacity_pages) {
    pages_.erase(lru_.back());
    lru_.pop_back();
  }
  return false;
}

void BufferPool::PerformReadWork(int passes) {
  uint64_t acc = sink_;
  for (int p = 0; p < passes; ++p) {
    for (size_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) {
      acc += scratch_[i] * 0x9E3779B97F4A7C15ULL;
      acc ^= acc >> 29;
    }
  }
  sink_ = acc;
}

void BufferPool::FlushAll() {
  lru_.clear();
  pages_.clear();
}

}  // namespace qpp
