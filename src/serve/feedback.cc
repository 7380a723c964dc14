#include "serve/feedback.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/stats.h"
#include "obs/metrics.h"

namespace qpp::serve {
namespace {

// Registry pointers are stable for the process lifetime; resolve once.
obs::Gauge* WindowedErrGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global()->GetGauge(
      "serve.feedback.windowed_rel_err");
  return g;
}

obs::Counter* RetrainsTriggeredCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global()->GetCounter(
      "serve.feedback.retrains_triggered");
  return c;
}

obs::Counter* RetrainsPublishedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global()->GetCounter(
      "serve.feedback.retrains_published");
  return c;
}

obs::Histogram* RetrainMsHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global()->GetHistogram(
      "serve.feedback.retrain_ms", obs::ExponentialBuckets(1.0, 2.0, 16));
  return h;
}

}  // namespace

FeedbackLoop::FeedbackLoop(ModelRegistry* registry, FeedbackConfig config,
                           ThreadPool* pool)
    : registry_(registry),
      pool_(pool != nullptr ? pool : ThreadPool::Global()),
      config_(std::move(config)) {}

FeedbackLoop::~FeedbackLoop() { WaitForRetrain(); }

void FeedbackLoop::WaitForRetrain() {
  // Loop instead of a single wait: a trigger marks the retrain in-flight
  // before its future lands in retrain_future_, so drain until both the
  // stored future is consumed and no retrain is marked in-flight.
  while (true) {
    std::future<Status> pending;
    {
      std::lock_guard<OrderedMutex> lock(mu_);
      if (retrain_future_.valid()) pending = std::move(retrain_future_);
    }
    if (pending.valid()) {
      pending.wait();
      continue;
    }
    // Acquire pairs with the release store in RetrainAndPublish: once
    // the flag reads false, the retrain's writes are visible.
    if (!retrain_in_flight_.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
}

Status FeedbackLoop::Observe(const QueryRecord& executed) {
  // Score the current published model on this observation. A prediction
  // failure (no model yet, unforeseen shape) contributes no error sample but
  // the record still feeds the retrain corpus.
  auto snapshot = registry_->Current();
  // Predict outside mu_: PredictLatencyMs can train sub-plan models online
  // (a ThreadPool::ParallelFor fan-out), and blocking on the pool while
  // holding mu_ would stall every concurrent observer and accessor
  // (qpp_concur: blocking-under-lock). Only the window update needs the
  // lock.
  std::optional<double> rel_err;
  if (snapshot != nullptr && executed.latency_ms > 0) {
    auto predicted = snapshot->predictor->PredictLatencyMs(executed);
    if (predicted.ok()) {
      // latency_ms > 0 was checked above, so the error is defined.
      rel_err = *RelativeError(executed.latency_ms, *predicted);
    }
  }
  std::optional<QueryLog> retrain_corpus;
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    if (rel_err.has_value()) {
      window_.push_back(*rel_err);
      while (window_.size() > config_.window_size) window_.pop_front();
      double total = 0.0;
      for (double e : window_) total += e;
      WindowedErrGauge()->Set(total / static_cast<double>(window_.size()));
    }
    corpus_.push_back(executed);
    while (corpus_.size() > config_.max_retained_queries) corpus_.pop_front();
    retrain_corpus = MaybeBeginRetrainLocked();
  }
  if (retrain_corpus.has_value()) {
    auto future = pool_->Submit(
        [this, corpus = std::move(*retrain_corpus)]() mutable {
          return RetrainAndPublish(std::move(corpus));
        });
    std::lock_guard<OrderedMutex> lock(mu_);
    retrain_future_ = std::move(future);
  }
  if (!config_.log_path.empty()) {
    return AppendRecordToFile(executed, config_.log_path);
  }
  return Status::OK();
}

double FeedbackLoop::WindowedError() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  if (window_.empty()) return 0.0;
  double total = 0.0;
  for (double e : window_) total += e;
  return total / static_cast<double>(window_.size());
}

size_t FeedbackLoop::window_fill() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return window_.size();
}

size_t FeedbackLoop::corpus_size() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return corpus_.size();
}

Status FeedbackLoop::last_retrain_status() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return last_retrain_status_;
}

std::optional<QueryLog> FeedbackLoop::MaybeBeginRetrainLocked() {
  // Relaxed: mu_ is held (Observe calls this locked); the flag is only
  // a gate against double-triggering.
  if (retrain_in_flight_.load(std::memory_order_relaxed)) return std::nullopt;
  if (window_.size() < config_.min_observations) return std::nullopt;
  if (corpus_.size() < config_.min_retrain_queries) return std::nullopt;
  double total = 0.0;
  for (double e : window_) total += e;
  const double mean = total / static_cast<double>(window_.size());
  if (mean <= config_.drift_threshold) return std::nullopt;

  retrain_in_flight_.store(true, std::memory_order_relaxed);  // under mu_
  retrains_triggered_.fetch_add(1, std::memory_order_relaxed);
  RetrainsTriggeredCounter()->Increment();
  // Snapshot the corpus for the background task; training works on the
  // copy, so Observe keeps accumulating meanwhile.
  QueryLog snapshot;
  snapshot.queries.assign(corpus_.begin(), corpus_.end());
  return snapshot;
}

Status FeedbackLoop::RetrainAndPublish(QueryLog corpus) {
  const auto t0 = std::chrono::steady_clock::now();
  auto predictor =
      std::make_shared<QueryPerformancePredictor>(config_.retrain_config);
  Status st = predictor->Train(corpus);
  RetrainMsHistogram()->Observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (st.ok()) {
    const uint64_t published =
        retrains_published_.fetch_add(1, std::memory_order_relaxed) + 1;
    RetrainsPublishedCounter()->Increment();
    registry_->Publish(std::move(predictor),
                       "retrain#" + std::to_string(published));
  }
  {
    std::lock_guard<OrderedMutex> lock(mu_);
    last_retrain_status_ = st;
    if (st.ok()) {
      // Restart drift measurement against the freshly published model.
      window_.clear();
    }
  }
  // Release: WaitForRetrain's acquire load of this flag must observe the
  // registry publish and status update above.
  retrain_in_flight_.store(false, std::memory_order_release);
  return st;
}

}  // namespace qpp::serve
