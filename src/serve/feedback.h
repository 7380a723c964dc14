#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>

#include "common/ordered_mutex.h"
#include "serve/registry.h"

namespace qpp::serve {

/// Tuning of the feedback/retrain loop.
struct FeedbackConfig {
  /// Bounded in-memory window of recent observed relative errors; drift is
  /// judged on its mean.
  size_t window_size = 64;
  /// Don't judge drift (or retrain) before this many windowed observations.
  size_t min_observations = 32;
  /// Windowed mean relative error that triggers a background retrain.
  double drift_threshold = 0.5;
  /// Retraining needs at least this many accumulated executed queries.
  size_t min_retrain_queries = 30;
  /// Cap on the accumulated in-memory retrain corpus; beyond it the oldest
  /// records are dropped (the on-disk log keeps everything).
  size_t max_retained_queries = 5000;
  /// When non-empty, every observed record is also appended to this file in
  /// QueryLog format (durable feedback channel; see AppendRecordToFile).
  std::string log_path;
  /// Model stack used for retrains.
  PredictorConfig retrain_config;
};

/// \brief Drift detection and feedback-driven retraining (the loop the
/// LinkedIn evaluation paper identifies as the missing production piece, and
/// postgrespro/aqo implements inside PostgreSQL: log executed queries,
/// retrain when the model has drifted, hot-swap the new model in).
///
/// Observe() is called after a query finishes executing, with the record
/// carrying observed actuals. It scores the *current* published model
/// against the observation, maintains a bounded error window, accumulates
/// the record into the retrain corpus (and optionally an on-disk log), and —
/// when the windowed error crosses the drift threshold — launches one
/// background retrain on the thread pool, off the request path. The
/// retrained predictor is published through the registry; in-flight readers
/// keep their snapshots, later requests see the new version.
class FeedbackLoop {
 public:
  /// `registry` must outlive the loop. Retrains run on ThreadPool::Global().
  FeedbackLoop(ModelRegistry* registry, FeedbackConfig config);
  /// Blocks until any in-flight retrain has finished.
  ~FeedbackLoop();

  FeedbackLoop(const FeedbackLoop&) = delete;
  FeedbackLoop& operator=(const FeedbackLoop&) = delete;

  /// Ingests one executed query (record must carry actual latency_ms).
  /// Returns the status of the durable append when a log_path is set;
  /// in-memory bookkeeping always happens.
  Status Observe(const QueryRecord& executed);

  /// Mean relative error over the current window (0 while empty).
  double WindowedError() const;
  /// Observations currently in the window.
  size_t window_fill() const;
  /// Executed queries accumulated for retraining.
  size_t corpus_size() const;

  // Relaxed loads: monotonic stats, no ordering with loop state implied.
  uint64_t retrains_triggered() const {
    return retrains_triggered_.load(std::memory_order_relaxed);
  }
  uint64_t retrains_published() const {
    return retrains_published_.load(std::memory_order_relaxed);
  }
  /// Status of the most recent finished retrain (OK if none ran).
  Status last_retrain_status() const;

  /// Blocks until the in-flight retrain (if any) completes. Test/shutdown
  /// hook — production callers never need it.
  void WaitForRetrain();

 private:
  /// Must hold mu_. When drift and preconditions hold, marks a retrain
  /// in-flight and returns the corpus snapshot to train on; the caller
  /// submits the task *after* releasing mu_ (Submit may run the task inline
  /// when called from a pool worker, and the task itself takes mu_).
  std::optional<QueryLog> MaybeBeginRetrainLocked();
  Status RetrainAndPublish(QueryLog corpus);

  ModelRegistry* registry_;
  FeedbackConfig config_;

  mutable OrderedMutex mu_;
  std::deque<double> window_;        // guarded by mu_
  /// Retrain corpus, oldest first; copied into a QueryLog when a retrain
  /// starts.
  std::deque<QueryRecord> corpus_;   // guarded by mu_
  Status last_retrain_status_;       // guarded by mu_
  std::future<Status> retrain_future_;  // guarded by mu_

  std::atomic<bool> retrain_in_flight_{false};
  std::atomic<uint64_t> retrains_triggered_{0};
  std::atomic<uint64_t> retrains_published_{0};
};

}  // namespace qpp::serve
