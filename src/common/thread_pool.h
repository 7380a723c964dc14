#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/status.h"

namespace qpp {

/// \brief Fixed-size thread pool for the training-side parallelism of the
/// library (cross-validation folds, per-operator-type model fits, bench
/// harnesses).
///
/// Design constraints, in order:
///   1. Determinism. ParallelFor assigns each index to exactly one task and
///      the caller merges results in index order, so numeric output is
///      bit-identical regardless of thread count (each index's computation
///      is self-contained; no reduction happens across threads).
///   2. No exceptions across threads. Worker exceptions are captured and
///      surfaced as Status (the library's error channel); ParallelFor
///      reports the failure of the *lowest* failing index, matching what a
///      serial loop that stops at the first error would return.
///   3. No nested-deadlock. Work submitted from inside a pool worker runs
///      inline on that worker (a blocked worker never waits on queue slots
///      that only it could drain). Query execution stays off this pool
///      entirely so per-operator timings remain clean training data.
///
/// A pool constructed with `num_threads <= 1` spawns no threads and runs
/// everything inline on the caller, which *is* the serial reference path
/// used by the determinism tests.
class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller participates in
  /// ParallelFor, so `num_threads` is the true parallel width).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel width (>= 1).
  int num_threads() const { return num_threads_; }

  /// Schedules `fn` on a worker; the future delivers its Status (exceptions
  /// become StatusCode::kInternal). From inside a pool worker, runs inline.
  std::future<Status> Submit(std::function<Status()> fn);

  /// Runs `fn(i)` for every i in [0, n), blocking until all complete. The
  /// calling thread participates. Returns OK if every index succeeded, else
  /// the Status of the lowest failing index. Thrown exceptions are captured
  /// as kInternal. `fn` must confine writes to per-index state; merging
  /// across indices belongs to the caller, after this returns.
  Status ParallelFor(size_t n, const std::function<Status(size_t)>& fn);

  /// Process-wide pool for model training. Width comes from QPP_THREADS
  /// when set (values < 1 clamp to 1), else std::thread::hardware_concurrency.
  static ThreadPool* Global();

  /// True when called from one of this process's pool worker threads.
  static bool InWorker();

 private:
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  OrderedMutex mu_;
  OrderedCv cv_;
  bool stop_ = false;
};

}  // namespace qpp
