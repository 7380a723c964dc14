#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "common/ordered_mutex.h"

namespace qpp {

/// \brief The one publication slot for immutable learned state (serve model
/// versions, card and KDE snapshots): readers take a shared snapshot of the
/// current generation, writers install numbered successors.
///
/// Load() copies the current std::shared_ptr under a leaf mutex, so it never
/// waits on a publisher building its successor, and the snapshot it returns
/// stays valid and unchanged however many publishes follow. A generation is
/// freed when its last holder drops it: the slot keeps only the current one.
/// Readers should take one snapshot per request or batch, not per lookup.
///
/// (std::atomic<std::shared_ptr> would avoid the mutex, but libstdc++ 12
/// unlocks its internal spinlock in load() with relaxed ordering, which TSan
/// reports as a race; qpp_lint bans it.)
template <typename T>
class Published {
 public:
  Published() = default;
  Published(const Published&) = delete;
  Published& operator=(const Published&) = delete;

  /// The current generation; null before the first Publish.
  std::shared_ptr<const T> Load() const {
    std::lock_guard<OrderedMutex> lock(mu_);
    return current_;
  }

  /// Number of the current generation (0 before the first Publish).
  uint64_t version() const {
    std::lock_guard<OrderedMutex> lock(mu_);
    return version_;
  }

  /// Installs `make(v)` as generation v = version() + 1 and returns v.
  /// Publishers are serialized, and `make` runs under that serialization
  /// (it may take locks below it in the DESIGN.md hierarchy), so generation
  /// numbers and contents advance together. The superseded generation is
  /// released after both locks are dropped.
  template <typename Make>
  uint64_t Publish(Make&& make) {
    std::shared_ptr<const T> superseded;  // destroyed after the locks below
    std::lock_guard<OrderedMutex> publish_lock(publish_mu_);
    const uint64_t v = version_ + 1;
    std::shared_ptr<const T> next = std::forward<Make>(make)(v);
    {
      std::lock_guard<OrderedMutex> lock(mu_);
      superseded = std::exchange(current_, std::move(next));
      version_ = v;
    }
    return v;
  }

 private:
  /// Serializes publishers; held across `make`.
  OrderedMutex publish_mu_;
  /// Leaf: guards the slot only, never held across user code.
  mutable OrderedMutex mu_;
  /// Written with both locks held, so either one suffices to read them.
  std::shared_ptr<const T> current_;
  uint64_t version_ = 0;
};

}  // namespace qpp
