// Building blocks of the RealExecutor prefetch pipeline: the bounded
// handoff queue from the fetch threads to the compute workers, and the
// per-node staging gate that applies memory backpressure to prefetching
// (DESIGN.md §4.9 "Execution pipeline").
//
// Ownership discipline: items passed through a BoundedQueue are moved —
// exactly one thread owns a staged task at any instant, so the payload
// itself needs no locking. The queue and gate are the only synchronization
// between fetch threads and workers.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/thread_annotations.h"

namespace distme::engine {

/// \brief Bounded multi-producer/multi-consumer handoff queue with close
/// semantics.
///
/// Push() blocks while the queue is full; Pop() blocks while it is empty.
/// Close() wakes every waiter: subsequent (and woken) Push() calls return
/// false, Pop() keeps draining buffered items and returns std::nullopt once
/// the queue is empty — so a consumer can shut the pipeline down without
/// stranding a producer, and a producer's exit (Close after its last Push)
/// lets the consumer finish the tail.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Blocks until there is room (or the queue closes). Returns false
  /// — and drops nothing; the caller keeps `item` ownership semantics via
  /// the unspecified moved-from state — when the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) {
      not_full_.wait(lock);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Blocks until an item is available (or the queue closes and
  /// drains). `*stalled` reports whether this call had to wait — the
  /// pipeline's hit/stall accounting.
  std::optional<T> Pop(bool* stalled = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stalled != nullptr) *stalled = items_.empty() && !closed_;
    while (items_.empty() && !closed_) {
      not_empty_.wait(lock);
    }
    if (items_.empty()) return std::nullopt;  // closed and fully drained
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// \brief Closes the queue from either side; idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// \brief Maximum occupancy ever observed (queue-depth high-water mark).
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_ DISTME_GUARDED_BY(mutex_);
  bool closed_ DISTME_GUARDED_BY(mutex_) = false;
  size_t high_water_ DISTME_GUARDED_BY(mutex_) = 0;
};

/// \brief Per-node staging-memory gate: backpressure for the fetch threads.
///
/// A fetch thread calls WaitForHeadroom() before prefetching a task and
/// Charge()s the staged bytes once fetched; the worker that pops the task
/// Release()s them when it takes ownership of the staged inputs. A new
/// prefetch is admitted only while staged bytes are at or under the budget,
/// so the effective prefetch depth shrinks as the node approaches its
/// staging budget — and collapses to one-in-flight when a single task's
/// inputs exceed it (an oversized task is always admitted once the gate is
/// empty, so the pipeline cannot deadlock on a task bigger than the budget).
class PrefetchGate {
 public:
  explicit PrefetchGate(int64_t budget_bytes) : budget_(budget_bytes) {}

  PrefetchGate(const PrefetchGate&) = delete;
  PrefetchGate& operator=(const PrefetchGate&) = delete;

  /// \brief Blocks while staged bytes exceed the budget. Returns true when
  /// the call had to wait (one backpressure event).
  bool WaitForHeadroom() {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool waited = used_ > budget_;
    while (used_ > budget_) {
      cv_.wait(lock);
    }
    return waited;
  }

  /// \brief Accounts `bytes` of freshly staged inputs against the gate.
  void Charge(int64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    used_ += bytes;
  }

  /// \brief Returns staged bytes to the gate (a worker's pop, or a dropped
  /// staged task on failure/teardown).
  void Release(int64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    used_ -= bytes;
    cv_.notify_all();
  }

 private:
  const int64_t budget_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int64_t used_ DISTME_GUARDED_BY(mutex_) = 0;
};

}  // namespace distme::engine
