// Engine-wide metrics: lock-free Counter / Gauge / Histogram instruments
// owned by a thread-safe MetricsRegistry. Registration (name + label lookup)
// takes a mutex; the returned instrument pointers are stable for the
// registry's lifetime and their update paths are plain relaxed atomics, so
// task threads can hammer them without coordination.
//
// Metric names follow the scheme `distme.<subsystem>.<name>` (see the
// Observability section of DESIGN.md).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace distme::obs {

/// \brief A (key, value) label list, e.g. {{"reason", "injected_crash"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonically increasing counter. Lock-free.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Instantaneous value that can move both ways. Lock-free.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// \brief Raises the gauge to `value` if it is below it (records maxima).
  void SetMax(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Exponential-bucket histogram (base-2 buckets over the value's
/// binary exponent), exported as Prometheus `_bucket` series. Count and
/// sum are exact. Lock-free.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// \brief Lower bound of bucket `b` (0 for the first bucket).
  static double BucketLowerBound(int b);

  /// \brief Observation count currently in bucket `b`.
  int64_t BucketCount(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

 private:
  static int BucketFor(double value);

  std::array<std::atomic<int64_t>, kBuckets> buckets_{}
      DISTME_LOCKFREE("array of relaxed atomics; each cell is independent");
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// \brief One instrument's state at snapshot time.
struct MetricPoint {
  std::string name;
  LabelSet labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/Gauge value; Histogram count.
  int64_t value = 0;
  /// Histogram-only sum of the observations.
  double sum = 0;
  /// Histogram-only per-bucket counts (size Histogram::kBuckets), for the
  /// Prometheus `_bucket` series.
  std::vector<int64_t> buckets;
};

/// \brief A consistent-enough copy of every registered instrument.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  /// \brief The point with exactly this name and label set, or nullptr.
  const MetricPoint* Find(std::string_view name,
                          const LabelSet& labels = {}) const;
  /// \brief Sum of Counter/Gauge values across all label sets of `name`.
  int64_t TotalValue(std::string_view name) const;
};

/// \brief Thread-safe registry of named, optionally labeled instruments.
///
/// GetX() returns the same instrument for the same (name, labels) pair;
/// instrument pointers remain valid until the registry is destroyed.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name, const LabelSet& labels = {});
  Gauge* GetGauge(std::string_view name, const LabelSet& labels = {});
  Histogram* GetHistogram(std::string_view name, const LabelSet& labels = {});

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    LabelSet labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(std::string_view name, const LabelSet& labels,
                      MetricKind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ DISTME_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Entry*> index_ DISTME_GUARDED_BY(mutex_);
};

}  // namespace distme::obs
