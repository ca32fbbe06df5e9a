#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace distme::obs {

namespace {

// Bucket 0 holds everything below 2^kMinExponent; the last bucket holds
// everything at or above 2^(kMinExponent + kBuckets - 2).
constexpr int kMinExponent = -30;

std::string EntryKey(std::string_view name, const LabelSet& labels) {
  std::string key(name);
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [k, v] : sorted) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('=');
    key.append(v);
  }
  return key;
}

// fetch_add for atomic<double> via CAS: portable pre-/post-P0020 compilers.
void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::BucketFor(double value) {
  if (!(value > 0.0)) return 0;
  const int exponent = std::ilogb(value);
  return std::clamp(exponent - kMinExponent + 1, 0, kBuckets - 1);
}

double Histogram::BucketLowerBound(int b) {
  if (b <= 0) return 0.0;
  return std::ldexp(1.0, kMinExponent + b - 1);
}

void Histogram::Observe(double value) {
  buckets_[static_cast<size_t>(BucketFor(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
}

const MetricPoint* MetricsSnapshot::Find(std::string_view name,
                                         const LabelSet& labels) const {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const MetricPoint& point : points) {
    if (point.name != name) continue;
    LabelSet point_labels = point.labels;
    std::sort(point_labels.begin(), point_labels.end());
    if (point_labels == sorted) return &point;
  }
  return nullptr;
}

int64_t MetricsSnapshot::TotalValue(std::string_view name) const {
  int64_t total = 0;
  for (const MetricPoint& point : points) {
    if (point.name == name) total += point.value;
  }
  return total;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const LabelSet& labels,
                                                      MetricKind kind) {
  const std::string key = EntryKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = labels;
  entry->kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  index_.emplace(key, raw);
  return raw;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const LabelSet& labels) {
  return FindOrCreate(name, labels, MetricKind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 const LabelSet& labels) {
  return FindOrCreate(name, labels, MetricKind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const LabelSet& labels) {
  return FindOrCreate(name, labels, MetricKind::kHistogram)->histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.points.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricPoint point;
    point.name = entry->name;
    point.labels = entry->labels;
    point.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        point.value = entry->counter->Value();
        break;
      case MetricKind::kGauge:
        point.value = entry->gauge->Value();
        break;
      case MetricKind::kHistogram:
        point.value = entry->histogram->Count();
        point.sum = entry->histogram->Sum();
        point.buckets.reserve(Histogram::kBuckets);
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          point.buckets.push_back(entry->histogram->BucketCount(b));
        }
        break;
    }
    snapshot.points.push_back(std::move(point));
  }
  return snapshot;
}

}  // namespace distme::obs
