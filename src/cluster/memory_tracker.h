// Per-task memory accounting used by the real executor to enforce θt / θg.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "obs/metrics.h"

namespace distme {

/// \brief Tracks allocations against a fixed budget; reports OutOfMemory
/// when the budget would be exceeded.
///
/// One tracker per task (θt) and one per task's GPU working set (θg).
class MemoryTracker {
 public:
  MemoryTracker(std::string label, int64_t budget_bytes)
      : label_(std::move(label)), budget_(budget_bytes) {}

  ~MemoryTracker() {
    // Return this tracker's live bytes so a shared used-gauge settles back
    // to the other tasks' footprint.
    if (used_gauge_ != nullptr && used_ > 0) used_gauge_->Add(-used_);
  }

  /// \brief Mirrors this tracker's accounting into shared instruments:
  /// `used` aggregates live bytes across trackers, `peak` records the
  /// largest single-tracker footprint, `oom_rejections` counts refused
  /// allocations. Any pointer may be null.
  void AttachMetrics(obs::Gauge* used, obs::Gauge* peak,
                     obs::Counter* oom_rejections) {
    used_gauge_ = used;
    peak_gauge_ = peak;
    oom_counter_ = oom_rejections;
  }

  /// \brief Reserves `bytes`; fails with OutOfMemory if over budget.
  [[nodiscard]] Status Allocate(int64_t bytes) {
    if (used_ + bytes > budget_) {
      if (oom_counter_ != nullptr) oom_counter_->Add(1);
      return Status::OutOfMemory(label_ + ": requested " +
                                 std::to_string(bytes) + " B with " +
                                 std::to_string(budget_ - used_) +
                                 " B remaining of " + std::to_string(budget_));
    }
    used_ += bytes;
    peak_ = std::max(peak_, used_);
    if (used_gauge_ != nullptr) used_gauge_->Add(bytes);
    if (peak_gauge_ != nullptr) peak_gauge_->SetMax(peak_);
    return Status::OK();
  }

  /// \brief Releases `bytes` previously allocated.
  void Free(int64_t bytes) {
    const int64_t released = std::min(used_, std::max<int64_t>(0, bytes));
    used_ -= released;
    if (used_gauge_ != nullptr && released > 0) used_gauge_->Add(-released);
  }

  int64_t used() const { return used_; }
  int64_t peak() const { return peak_; }
  int64_t budget() const { return budget_; }
  int64_t remaining() const { return budget_ - used_; }

 private:
  std::string label_;
  int64_t budget_;
  int64_t used_ = 0;
  int64_t peak_ = 0;
  obs::Gauge* used_gauge_ = nullptr;
  obs::Gauge* peak_gauge_ = nullptr;
  obs::Counter* oom_counter_ = nullptr;
};

}  // namespace distme
