// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its own calls into each engine module, so the
// per-layer numbers do not depend on any tracing facility inside the
// engine. Single-threaded: only the benchmark's driver thread records.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  std::string name;    ///< "<layer>.<call>", e.g. "core.multiply"
  int64_t start_ns = 0;  ///< since the recorder was created
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  int64_t op_id = -1;    ///< shared by every span of one op (-1: none)
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// \brief Opens a span nested in the innermost open span; returns its id.
  int64_t Begin(std::string name, int64_t op_id);
  /// \brief Closes span `id`, which must be the innermost open span.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Per span name: summed duration minus the part covered by the
  /// span's direct children (self time), in seconds.
  std::map<std::string, double> SelfSeconds() const;
  /// \brief Per span name: summed duration in seconds.
  std::map<std::string, double> TotalSeconds() const;

  /// \brief Writes the spans as Chrome trace-event JSON (one "X" event per
  /// span on a single track; parent and op id go in args).
  [[nodiscard]] distme::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// \brief RAII span; a null recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t op_id)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

}  // namespace perfbench
