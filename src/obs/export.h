// Exporters for the observability layer: Chrome trace-event JSON of the
// flight-event stream (loadable in chrome://tracing or
// https://ui.perfetto.dev) and a structured JSON rendering of a metrics
// snapshot, embedded by the engine's run report.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace distme::obs {

/// \brief Minimal JSON string builder with correct escaping. Append-only;
/// the caller provides structure via the Begin/End and Key helpers.
class JsonWriter {
 public:
  void BeginObject() { Separate(); out_.push_back('{'); PushFirst(); }
  void EndObject() { out_.push_back('}'); PopFirst(); }
  void BeginArray() { Separate(); out_.push_back('['); PushFirst(); }
  void EndArray() { out_.push_back(']'); PopFirst(); }

  void Key(std::string_view key) {
    Separate();
    AppendQuoted(key);
    out_.push_back(':');
    pending_value_ = true;
  }

  void Value(std::string_view value) { Separate(); AppendQuoted(value); }
  void Value(const char* value) { Value(std::string_view(value)); }
  void Value(int64_t value);
  void Value(int value) { Value(static_cast<int64_t>(value)); }
  void Value(double value);
  void Value(bool value);

  const std::string& str() const { return out_; }

 private:
  void Separate();
  void PushFirst() { first_stack_.push_back(true); pending_value_ = false; }
  void PopFirst() {
    if (!first_stack_.empty()) first_stack_.pop_back();
    pending_value_ = false;
  }
  void AppendQuoted(std::string_view s);

  std::string out_;
  std::vector<bool> first_stack_;
  bool pending_value_ = false;
};

/// \brief Renders flight events (a ring snapshot or a parsed dump, oldest
/// first) as a Chrome trace-event JSON document:
///   - one "task.attempt" span per attempt, task_start to task_finish, on
///     its (node, slot) track: pid = node, tid = slot;
///   - a span per non-zero fetch_wait / gpu_wait edge, on the same track;
///   - "run" and stage spans on the driver track, pid = highest node + 1;
///   - every device's engine intervals as paired by AnalyzeGpuTimeline, in
///     a process of its own per device: they sit on the device's virtual
///     clock, not on the ring's.
/// The top level carries `total_recorded` and `capacity`: the trace lost
/// events exactly when total_recorded > capacity. Every span carries the
/// keys `name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`.
std::string ChromeTraceJson(const std::vector<FlightEvent>& events,
                            uint64_t total_recorded, uint64_t capacity);

/// \brief Writes `content` to `path`, failing on short writes. Shared by the
/// trace / metrics / bench-result exporters.
[[nodiscard]] Status WriteTextFile(const std::string& path, std::string_view content);

/// \brief Appends `snapshot` to `writer` as a JSON array of metric points.
void AppendMetricsJson(const MetricsSnapshot& snapshot, JsonWriter* writer);

/// \brief Standalone JSON array of metric points.
std::string MetricsJson(const MetricsSnapshot& snapshot);

}  // namespace distme::obs
