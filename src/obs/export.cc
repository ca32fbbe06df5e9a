#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "obs/gpu_timeline.h"

namespace distme::obs {

void JsonWriter::Separate() {
  if (pending_value_) {
    pending_value_ = false;
    return;
  }
  if (first_stack_.empty()) return;
  if (first_stack_.back()) {
    first_stack_.back() = false;
  } else {
    out_.push_back(',');
  }
}

void JsonWriter::AppendQuoted(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\r':
        out_.append("\\r");
        break;
      case '\t':
        out_.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

void JsonWriter::Value(int64_t value) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out_.append(buf);
}

void JsonWriter::Value(double value) {
  Separate();
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf token. `null` is the honest encoding — a literal
    // 0 silently turns "no observations yet" (min = +inf) into a plausible
    // measurement downstream.
    out_.append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_.append(buf);
}

void JsonWriter::Value(bool value) {
  Separate();
  out_.append(value ? "true" : "false");
}

namespace {

// Metadata event ("ph":"M") naming a process or thread track.
void AppendTrackName(const char* meta_name, int64_t pid, int64_t tid,
                     const std::string& label, JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->Value(meta_name);
  w->Key("ph");
  w->Value("M");
  w->Key("ts");
  w->Value(int64_t{0});
  w->Key("pid");
  w->Value(pid);
  w->Key("tid");
  w->Value(tid);
  w->Key("args");
  w->BeginObject();
  w->Key("name");
  w->Value(label);
  w->EndObject();
  w->EndObject();
}

// One complete ("ph":"X") event over [begin_us, end_us], clamped to ts >= 0
// and dur >= 0.
void AppendSpan(std::string_view name, const char* category, int64_t begin_us,
                int64_t end_us, int64_t pid, int64_t tid,
                std::initializer_list<std::pair<const char*, int64_t>> args,
                JsonWriter* w) {
  const int64_t ts = std::max<int64_t>(0, begin_us);
  w->BeginObject();
  w->Key("name");
  w->Value(name);
  w->Key("cat");
  w->Value(category);
  w->Key("ph");
  w->Value("X");
  w->Key("ts");
  w->Value(ts);
  w->Key("dur");
  w->Value(std::max<int64_t>(0, end_us - ts));
  w->Key("pid");
  w->Value(pid);
  w->Key("tid");
  w->Value(tid);
  w->Key("args");
  w->BeginObject();
  for (const auto& [key, value] : args) {
    w->Key(key);
    w->Value(value);
  }
  w->EndObject();
  w->EndObject();
}

bool SameDetail(const char* l, const char* r) {
  return l == r || (l != nullptr && r != nullptr && std::strcmp(l, r) == 0);
}

}  // namespace

std::string ChromeTraceJson(const std::vector<FlightEvent>& events,
                            uint64_t total_recorded, uint64_t capacity) {
  int64_t max_node = -1;
  for (const FlightEvent& e : events) {
    max_node = std::max<int64_t>(max_node, e.node);
  }
  const int64_t driver_pid = max_node + 1;

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.Key("total_recorded");
  w.Value(static_cast<int64_t>(total_recorded));
  w.Key("capacity");
  w.Value(static_cast<int64_t>(capacity));
  w.Key("traceEvents");
  w.BeginArray();

  // Attempts pair FIFO per (task, node, slot), so rings shared by
  // concurrent runs still yield one span per attempt.
  std::map<std::tuple<int64_t, int32_t, int32_t>,
           std::deque<const FlightEvent*>>
      open_attempts;
  std::vector<const FlightEvent*> open_runs;
  std::vector<const FlightEvent*> open_stages;
  std::set<std::pair<int32_t, int32_t>> slot_tracks;
  for (const FlightEvent& e : events) {
    switch (e.type) {
      case FlightEventType::kTaskStart:
        open_attempts[{e.a, e.node, e.slot}].push_back(&e);
        break;
      case FlightEventType::kTaskFinish: {
        // A start the ring overwrote is rebuilt from the attempt duration
        // the finish carries in `b`, as BuildCausalGraph does; its attempt
        // number reads -1.
        auto& starts = open_attempts[{e.a, e.node, e.slot}];
        FlightEvent start{.ts_us = e.ts_us - e.b, .b = -1};
        if (!starts.empty()) {
          start = *starts.front();
          starts.pop_front();
        }
        AppendSpan("task.attempt", "task", start.ts_us, e.ts_us, e.node,
                   e.slot, {{"task", e.a}, {"attempt", start.b}}, &w);
        slot_tracks.emplace(e.node, e.slot);
        break;
      }
      case FlightEventType::kDepEdge: {
        // The edge is the `b` µs ending at ts_us.
        const FlightEdgeKind kind = FlightEdgeKindFromName(e.detail);
        if ((kind == FlightEdgeKind::kFetchWait ||
             kind == FlightEdgeKind::kGpuWait) &&
            e.b > 0) {
          AppendSpan(FlightEdgeKindName(kind), "edge", e.ts_us - e.b, e.ts_us,
                     e.node, e.slot, {{"task", e.a}}, &w);
          slot_tracks.emplace(e.node, e.slot);
        }
        break;
      }
      case FlightEventType::kRunStart:
        open_runs.push_back(&e);
        break;
      case FlightEventType::kRunFinish:
        if (open_runs.empty()) break;  // its start fell off the ring
        AppendSpan("run", "driver", open_runs.back()->ts_us, e.ts_us,
                   driver_pid, 0,
                   {{"tasks", open_runs.back()->a}, {"failed", e.b != 0}}, &w);
        open_runs.pop_back();
        break;
      case FlightEventType::kStageBegin:
        open_stages.push_back(&e);
        break;
      case FlightEventType::kStageEnd:
        // Closes the latest open stage of the same name.
        for (size_t i = open_stages.size(); i-- > 0;) {
          if (!SameDetail(open_stages[i]->detail, e.detail)) continue;
          AppendSpan(e.detail != nullptr ? e.detail : "stage", "stage",
                     open_stages[i]->ts_us, e.ts_us, driver_pid, 0, {}, &w);
          open_stages.erase(open_stages.begin() +
                            static_cast<std::ptrdiff_t>(i));
          break;
        }
        break;
      default:
        break;
    }
  }

  // Device engine intervals, paired once by AnalyzeGpuTimeline. Without
  // the run_finish markers it keeps the intervals of every run in the
  // ring, not only the last one's.
  std::vector<FlightEvent> device_events;
  device_events.reserve(events.size());
  for (const FlightEvent& e : events) {
    if (e.type != FlightEventType::kRunFinish) device_events.push_back(e);
  }
  const GpuTimelineAnalysis gpu = AnalyzeGpuTimeline(device_events);
  int64_t device_pid = driver_pid + 1;
  for (const GpuDeviceTimeline& device : gpu.devices) {
    for (const GpuInterval& iv : device.intervals) {
      std::string name = GpuEngineName(iv.engine);
      if (iv.cuboid_id >= 0) {
        name += " c" + std::to_string(iv.cuboid_id) + "." +
                std::to_string(iv.sub_index);
      }
      AppendSpan(name, "gpu", iv.begin_us, iv.end_us, device_pid,
                 static_cast<int64_t>(iv.engine),
                 {{iv.engine == GpuEngine::kKernel ? "flops" : "bytes",
                   iv.payload},
                  {"stream", iv.stream}},
                 &w);
    }
    AppendTrackName("process_name", device_pid, 0,
                    "node" + std::to_string(device.node) + " gpu" +
                        std::to_string(device.ordinal) + " (device clock)",
                    &w);
    for (int engine = 0;
         engine < static_cast<int>(GpuEngine::kNumEngines); ++engine) {
      AppendTrackName("thread_name", device_pid, engine,
                      GpuEngineName(static_cast<GpuEngine>(engine)), &w);
    }
    ++device_pid;
  }

  std::set<int32_t> nodes;
  for (const auto& [node, slot] : slot_tracks) {
    nodes.insert(node);
    AppendTrackName("thread_name", node, slot, "slot" + std::to_string(slot),
                    &w);
  }
  for (const int32_t node : nodes) {
    AppendTrackName("process_name", node, 0, "node" + std::to_string(node),
                    &w);
  }
  AppendTrackName("process_name", driver_pid, 0, "driver", &w);
  AppendTrackName("thread_name", driver_pid, 0, "runs and stages", &w);
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status WriteTextFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open output file: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::IOError("short write to output file: " + path);
  }
  return Status::OK();
}

void AppendMetricsJson(const MetricsSnapshot& snapshot, JsonWriter* writer) {
  writer->BeginArray();
  for (const MetricPoint& point : snapshot.points) {
    writer->BeginObject();
    writer->Key("name");
    writer->Value(point.name);
    if (!point.labels.empty()) {
      writer->Key("labels");
      writer->BeginObject();
      for (const auto& [key, value] : point.labels) {
        writer->Key(key);
        writer->Value(value);
      }
      writer->EndObject();
    }
    switch (point.kind) {
      case MetricKind::kCounter:
        writer->Key("type");
        writer->Value("counter");
        writer->Key("value");
        writer->Value(point.value);
        break;
      case MetricKind::kGauge:
        writer->Key("type");
        writer->Value("gauge");
        writer->Key("value");
        writer->Value(point.value);
        break;
      case MetricKind::kHistogram:
        writer->Key("type");
        writer->Value("histogram");
        writer->Key("count");
        writer->Value(point.value);
        writer->Key("sum");
        writer->Value(point.sum);
        writer->Key("min");
        writer->Value(point.min);
        writer->Key("max");
        writer->Value(point.max);
        writer->Key("p50");
        writer->Value(point.p50);
        writer->Key("p95");
        writer->Value(point.p95);
        writer->Key("p99");
        writer->Value(point.p99);
        break;
    }
    writer->EndObject();
  }
  writer->EndArray();
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  JsonWriter writer;
  AppendMetricsJson(snapshot, &writer);
  return writer.str();
}

}  // namespace distme::obs
