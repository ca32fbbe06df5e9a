#include "obs/gpu_timeline.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <tuple>

#include "common/units.h"

namespace distme::obs {

namespace {

constexpr int64_t kOrdinalShift = 48;
constexpr int64_t kCuboidShift = 24;
constexpr int64_t kOrdinalMask = 0xFF;
constexpr int64_t kCuboidMask = (int64_t{1} << 24) - 1;
constexpr int64_t kSubMask = (int64_t{1} << 24) - 1;

}  // namespace

int64_t PackGpuTag(int32_t ordinal, int64_t cuboid_id, int64_t sub_index) {
  const int64_t cuboid_field =
      cuboid_id < 0 ? kGpuNoCuboidId : (cuboid_id & kCuboidMask);
  return ((static_cast<int64_t>(ordinal) & kOrdinalMask) << kOrdinalShift) |
         (cuboid_field << kCuboidShift) | (sub_index & kSubMask);
}

int64_t GpuTagWithOrdinal(int32_t ordinal, int64_t tag) {
  return (tag & ~(kOrdinalMask << kOrdinalShift)) |
         ((static_cast<int64_t>(ordinal) & kOrdinalMask) << kOrdinalShift);
}

GpuTag UnpackGpuTag(int64_t packed) {
  GpuTag tag;
  tag.ordinal = static_cast<int32_t>((packed >> kOrdinalShift) & kOrdinalMask);
  const int64_t cuboid_field = (packed >> kCuboidShift) & kCuboidMask;
  tag.cuboid_id = cuboid_field == kGpuNoCuboidId ? -1 : cuboid_field;
  tag.sub_index = packed & kSubMask;
  return tag;
}

const char* GpuEngineName(GpuEngine engine) {
  switch (engine) {
    case GpuEngine::kH2d:
      return "h2d";
    case GpuEngine::kD2h:
      return "d2h";
    case GpuEngine::kKernel:
      return "kernel";
    default:
      return "unknown";
  }
}

double OverlapReport::overlap_ratio() const {
  const int64_t cap = std::min(copy_busy_us, kernel_busy_us);
  if (cap <= 0) return 0.0;
  return static_cast<double>(overlapped_us) / static_cast<double>(cap);
}

double OverlapReport::kernel_utilization() const {
  const int64_t w = window_us();
  if (w <= 0) return 0.0;
  return static_cast<double>(kernel_busy_us) / static_cast<double>(w);
}

double OverlapReport::effective_pcie_bytes_per_sec() const {
  if (copy_busy_us <= 0) return 0.0;
  return (static_cast<double>(h2d_bytes) + static_cast<double>(d2h_bytes)) /
         (static_cast<double>(copy_busy_us) * 1e-6);
}

void OverlapReport::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("window_begin_us");
  w->Value(window_begin_us);
  w->Key("window_end_us");
  w->Value(window_end_us);
  w->Key("window_us");
  w->Value(window_us());
  w->Key("h2d_busy_us");
  w->Value(h2d_busy_us);
  w->Key("d2h_busy_us");
  w->Value(d2h_busy_us);
  w->Key("kernel_busy_us");
  w->Value(kernel_busy_us);
  w->Key("copy_busy_us");
  w->Value(copy_busy_us);
  w->Key("overlapped_us");
  w->Value(overlapped_us);
  w->Key("kernel_bound_us");
  w->Value(kernel_bound_us);
  w->Key("h2d_bound_us");
  w->Value(h2d_bound_us);
  w->Key("d2h_bound_us");
  w->Value(d2h_bound_us);
  w->Key("bubble_us");
  w->Value(bubble_us);
  w->Key("bubble_count");
  w->Value(bubble_count);
  w->Key("bubbles");
  w->BeginArray();
  // Cap the listed intervals: bubble_count above is always the true count.
  const size_t listed = std::min<size_t>(bubbles.size(), 64);
  for (size_t i = 0; i < listed; ++i) {
    w->BeginArray();
    w->Value(bubbles[i].first);
    w->Value(bubbles[i].second);
    w->EndArray();
  }
  w->EndArray();
  w->Key("h2d_bytes");
  w->Value(h2d_bytes);
  w->Key("d2h_bytes");
  w->Value(d2h_bytes);
  w->Key("kernel_flops");
  w->Value(kernel_flops);
  w->Key("h2d_copies");
  w->Value(h2d_copies);
  w->Key("d2h_copies");
  w->Value(d2h_copies);
  w->Key("kernel_launches");
  w->Value(kernel_launches);
  w->Key("overlap_ratio");
  w->Value(overlap_ratio());
  w->Key("kernel_utilization");
  w->Value(kernel_utilization());
  w->Key("effective_pcie_bytes_per_sec");
  w->Value(effective_pcie_bytes_per_sec());
  w->Key("pcie_peak_bytes_per_sec");
  w->Value(pcie_peak_bytes_per_sec);
  w->EndObject();
}

namespace {

// Overlap accounting over one interval set via a boundary sweep. Between
// two consecutive boundary timestamps the set of active engines is
// constant, so each segment lands in exactly one of the four exclusive
// buckets (priority kernel > h2d > d2h > bubble) — the buckets tile the
// window by construction, and overlapped ≤ min(copy, kernel) falls out of
// the same sweep (an overlapped segment adds to both busy sums).
OverlapReport ComputeReport(const std::vector<const GpuInterval*>& intervals,
                            double pcie_peak_bytes_per_sec) {
  OverlapReport r;
  r.pcie_peak_bytes_per_sec = pcie_peak_bytes_per_sec;
  if (intervals.empty()) return r;

  r.window_begin_us = intervals.front()->begin_us;
  r.window_end_us = intervals.front()->end_us;
  for (const GpuInterval* iv : intervals) {
    r.window_begin_us = std::min(r.window_begin_us, iv->begin_us);
    r.window_end_us = std::max(r.window_end_us, iv->end_us);
    switch (iv->engine) {
      case GpuEngine::kH2d:
        ++r.h2d_copies;
        r.h2d_bytes = FlightSum(r.h2d_bytes, iv->payload);
        break;
      case GpuEngine::kD2h:
        ++r.d2h_copies;
        r.d2h_bytes = FlightSum(r.d2h_bytes, iv->payload);
        break;
      case GpuEngine::kKernel:
        ++r.kernel_launches;
        r.kernel_flops = FlightSum(r.kernel_flops, iv->payload);
        break;
      default:
        break;
    }
  }

  struct Edge {
    int64_t t;
    uint8_t engine;
    int8_t delta;
  };
  std::vector<Edge> edges;
  edges.reserve(intervals.size() * 2);
  for (const GpuInterval* iv : intervals) {
    edges.push_back({iv->begin_us, static_cast<uint8_t>(iv->engine), +1});
    edges.push_back({iv->end_us, static_cast<uint8_t>(iv->engine), -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& l, const Edge& r2) { return l.t < r2.t; });

  int active[3] = {0, 0, 0};
  int64_t prev = edges.front().t;
  size_t i = 0;
  while (i < edges.size()) {
    const int64_t t = edges[i].t;
    const int64_t len = t - prev;
    if (len > 0) {
      const bool h = active[static_cast<int>(GpuEngine::kH2d)] > 0;
      const bool d = active[static_cast<int>(GpuEngine::kD2h)] > 0;
      const bool k = active[static_cast<int>(GpuEngine::kKernel)] > 0;
      if (h) r.h2d_busy_us += len;
      if (d) r.d2h_busy_us += len;
      if (k) r.kernel_busy_us += len;
      if (h || d) r.copy_busy_us += len;
      if ((h || d) && k) r.overlapped_us += len;
      if (k) {
        r.kernel_bound_us += len;
      } else if (h) {
        r.h2d_bound_us += len;
      } else if (d) {
        r.d2h_bound_us += len;
      } else {
        r.bubble_us += len;
        if (!r.bubbles.empty() && r.bubbles.back().second == prev) {
          r.bubbles.back().second = t;  // zero-length op split the gap
        } else {
          r.bubbles.emplace_back(prev, t);
        }
      }
    }
    while (i < edges.size() && edges[i].t == t) {
      active[edges[i].engine] += edges[i].delta;
      ++i;
    }
    prev = t;
  }
  r.bubble_count = static_cast<int64_t>(r.bubbles.size());
  return r;
}

bool IsGpuBegin(FlightEventType t, GpuEngine* engine) {
  switch (t) {
    case FlightEventType::kGpuH2dBegin:
      *engine = GpuEngine::kH2d;
      return true;
    case FlightEventType::kGpuD2hBegin:
      *engine = GpuEngine::kD2h;
      return true;
    case FlightEventType::kGpuKernelBegin:
      *engine = GpuEngine::kKernel;
      return true;
    default:
      return false;
  }
}

bool IsGpuEnd(FlightEventType t, GpuEngine* engine) {
  switch (t) {
    case FlightEventType::kGpuH2dEnd:
      *engine = GpuEngine::kH2d;
      return true;
    case FlightEventType::kGpuD2hEnd:
      *engine = GpuEngine::kD2h;
      return true;
    case FlightEventType::kGpuKernelEnd:
      *engine = GpuEngine::kKernel;
      return true;
    default:
      return false;
  }
}

}  // namespace

GpuTimelineAnalysis AnalyzeGpuTimeline(std::span<const FlightEvent> events,
                                       double pcie_peak_bytes_per_sec) {
  GpuTimelineAnalysis analysis;

  // Sort the GPU events by sequence so k-th begin pairs with k-th end per
  // (node, ordinal, engine) — the device emits each pair back to back under
  // its mutex, so FIFO matching in sequence order is exact.
  std::vector<const FlightEvent*> gpu_events;
  for (const FlightEvent& e : events) {
    GpuEngine engine;
    if (IsGpuBegin(e.type, &engine) || IsGpuEnd(e.type, &engine) ||
        e.type == FlightEventType::kGpuAlloc) {
      gpu_events.push_back(&e);
    }
  }
  std::sort(gpu_events.begin(), gpu_events.end(),
            [](const FlightEvent* l, const FlightEvent* r) {
              return l->seq < r->seq;
            });

  struct DeviceBuild {
    std::vector<GpuInterval> intervals;
    int64_t high_water = 0;
  };
  std::map<std::pair<int32_t, int32_t>, DeviceBuild> builds;
  std::map<std::tuple<int32_t, int32_t, uint8_t>,
           std::deque<const FlightEvent*>>
      pending;

  for (const FlightEvent* e : gpu_events) {
    const GpuTag tag = UnpackGpuTag(e->b);
    const std::pair<int32_t, int32_t> dev_key{e->node, tag.ordinal};
    if (e->type == FlightEventType::kGpuAlloc) {
      DeviceBuild& build = builds[dev_key];
      build.high_water = std::max(build.high_water, e->a);
      continue;
    }
    GpuEngine engine;
    if (IsGpuBegin(e->type, &engine)) {
      pending[{e->node, tag.ordinal, static_cast<uint8_t>(engine)}]
          .push_back(e);
      continue;
    }
    if (!IsGpuEnd(e->type, &engine)) continue;
    auto& queue =
        pending[{e->node, tag.ordinal, static_cast<uint8_t>(engine)}];
    if (queue.empty()) continue;  // orphan end: its begin fell off the ring
    const FlightEvent* begin = queue.front();
    queue.pop_front();
    GpuInterval iv;
    iv.engine = engine;
    iv.stream = begin->slot;
    iv.begin_us = begin->ts_us;
    iv.end_us = std::max(e->ts_us, begin->ts_us);
    iv.payload = begin->a;
    iv.cuboid_id = tag.cuboid_id;
    iv.sub_index = tag.sub_index;
    builds[dev_key].intervals.push_back(iv);
  }
  // Unmatched begins (their ends fell outside the snapshot) are dropped:
  // only complete intervals enter the accounting.

  for (auto& [key, build] : builds) {
    if (build.intervals.empty() && build.high_water == 0) continue;
    GpuDeviceTimeline device;
    device.node = key.first;
    device.ordinal = key.second;
    device.occupancy_high_water_bytes = build.high_water;
    device.intervals = std::move(build.intervals);
    std::sort(device.intervals.begin(), device.intervals.end(),
              [](const GpuInterval& l, const GpuInterval& r) {
                return std::tie(l.begin_us, l.end_us) <
                       std::tie(r.begin_us, r.end_us);
              });
    std::vector<const GpuInterval*> all;
    all.reserve(device.intervals.size());
    std::map<int64_t, std::vector<const GpuInterval*>> by_cuboid;
    for (const GpuInterval& iv : device.intervals) {
      all.push_back(&iv);
      if (iv.cuboid_id >= 0) by_cuboid[iv.cuboid_id].push_back(&iv);
    }
    device.report = ComputeReport(all, pcie_peak_bytes_per_sec);
    for (const auto& [cuboid_id, ivs] : by_cuboid) {
      device.cuboids[cuboid_id] =
          ComputeReport(ivs, pcie_peak_bytes_per_sec);
    }
    analysis.devices.push_back(std::move(device));
  }

  // Whole-run aggregate: sums over devices, window = Σ device windows (a
  // duration, not a wall interval — window_begin_us stays 0). Tiling holds
  // for sums, and Σ min(copyᵢ, kernelᵢ) ≤ min(Σ copy, Σ kernel) keeps the
  // overlap invariant. The µs, byte and flop sums saturate (FlightSum).
  OverlapReport& run = analysis.run;
  run.pcie_peak_bytes_per_sec = pcie_peak_bytes_per_sec;
  for (const GpuDeviceTimeline& device : analysis.devices) {
    const OverlapReport& r = device.report;
    run.window_end_us = FlightSum(run.window_end_us, r.window_us());
    run.h2d_busy_us = FlightSum(run.h2d_busy_us, r.h2d_busy_us);
    run.d2h_busy_us = FlightSum(run.d2h_busy_us, r.d2h_busy_us);
    run.kernel_busy_us = FlightSum(run.kernel_busy_us, r.kernel_busy_us);
    run.copy_busy_us = FlightSum(run.copy_busy_us, r.copy_busy_us);
    run.overlapped_us = FlightSum(run.overlapped_us, r.overlapped_us);
    run.kernel_bound_us = FlightSum(run.kernel_bound_us, r.kernel_bound_us);
    run.h2d_bound_us = FlightSum(run.h2d_bound_us, r.h2d_bound_us);
    run.d2h_bound_us = FlightSum(run.d2h_bound_us, r.d2h_bound_us);
    run.bubble_us = FlightSum(run.bubble_us, r.bubble_us);
    run.h2d_bytes = FlightSum(run.h2d_bytes, r.h2d_bytes);
    run.d2h_bytes = FlightSum(run.d2h_bytes, r.d2h_bytes);
    run.kernel_flops = FlightSum(run.kernel_flops, r.kernel_flops);
    run.bubble_count += r.bubble_count;
    run.h2d_copies += r.h2d_copies;
    run.d2h_copies += r.d2h_copies;
    run.kernel_launches += r.kernel_launches;
    analysis.occupancy_high_water_bytes =
        std::max(analysis.occupancy_high_water_bytes,
                 device.occupancy_high_water_bytes);
  }
  return analysis;
}

void GpuTimelineAnalysis::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("devices");
  w->BeginArray();
  for (const GpuDeviceTimeline& device : devices) {
    w->BeginObject();
    w->Key("node");
    w->Value(device.node);
    w->Key("ordinal");
    w->Value(device.ordinal);
    w->Key("occupancy_high_water_bytes");
    w->Value(device.occupancy_high_water_bytes);
    w->Key("report");
    device.report.AppendJson(w);
    w->Key("cuboids");
    w->BeginArray();
    for (const auto& [cuboid_id, report] : device.cuboids) {
      w->BeginObject();
      w->Key("cuboid_id");
      w->Value(cuboid_id);
      w->Key("report");
      report.AppendJson(w);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->Key("run");
  run.AppendJson(w);
  w->Key("occupancy_high_water_bytes");
  w->Value(occupancy_high_water_bytes);
  w->EndObject();
}

std::string GpuTimelineAnalysis::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.str();
}

std::string GpuTimelineAnalysis::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  gpu: %zu device%s | window %s | kernel busy %.0f%% | "
                "overlap %.0f%% of copies | %lld bubble%s (%s)\n",
                devices.size(), devices.size() == 1 ? "" : "s",
                FormatSeconds(static_cast<double>(run.window_us()) * 1e-6)
                    .c_str(),
                run.kernel_utilization() * 100.0, run.overlap_ratio() * 100.0,
                static_cast<long long>(run.bubble_count),
                run.bubble_count == 1 ? "" : "s",
                FormatSeconds(static_cast<double>(run.bubble_us) * 1e-6)
                    .c_str());
  out += buf;
  const double window = static_cast<double>(run.window_us());
  auto pct = [window](int64_t us) {
    return window > 0 ? static_cast<double>(us) / window * 100.0 : 0.0;
  };
  std::snprintf(buf, sizeof(buf),
                "  gpu window (device clock): kernel-bound %.0f%% | "
                "h2d-bound %.0f%% | d2h-bound %.0f%% | bubble %.0f%%\n",
                pct(run.kernel_bound_us), pct(run.h2d_bound_us),
                pct(run.d2h_bound_us), pct(run.bubble_us));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  gpu pcie: %s/s effective of %s/s peak | occupancy high-water %s\n",
      FormatBytes(run.effective_pcie_bytes_per_sec()).c_str(),
      FormatBytes(run.pcie_peak_bytes_per_sec).c_str(),
      FormatBytes(static_cast<double>(occupancy_high_water_bytes)).c_str());
  out += buf;
  return out;
}

}  // namespace distme::obs
