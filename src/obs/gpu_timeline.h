// GPU pipeline observability: reconstructs per-engine device timelines from
// flight-recorder schema-3 interval events (gpu_h2d / gpu_d2h / gpu_kernel
// begin/end pairs + gpu_alloc occupancy marks) and computes overlap reports —
// the Nsight-Systems-shaped view of whether CuboidMM's streaming actually
// overlaps PCI-E copies with kernels, where the pipeline bubbles are, and how
// close a run sits to the PCI-E roofline.
//
// Exactness contract (checked by gpu_timeline_test):
//   - For every engine, busy + idle tiles the device-active window exactly.
//   - The exclusive four-bucket decomposition {kernel-bound, h2d-bound,
//     d2h-bound, bubble} tiles the window exactly (priority kernel > h2d >
//     d2h when engines overlap), so attribution never double-counts.
//   - overlapped ≤ min(copy-busy, kernel-busy) by construction.
// All arithmetic is integer µs on the device's virtual clock, which the
// wall-clock critical path (obs/critical_path.h) does not share: its `gpu`
// bucket stays one wall-clock figure. `GET /gpu`, the explain GPU section
// and `distme_analyze --gpu` all print this one analysis (through
// obs::AnalyzeRun), so they agree for one run.

#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/flight_recorder.h"

namespace distme::obs {

// ---------------------------------------------------------------------------
// Event tag packing. The flight-event `b` field of every GPU interval event
// carries a packed (device ordinal, cuboid id, subcuboid index) triple:
//   bits 48..55  device ordinal within its node (0..255)
//   bits 24..47  cuboid id (a process-wide counter; kGpuNoCuboidId = untagged)
//   bits  0..23  subcuboid index within the cuboid
// The streaming path packs (cuboid, sub) with ordinal 0 and the device ORs
// its own ordinal in at emission time (GpuTagWithOrdinal).

/// \brief Sentinel cuboid-id field value for untagged (block-level) work.
inline constexpr int64_t kGpuNoCuboidId = (int64_t{1} << 24) - 1;

/// \brief Packs a (ordinal, cuboid, sub_index) triple into an event tag.
/// Fields are masked to their widths; a negative `cuboid_id` packs the
/// untagged sentinel.
int64_t PackGpuTag(int32_t ordinal, int64_t cuboid_id, int64_t sub_index);

/// \brief Replaces the ordinal byte of `tag` with `ordinal` (the device
/// stamps its identity onto caller-supplied tags).
int64_t GpuTagWithOrdinal(int32_t ordinal, int64_t tag);

/// \brief Decoded event tag. `cuboid_id` is -1 for untagged work.
struct GpuTag {
  int32_t ordinal = 0;
  int64_t cuboid_id = -1;
  int64_t sub_index = 0;
};

GpuTag UnpackGpuTag(int64_t packed);

// ---------------------------------------------------------------------------

/// \brief The three serial engines of a device: copy-in, copy-out, compute.
enum class GpuEngine : uint8_t { kH2d = 0, kD2h, kKernel, kNumEngines };

/// \brief Stable lowercase name ("h2d", "d2h", "kernel").
const char* GpuEngineName(GpuEngine engine);

/// \brief One reconstructed engine interval on a device's virtual clock.
struct GpuInterval {
  GpuEngine engine = GpuEngine::kH2d;
  int32_t stream = -1;    ///< stream id the operation was enqueued on
  int64_t begin_us = 0;   ///< device virtual clock, µs
  int64_t end_us = 0;     ///< ≥ begin_us (µs rounding can make it equal)
  int64_t payload = 0;    ///< bytes (copies) or flops (kernels)
  int64_t cuboid_id = -1; ///< -1 = untagged (block-level) work
  int64_t sub_index = 0;  ///< subcuboid index within the cuboid
};

/// \brief Copy/compute overlap accounting over one set of intervals (a
/// device window, one cuboid, or the whole-run aggregate).
struct OverlapReport {
  int64_t window_begin_us = 0;  ///< min interval begin
  int64_t window_end_us = 0;    ///< max interval end

  // Per-engine busy time. Engines serialize their intervals, so busy is
  // both the union measure and the sum of interval lengths.
  int64_t h2d_busy_us = 0;
  int64_t d2h_busy_us = 0;
  int64_t kernel_busy_us = 0;

  int64_t copy_busy_us = 0;   ///< measure(h2d ∪ d2h active)
  int64_t overlapped_us = 0;  ///< measure(copy active ∩ kernel active)

  // Exclusive window decomposition (priority kernel > h2d > d2h > bubble):
  // the four buckets tile [window_begin_us, window_end_us] exactly.
  int64_t kernel_bound_us = 0;
  int64_t h2d_bound_us = 0;
  int64_t d2h_bound_us = 0;
  int64_t bubble_us = 0;

  int64_t bubble_count = 0;  ///< number of idle gaps inside the window
  /// The idle gaps themselves, sorted ([begin_us, end_us) pairs). Empty on
  /// cross-device aggregates, where a single wall interval is meaningless.
  std::vector<std::pair<int64_t, int64_t>> bubbles;

  int64_t h2d_bytes = 0;
  int64_t d2h_bytes = 0;
  int64_t kernel_flops = 0;
  int64_t h2d_copies = 0;
  int64_t d2h_copies = 0;
  int64_t kernel_launches = 0;

  /// Configured PCI-E peak (bytes/s) for the roofline comparison; 0 when
  /// the caller has no hardware model at hand.
  double pcie_peak_bytes_per_sec = 0.0;

  int64_t window_us() const { return window_end_us - window_begin_us; }
  /// overlapped / min(copy_busy, kernel_busy); 0 when either is idle.
  double overlap_ratio() const;
  /// kernel_busy / window; 0 on an empty window.
  double kernel_utilization() const;
  /// (h2d_bytes + d2h_bytes) / copy_busy — the achieved PCI-E bandwidth.
  double effective_pcie_bytes_per_sec() const;

  /// \brief Appends this report as one JSON object (at most 64 bubble
  /// intervals are listed; `bubble_count` is always the true count).
  void AppendJson(JsonWriter* writer) const;
};

/// \brief One device's reconstructed timeline plus its reports.
struct GpuDeviceTimeline {
  int32_t node = -1;
  int32_t ordinal = 0;
  std::vector<GpuInterval> intervals;  ///< sorted by (begin, end)
  OverlapReport report;                ///< over the device-active window
  std::map<int64_t, OverlapReport> cuboids;  ///< per cuboid id
  int64_t occupancy_high_water_bytes = 0;    ///< max gpu_alloc `a` seen
};

/// \brief Whole-run analysis across every device that emitted events.
struct GpuTimelineAnalysis {
  std::vector<GpuDeviceTimeline> devices;  ///< sorted by (node, ordinal)
  /// Aggregate over all devices: busy/bound/byte fields are sums and the
  /// window is the *sum of device-active windows* (window_begin_us is 0),
  /// so the tiling invariant and overlapped ≤ min(copy, kernel) still hold.
  OverlapReport run;
  int64_t occupancy_high_water_bytes = 0;  ///< max over devices

  bool empty() const { return devices.empty(); }
  void AppendJson(JsonWriter* writer) const;
  std::string ToJson() const;
  /// \brief Indented text report: the run aggregate (window, busy, overlap,
  /// bubbles), its window split, and PCI-E against the peak — all on the
  /// device clock.
  std::string ToText() const;
};

/// \brief Reconstructs per-engine timelines and overlap reports from every
/// GPU event in `events`. The device virtual clock persists across runs, so
/// to describe one run pass that run's events (obs::AnalyzeRun passes the
/// slice LastCompleteRun cuts).
GpuTimelineAnalysis AnalyzeGpuTimeline(std::span<const FlightEvent> events,
                                       double pcie_peak_bytes_per_sec = 0.0);

}  // namespace distme::obs
