// Critical-path analysis over a CausalGraph: which chain of work bound the
// run's wall-clock time, and what resource each hop of that chain was
// waiting on. The walk starts at run-finish and repeatedly follows the
// *binding predecessor* — the latest-ending thing that had to complete
// before the cursor instant — so the emitted hops tile [run_start,
// run_finish] exactly and the path length equals the run's wall time by
// construction (the consistency check ExplainReport surfaces).
//
// Per-task blocked-time decomposition: a task's span (finish − ready) is
// split into slot_wait (ready but no worker slot) + fetch_wait (remote
// input blocks) + gpu_wait (GPU transfer/kernel) + exec (the remainder,
// actual compute). The components sum to the span identically — asserted
// in tests, relied on by the attribution rollup.
//
// AnalyzeRun is the one events → analysis pipeline and ToText the one text
// rendering: explain, GET /explain, GET /gpu and the distme_analyze tool all
// go through them, so they report the same numbers for one run.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/causal_graph.h"
#include "obs/export.h"
#include "obs/gpu_timeline.h"

namespace distme::obs {

/// \brief Hops listed by the text report, and compared by the run diff.
inline constexpr size_t kTopHops = 5;

/// \brief One task's span decomposed into blocked-time components.
/// Invariant: slot_wait + fetch_wait + gpu_wait + exec == finish − ready.
struct TaskBlockedTime {
  int64_t task_id = -1;
  int32_t node = -1;
  int32_t slot = -1;
  int64_t ready_us = 0;   ///< when the task could first have started
  int64_t start_us = 0;
  int64_t finish_us = 0;
  int64_t slot_wait_us = 0;
  int64_t fetch_wait_us = 0;
  int64_t gpu_wait_us = 0;
  int64_t exec_us = 0;

  int64_t span_us() const { return finish_us - ready_us; }
  int64_t components_us() const {
    return slot_wait_us + fetch_wait_us + gpu_wait_us + exec_us;
  }
};

/// \brief One hop of the critical path: a contiguous interval of the run
/// attributed to a resource bucket.
struct CriticalHop {
  std::string label;     ///< "task 12 exec", "stage repartition", "overhead"
  std::string resource;  ///< shuffle | compute | gpu | scheduling | overhead
  int64_t task_id = -1;  ///< -1 for stage / gap hops
  int64_t begin_us = 0;
  int64_t end_us = 0;

  int64_t duration_us() const { return end_us - begin_us; }
};

/// \brief The full analysis: critical path, per-task decomposition, and
/// the per-resource / per-stage rollups.
struct CriticalPathAnalysis {
  int64_t wall_us = 0;  ///< run_finish − run_start from the graph
  int64_t path_us = 0;  ///< Σ hop durations; == wall_us by construction
  bool run_ok = false;
  std::vector<CriticalHop> hops;       ///< oldest-first, tiling the run
  std::vector<TaskBlockedTime> tasks;  ///< every completed task
  /// Critical-path µs per resource bucket (the "61% shuffle-bound" rollup).
  std::map<std::string, int64_t> attribution_us;
  /// Total span µs per stage-barrier name ("repartition", ...).
  std::map<std::string, int64_t> stage_us;
  /// Fleet-wide µs per blocked-time component, summed over ALL tasks
  /// (not just the path) — separates "the path was shuffle-bound" from
  /// "everyone was shuffle-bound".
  std::map<std::string, int64_t> aggregate_us;

  /// \brief Resource bucket with the largest critical-path attribution
  /// ("" for an empty analysis).
  std::string bottleneck() const;
  /// \brief bottleneck()'s share of the path (0 if empty).
  double bottleneck_fraction() const;

  /// \brief The kTopHops longest hops, longest first (ties in path order).
  std::vector<const CriticalHop*> TopHops() const;

  void AppendJson(JsonWriter* writer) const;
  std::string ToJson() const;
  /// \brief Indented text report: path and bottleneck, path attribution,
  /// stage spans, and the top hops.
  std::string ToText() const;
};

/// \brief Runs the analysis. An empty graph yields an empty analysis
/// (wall_us == 0, no hops).
///
/// When `gpu_split` is non-null (window fractions from a GPU overlap
/// report, see obs/gpu_timeline.h), the opaque "gpu" attribution bucket is
/// apportioned into {gpu-kernel, gpu-h2d, gpu-d2h, gpu-bubble} by the
/// device-window fractions, using largest-remainder rounding so the split
/// pieces sum to the original "gpu" µs exactly (path_us is unchanged).
/// Individual hops keep the "gpu" resource label; only the rollup splits.
CriticalPathAnalysis AnalyzeCriticalPath(
    const CausalGraph& graph, const GpuWindowFractions* gpu_split = nullptr);

/// \brief A run's analyses from its flight events: the GPU overlap analysis
/// of its device intervals, and the critical path of its last complete run
/// with the "gpu" bucket split by that analysis' window fractions.
struct RunAnalysis {
  GpuTimelineAnalysis gpu;
  CriticalPathAnalysis critical_path;
};

/// \brief Runs events → GPU timeline → window split → critical path.
/// `pcie_peak_bytes_per_sec` is the roofline the GPU copies are held to.
RunAnalysis AnalyzeRun(const std::vector<FlightEvent>& events,
                       double pcie_peak_bytes_per_sec);

/// \brief What changed between two runs of one workload.
struct CriticalPathDiff {
  int64_t wall_before_us = 0;
  int64_t wall_after_us = 0;
  std::string bottleneck_before;
  std::string bottleneck_after;
  double fraction_before = 0.0;  ///< bottleneck share of the path
  double fraction_after = 0.0;
  /// after − before, for every resource / stage present in either run.
  std::map<std::string, int64_t> attribution_delta_us;
  std::map<std::string, int64_t> stage_delta_us;
  /// Top-hop churn: labels among `after`'s top hops but not `before`'s,
  /// and the reverse.
  std::vector<std::string> hops_entered;
  std::vector<std::string> hops_left;

  bool stable() const { return bottleneck_before == bottleneck_after; }
  /// \brief Indented text: wall, bottleneck [stable]/[CHANGED], attribution
  /// and stage deltas, top-hop churn.
  std::string ToText() const;
};

CriticalPathDiff DiffCriticalPaths(const CriticalPathAnalysis& before,
                                   const CriticalPathAnalysis& after);

}  // namespace distme::obs
