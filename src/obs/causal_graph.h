// CausalGraph: a run reconstructed as a weighted task DAG from a
// flight-recorder snapshot. The executors emit plain events (task start /
// finish, stage begin / end) plus `fetch_wait` / `gpu_wait` blocked-time
// edges; this module folds the event stream back into per-task nodes with a
// blocked-time decomposition and per-stage barrier intervals. It is the
// input to the critical-path analysis (obs/critical_path.h), live and in
// the distme_analyze tool alike.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace distme::obs {

/// \brief One task of the reconstructed run: its placement, its observed
/// interval, and how much of that interval each blocked-time edge kind
/// accounts for.
struct CausalTask {
  int64_t task_id = -1;
  int32_t node = -1;
  int32_t slot = -1;
  int64_t start_us = 0;   ///< last attempt's kTaskStart timestamp
  int64_t finish_us = 0;  ///< kTaskFinish timestamp
  int64_t fetch_wait_us = 0;  ///< Σ kFetchWait edges of the last attempt
  int64_t gpu_wait_us = 0;    ///< Σ kGpuWait edges of the last attempt
  int32_t attempts = 0;

  int64_t span_us() const { return finish_us - start_us; }
};

/// \brief One stage barrier interval ("repartition", "aggregation", ...).
struct CausalStage {
  std::string name;
  int64_t begin_us = 0;
  int64_t end_us = 0;

  int64_t span_us() const { return end_us - begin_us; }
};

/// \brief A run decoded from its flight events: run bounds, completed
/// tasks (ordered by finish time), and stage intervals.
struct CausalGraph {
  int64_t run_start_us = 0;
  int64_t run_finish_us = 0;
  int64_t planned_tasks = 0;  ///< from kRunStart's `a` field
  bool run_ok = false;        ///< kRunFinish seen with b == 0 (success)
  std::vector<CausalTask> tasks;
  std::vector<CausalStage> stages;

  int64_t wall_us() const { return run_finish_us - run_start_us; }
};

/// \brief The last complete run in `events`: the slice from the last
/// kRunStart before the last kRunFinish through that kRunFinish. A ring
/// snapshot may hold several runs, or the tail of a wrapped one; analysis
/// always targets the most recent complete run. Empty when there is none.
/// This is the one run cut: obs::AnalyzeRun makes it and hands the slice to
/// both BuildCausalGraph and AnalyzeGpuTimeline.
std::span<const FlightEvent> LastCompleteRun(
    std::span<const FlightEvent> events);

/// \brief Reconstructs the run `run` holds: a slice that opens with its
/// kRunStart and closes with its kRunFinish, as LastCompleteRun cuts it
/// (an empty graph, wall_us() == 0, for any other slice). Tasks whose start
/// was overwritten by ring wrap fall back to `finish - b` (kTaskFinish
/// carries the attempt's duration in `b`); tasks with no finish event are
/// dropped.
CausalGraph BuildCausalGraph(std::span<const FlightEvent> run);

}  // namespace distme::obs
