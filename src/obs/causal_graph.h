// CausalGraph: a run reconstructed as a weighted task DAG from a
// flight-recorder snapshot. The executors emit plain events (task start /
// finish, stage begin / end) plus `kDepEdge` blocked-time edges; this
// module folds the event stream back into per-task nodes with a
// blocked-time decomposition and per-stage barrier intervals. It is the
// input to the critical-path analysis (obs/critical_path.h), live and in
// the distme_analyze tool alike.

#pragma once

#include <cstdint>
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

/// \brief A run decoded from a flight snapshot: run bounds, completed
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

/// \brief Reconstructs the LAST complete run present in `events` (a ring
/// snapshot may hold several runs; analysis always targets the most
/// recent kRunStart...kRunFinish pair). Tasks whose start was overwritten
/// by ring wrap fall back to `finish - b` (kTaskFinish carries the
/// attempt's duration in `b`); tasks with no finish event are dropped.
/// Returns an empty graph (wall_us() == 0) if no complete run is found.
CausalGraph BuildCausalGraph(const std::vector<FlightEvent>& events);

}  // namespace distme::obs
