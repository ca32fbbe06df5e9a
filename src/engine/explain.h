// ExplainReport: the stage-level "EXPLAIN ANALYZE" of one distributed matrix
// multiplication. For each of the paper's three steps (repartition, local
// multiply, aggregation) it pairs the planner's predicted Table-2 cost with
// what the executor measured — wall time, bytes, task counts, straggler
// percentiles — plus this run's communication matrix. It reads one run's
// record only: its MMReport and its own flight events. Renders as an aligned
// text table (for humans) and as JSON (for tooling), alongside the plain
// MMReport.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "common/result.h"
#include "engine/report.h"
#include "mm/method.h"
#include "obs/comm_matrix.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_timeline.h"

namespace distme::engine {

/// \brief One execution stage: prediction vs measurement.
struct ExplainStageRow {
  std::string stage;
  /// Table-2 prediction (elements × 8); repartition/aggregation only.
  double predicted_bytes = 0;
  bool has_prediction = false;
  double measured_bytes = 0;
  double measured_seconds = 0;
};

/// \brief Straggler statistics over this run's task spans: finish − start
/// of each task's finishing attempt, from the run's flight events. The
/// percentiles are nearest-rank, so each is one task's exact span; they
/// stay 0 without flight events.
struct ExplainTaskStats {
  int64_t count = 0;  ///< planned tasks (MMReport::num_tasks)
  int64_t retries = 0;
  double p50_seconds = 0;
  double p95_seconds = 0;
  double max_seconds = 0;
  /// p95 over p50: 1.0 = perfectly uniform tasks, higher = a straggler tail.
  double straggler_ratio = 0;
};

/// \brief Stage-level explain report of one run.
struct ExplainReport {
  std::string method_name;
  std::string mode;
  std::string outcome;
  /// The failed run's Status text; empty when the run succeeded.
  std::string error;
  double elapsed_seconds = 0;
  double total_flops = 0;      ///< MMReport::total_flops
  double pcie_bytes = 0;       ///< MMReport::pcie_bytes (GPU modes)
  double gpu_utilization = 0;  ///< MMReport::gpu_utilization (GPU modes)

  std::vector<ExplainStageRow> stages;
  double predicted_total_bytes() const;
  double measured_total_bytes() const;

  double predicted_task_memory_bytes = 0;
  double measured_peak_task_memory_bytes = 0;

  ExplainTaskStats tasks;

  /// This run's per-link traffic over the cluster's nodes, MMReport::comm.
  obs::CommMatrixSnapshot comm;

  /// Critical-path analysis of the run's causal DAG (only when flight
  /// events were supplied to BuildExplainReport and held a complete run).
  /// Its `gpu` bucket is wall-clock time blocked on the device.
  bool has_critical_path = false;
  obs::CriticalPathAnalysis critical_path;

  /// Prefetch-pipeline counters (only when the run executed with
  /// prefetch_depth > 0): how often compute found staged inputs waiting vs
  /// stalled on the fetch stage, and how hard the staging-memory gate
  /// pushed back.
  bool has_pipeline = false;
  PipelineStats pipeline;

  /// GPU pipeline overlap analysis on the device clock (only when flight
  /// events were supplied and contained device interval events). It and
  /// the critical path come from obs::AnalyzeRun, as `GET /gpu` and
  /// `distme_analyze` do, so all of them report identical numbers for one
  /// run.
  bool has_gpu = false;
  obs::GpuTimelineAnalysis gpu;

  /// \brief Aligned text table: stage rows, task/straggler summary, the
  /// comm-matrix summary line, then the critical-path and GPU sections in
  /// their obs ToText() renderings.
  std::string ToTable() const;
  std::string ToJson() const;
};

/// \brief Combines the executed `report` with the method's Table-2
/// prediction for `problem` on `cluster`. `flight_events` are the run's own
/// flight events (for Session, the ring's events recorded since the run
/// began): when they hold a complete run, obs::AnalyzeRun supplies the
/// straggler percentiles, the critical path and the GPU section. Fails only
/// if the problem itself is invalid for the method's analytic model.
[[nodiscard]] Result<ExplainReport> BuildExplainReport(
    const MMReport& report, const mm::Method& method,
    const mm::MMProblem& problem, const ClusterConfig& cluster,
    std::span<const obs::FlightEvent> flight_events = {});

}  // namespace distme::engine
