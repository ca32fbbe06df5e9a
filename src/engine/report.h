// MMReport: what executing one distributed matrix multiplication produced —
// outcome, per-step timing, and communication counters. Shared by the
// simulated and real executors.

#pragma once

#include <string>

#include "common/status.h"
#include "obs/comm_matrix.h"
#include "obs/metrics.h"

namespace distme::engine {

/// \brief How the computation device was chosen.
enum class ComputeMode {
  kCpu,          ///< CPU kernels only (the "(C)" variants in the paper)
  kGpuStreaming, ///< cuboid-level GPU streaming (DistME(G), Section 4)
  kGpuBlock,     ///< block-level GPU without streaming (RMM / modified
                 ///< SystemML(G) / MatFast(G))
};

const char* ComputeModeName(ComputeMode mode);

/// \brief Timing of the three steps of distributed matrix multiplication.
struct StepBreakdown {
  double repartition_seconds = 0;
  double multiply_seconds = 0;
  double aggregation_seconds = 0;

  double total() const {
    return repartition_seconds + multiply_seconds + aggregation_seconds;
  }
};

/// \brief Counters from the prefetch pipeline (real executor, depth > 0).
struct PipelineStats {
  /// Configured prefetch depth k (0 = every attempt fetches inline).
  int64_t prefetch_depth = 0;
  /// Task pops that found staged inputs already waiting (no stall).
  int64_t prefetch_hits = 0;
  /// Task pops that had to wait for the fetch threads.
  int64_t prefetch_stalls = 0;
  /// Total time compute spent stalled waiting on the fetch threads.
  double stall_seconds = 0;
  /// Prefetches delayed by the per-node staging-memory gate.
  int64_t backpressure_waits = 0;
  /// Maximum occupancy of the shared staging queue (at most k × workers).
  int64_t queue_high_water = 0;
};

/// \brief Full execution report.
struct MMReport {
  /// OK, OutOfMemory (O.O.M.), Timeout (T.O.), or ExceedsDiskCapacity
  /// (E.D.C.) — the failure modes annotated in the paper's figures.
  Status outcome;
  std::string method_name;
  ComputeMode mode = ComputeMode::kCpu;

  double elapsed_seconds = 0;  ///< end-to-end (includes job overhead)
  StepBreakdown steps;

  double repartition_bytes = 0;  ///< network bytes, matrix repartition step
  double aggregation_bytes = 0;  ///< network bytes, matrix aggregation step
  double total_shuffle_bytes() const {
    return repartition_bytes + aggregation_bytes;
  }

  int64_t num_tasks = 0;
  /// Task attempts beyond the first (fault-injected runs; real executor).
  int64_t task_retries = 0;
  double peak_task_memory_bytes = 0;
  double total_flops = 0;
  double pcie_bytes = 0;        ///< host<->device traffic (GPU modes)
  double gpu_utilization = 0;   ///< kernel-busy fraction of the multiply step
  PipelineStats pipeline;       ///< prefetch pipeline counters (real executor)
  /// This run's per-link traffic over the cluster's nodes, from the
  /// CommMatrix the executor builds for the run, failed runs included. The
  /// byte fields above are its stage totals (the real executor's exactly;
  /// the simulator's up to its per-node rounding).
  obs::CommMatrixSnapshot comm;

  /// \brief Short outcome label for bench tables: "123.4s" or "O.O.M." etc.
  std::string OutcomeLabel() const;
};

/// \brief Sets the `distme.comm.*` per-link summary gauges from one run's
/// comm matrix (MMReport::comm).
void SetCommGauges(const obs::CommMatrixSnapshot& comm,
                   obs::MetricsRegistry* metrics);

}  // namespace distme::engine
