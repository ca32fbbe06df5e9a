// SimExecutor: discrete-event execution of a distributed matrix
// multiplication at paper scale. Tasks are streamed from the method's plan;
// per-task communication, memory, and compute are derived from matrix
// descriptors and charged against the simulated cluster (Section 6.1
// testbed by default). Produces the O.O.M. / T.O. / E.D.C. outcomes the
// paper's figures annotate.

#pragma once

#include "cluster/config.h"
#include "common/result.h"
#include "engine/report.h"
#include "mm/method.h"
#include "obs/comm_matrix.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace distme::engine {

/// \brief Per-run knobs, mostly used by the comparator system models.
struct SimOptions {
  ComputeMode mode = ComputeMode::kCpu;
  /// Multiplier on repartition volume (SciDB re-partitions inputs into
  /// ScaLAPACK's block-cyclic layout before multiplying — Section 7).
  double repartition_factor = 1.0;
  /// Multiplier on resident memory for ResidentLocalMatrices methods
  /// (SciDB keeps an extra copy while converting arrays).
  double resident_memory_factor = 1.0;
  /// Generic efficiency factor applied to compute time (>1 = slower), used
  /// to model engine overheads of less optimized systems.
  double compute_overhead = 1.0;
  /// If true, map tasks must materialize their full C working set in memory
  /// instead of spilling incrementally to shuffle files (MatFast's naive
  /// CPMM — causes the O.O.M. walls of Figure 7(c)).
  bool materialize_map_outputs = false;
  /// Multiplier on θt for map-task memory checks: >1 models Spark's unified
  /// memory borrowing execution memory beyond the configured budget.
  double memory_slack = 1.0;
  /// Multiplier on the per-job fixed overhead (MPI systems like ScaLAPACK
  /// have near-zero job setup compared with Spark's driver/stage setup).
  double job_overhead_factor = 1.0;
  /// Fraction of the repartition (input fetch) step hidden behind compute,
  /// in [0, 1]. Models the real executor's prefetch pipeline: at depth > 0
  /// the fetch stage overlaps the multiply waves, so only the un-hidden
  /// remainder of the repartition time reaches the modelled timeline (it
  /// can never hide more than the multiply step itself). Repartition
  /// *bytes* are unchanged — the pipeline moves the same blocks, earlier.
  double fetch_overlap = 0.0;
  /// Longest-processing-time task scheduling: dispatch the heaviest tasks
  /// first instead of plan order. Implements the paper's future-work item
  /// on load balancing across cuboids of different sizes/sparsities;
  /// shrinks the wave-imbalance tail when task durations are skewed.
  bool lpt_scheduling = false;
  /// Optional metrics sink: per-run `distme.sim.*` counters/histograms.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-link shuffle accounting. The simulator has no real
  /// endpoints, so each task's modelled transfer volume is spread over the
  /// uniform-hash block homes: inputs arrive at the task's node (id % N)
  /// from all N sources, aggregation output leaves it toward all N
  /// reducers. Totals match the report's shuffle bytes (± rounding).
  obs::CommMatrix* comm = nullptr;
  /// Optional flight recorder. By default the simulator emits run-level
  /// events only (run_start with the task count, run_finish with the
  /// outcome) — paper-scale plans have millions of simulated tasks and
  /// per-task events would drown the ring.
  obs::FlightRecorder* flight = nullptr;
  /// If true (and `flight` is set), the simulator instead emits a full
  /// synthetic timeline ON THE SIMULATED CLOCK via RecordAt: run bounds,
  /// stage barriers (repartition / multiply / aggregation), and per-task
  /// start/finish placed by a replay of the wave schedule — so a sim dump
  /// feeds the same causal-analysis path as a real run. Per-task events
  /// are skipped (stages kept) when 2·tasks + 10 would overflow the ring.
  bool flight_task_events = false;
};

/// \brief Simulates one distributed matrix multiplication.
class SimExecutor {
 public:
  explicit SimExecutor(ClusterConfig config) : config_(std::move(config)) {}

  /// \brief Runs `method` on `problem`. Returns an MMReport whose `outcome`
  /// is OK or one of the resource-failure codes; a non-OK Result means the
  /// problem/method combination itself was invalid.
  [[nodiscard]] Result<MMReport> Run(const mm::MMProblem& problem, const mm::Method& method,
                       const SimOptions& options = {}) const;

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
};

/// \brief Estimated density of a product of two matrices with densities
/// `sa`, `sb` over an inner dimension of `inner` elements:
/// 1 − (1 − sa·sb)^inner.
double EstimateProductDensity(double sa, double sb, double inner);

}  // namespace distme::engine
