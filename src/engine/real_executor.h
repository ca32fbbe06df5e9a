// RealExecutor: runs a distributed matrix-multiplication plan for real on an
// in-process cluster — one thread per task slot, per-node block stores,
// serialized transfers across "nodes", per-task memory tracking, and
// (optionally) the software GPU. Used to validate that every method computes
// the same product and that the analytic communication model matches
// measured bytes.

#pragma once

#include <memory>
#include <string>

#include "cluster/config.h"
#include "common/result.h"
#include "engine/distributed_matrix.h"
#include "engine/report.h"
#include "mm/method.h"
#include "obs/comm_matrix.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace distme::engine {

/// \brief Where fault injection strikes within a task attempt. All three
/// points are before the attempt's commit, so retries stay exact; they
/// differ in which pipeline state the crashed attempt abandons.
enum class FaultPoint {
  /// After compute, just before the buffered outputs commit (legacy).
  kBeforeCommit,
  /// During input fetch, after the first block has landed — a crashed
  /// attempt must release its in-flight prefetched blocks.
  kMidPrefetch,
  /// After fetch completes, before compute starts — the fetched inputs
  /// (and their memory reservations) die with the attempt.
  kBeforeCompute,
};

/// \brief Options for real execution.
struct RealOptions {
  ComputeMode mode = ComputeMode::kCpu;
  /// Enforce the per-task memory budget θt with MemoryTracker (turn off for
  /// plain correctness tests on tiny clusters).
  bool enforce_task_memory = false;
  /// Verify that blocks crossing nodes survive a serialize/deserialize
  /// round trip (exercises matrix/serialize.cc; slightly slower).
  bool serialize_transfers = true;
  /// Dispatch the heaviest tasks (most voxels) first — the load-balancing
  /// extension from the paper's future work. Changes only scheduling order,
  /// never results.
  bool lpt_scheduling = false;
  /// Fault injection: probability that any given task *attempt* crashes
  /// just before committing its outputs (deterministic per (task, attempt)).
  /// Tasks buffer their outputs and commit atomically, so retries are safe
  /// — the engine's stand-in for Spark's lineage-based task recovery.
  double task_failure_rate = 0.0;
  /// Attempts per task before the job fails (Spark's spark.task.maxFailures
  /// defaults to 4).
  int max_task_attempts = 4;
  /// Which point of an attempt the injected crash strikes (ignored when
  /// task_failure_rate == 0). The crash decision itself stays a pure
  /// function of (task id, attempt), so retry counts are identical across
  /// fault points and prefetch depths.
  FaultPoint fault_point = FaultPoint::kBeforeCommit;
  /// Prefetch pipeline depth k: at k > 0 one fetch thread per worker stages
  /// the inputs of upcoming tasks' first attempts into one shared queue of
  /// k × workers entries, which any idle worker pops, so fetch overlaps
  /// compute. 0 (the default) fetches every attempt's inputs inline.
  /// Outputs commit inline at every depth, and retries always refetch
  /// inline. Results are bit-identical across depths: aggregation merges
  /// partials in deterministic k-order regardless of arrival order.
  int prefetch_depth = 0;
  /// Per-node byte budget for blocks staged ahead of compute (the
  /// prefetch backpressure gate); new prefetches are admitted only while
  /// staged bytes are at or under the budget. 0 = the cluster's node
  /// memory budget.
  int64_t prefetch_staging_bytes = 0;
  /// Metrics registry the run reports into (e.g. the owning Session's).
  /// When null, the executor uses a private per-run registry; either way the
  /// MMReport counters are derived from registry instruments.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-link shuffle accounting: every remote block fetch (repartition) and
  /// cross-node aggregation emit is recorded with its true (src, dst)
  /// endpoints. Null (the default) costs one branch per transfer.
  obs::CommMatrix* comm = nullptr;
  /// Flight recorder: run/task lifecycle, stage barriers, wait edges and
  /// GPU device intervals land in its ring. Null (the default) costs one
  /// branch per would-be event.
  obs::FlightRecorder* flight = nullptr;
  /// When non-empty and the run fails, the flight-recorder ring is dumped
  /// (JSON) to this path — the post-mortem for an injected or real crash.
  std::string flight_dump_path;
};

/// \brief Result of a real run: the product matrix plus the report.
struct RealRunResult {
  MMReport report;
  std::shared_ptr<DistributedMatrix> output;
};

class RealExecutor {
 public:
  explicit RealExecutor(ClusterConfig config);
  ~RealExecutor();

  /// \brief Computes C = A × B with `method`. A and B must share block size.
  [[nodiscard]] Result<RealRunResult> Run(const DistributedMatrix& a,
                            const DistributedMatrix& b,
                            const mm::Method& method,
                            const RealOptions& options = {});

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace distme::engine
