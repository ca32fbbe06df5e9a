// Session: the DistME public API. Create distributed matrices, multiply
// them (the planner picks the method — CuboidMM for DistME), transpose,
// combine element-wise, and collect results. Mirrors the Scala API the
// paper describes in Section 5, in eager form.

#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blas/block_ops.h"
#include "cluster/config.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/planner.h"
#include "engine/distributed_matrix.h"
#include "engine/explain.h"
#include "engine/real_executor.h"
#include "engine/report.h"
#include "engine/sim_executor.h"
#include "matrix/generator.h"
#include "obs/flight_recorder.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"

namespace distme::core {

/// \brief A handle to a distributed matrix owned by a Session.
class Matrix {
 public:
  Matrix() = default;

  const BlockedShape& shape() const { return data_->shape(); }
  int64_t rows() const { return data_->shape().rows; }
  int64_t cols() const { return data_->shape().cols; }

  /// \brief Gathers all blocks to a local grid (test scale only).
  BlockGrid Collect() const { return data_->Collect(); }

  /// \brief Planning descriptor (shape + measured sparsity).
  mm::MatrixDescriptor Descriptor() const { return data_->Descriptor(); }

  const engine::DistributedMatrix& distributed() const { return *data_; }

 private:
  friend class Session;
  explicit Matrix(std::shared_ptr<engine::DistributedMatrix> data)
      : data_(std::move(data)) {}
  std::shared_ptr<engine::DistributedMatrix> data_;
};

/// \brief An eager distributed matrix-computation session.
class Session {
 public:
  struct Options {
    ClusterConfig cluster = ClusterConfig::Local();
    /// Compute mode for local multiplication (Section 4's GPU streaming by
    /// default when the cluster has a GPU).
    engine::ComputeMode mode = engine::ComputeMode::kCpu;
    /// Method-selection policy; defaults to DistME's CuboidMM optimizer.
    std::shared_ptr<Planner> planner;
    engine::RealOptions real;
    /// Build an ExplainReport (predicted vs measured, straggler stats) for
    /// every multiplication from its MMReport and its own flight events, and
    /// set the `distme.gpu.*` overlap gauges of a GPU run from its analysis.
    /// Costs one ring snapshot and one pass over the run's flight events per
    /// run; turn off for overhead-sensitive micro-benchmarks.
    bool collect_explain = true;
    /// Flight-recorder ring capacity (events). Always on — recording is a
    /// few relaxed atomics per event — and the ring doubles as the crash
    /// post-mortem (it dumps to stderr on a fatal Result/Status abort) and
    /// as the source of WriteTrace(). A small multiply records a few dozen
    /// events; raise this for long sessions whose trace must not lose the
    /// oldest runs.
    size_t flight_recorder_capacity = 4096;
    /// When non-empty, a failed multiplication dumps the flight-recorder
    /// ring (JSON) to this path before the error Status surfaces.
    std::string flight_dump_path;
    /// When non-empty (and collect_explain is on), every multiplication
    /// (re)writes the last run's explain report — including the
    /// critical-path / bottleneck analysis — as JSON to this path.
    std::string analysis_json_path;
    /// HTTP scrape endpoint port on 127.0.0.1: -1 (the default) disables
    /// it, 0 binds an ephemeral port (read it back via http_port()).
    int http_port = -1;
  };

  explicit Session(Options options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const ClusterConfig& cluster() const { return options_.cluster; }

  /// \brief Distributes a local blocked matrix.
  [[nodiscard]] Result<Matrix> FromGrid(const BlockGrid& grid);

  /// \brief Generates a synthetic matrix directly in distributed form.
  [[nodiscard]] Result<Matrix> Generate(const GeneratorOptions& generator);

  /// \brief C = A × B using the session planner. The execution report is
  /// appended to history().
  [[nodiscard]] Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

  /// \brief C = A × B with an explicit method.
  [[nodiscard]] Result<Matrix> MultiplyWith(const Matrix& a, const Matrix& b,
                              const mm::Method& method);

  /// \brief Aᵀ (distributed transpose: block transpose + index swap).
  [[nodiscard]] Result<Matrix> Transpose(const Matrix& a);

  /// \brief Element-wise combine; shapes must match.
  [[nodiscard]] Result<Matrix> ElementWise(blas::ElementWiseOp op, const Matrix& a,
                             const Matrix& b, double epsilon = 0.0);

  /// \brief Multiplies every element by a scalar.
  [[nodiscard]] Result<Matrix> Scale(const Matrix& a, double factor);

  /// \brief Row sums as a rows×1 column vector (same block size).
  [[nodiscard]] Result<Matrix> RowSums(const Matrix& a);

  /// \brief Column sums as a 1×cols row vector.
  [[nodiscard]] Result<Matrix> ColSums(const Matrix& a);

  /// \brief Sum of all elements.
  [[nodiscard]] Result<double> Sum(const Matrix& a);

  /// \brief Frobenius norm, computed block-locally then reduced.
  [[nodiscard]] Result<double> FrobeniusNorm(const Matrix& a);

  /// \brief Checkpoints a matrix to `path` in the binary store format.
  [[nodiscard]] Status Save(const Matrix& a, const std::string& path);

  /// \brief Loads a matrix checkpointed with Save (or any binary store
  /// file) and distributes it across the session's nodes.
  [[nodiscard]] Result<Matrix> Load(const std::string& path);

  /// \brief Reports of every multiplication run in this session.
  const std::vector<engine::MMReport>& history() const { return history_; }
  void ClearHistory() { history_.clear(); }

  /// \brief The session-owned metrics registry; every executor run reports
  /// into it (`distme.*` names — see DESIGN.md "Observability").
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// \brief Writes the flight ring's retained window as Chrome trace-event
  /// JSON to `path` (load in chrome://tracing or https://ui.perfetto.dev):
  /// task attempts and their fetch/GPU waits per (node, slot), runs and
  /// stages on a driver track, device engine intervals per device. The
  /// oldest events are gone once the session has recorded more than
  /// Options::flight_recorder_capacity; the trace's `total_recorded` and
  /// `capacity` fields tell.
  [[nodiscard]] Status WriteTrace(const std::string& path) const;

  /// \brief Stage-level explain report of the most recent multiplication:
  /// predicted Table-2 bytes vs measured, per-stage timings, straggler
  /// percentiles, and the run's comm matrix. Errors if nothing has run or
  /// Options::collect_explain is off.
  [[nodiscard]] Result<engine::ExplainReport> ExplainLastRun() const;

  /// \brief The session-owned flight recorder (always on; see
  /// Options::flight_recorder_capacity).
  obs::FlightRecorder& flight() { return flight_; }
  const obs::FlightRecorder& flight() const { return flight_; }

  /// \brief The bound scrape-endpoint port, or -1 when the endpoint is off
  /// (Options::http_port < 0, or the bind failed — see the startup log).
  int http_port() const {
    return endpoint_ != nullptr ? endpoint_->port() : -1;
  }

 private:
  // The Session API itself is single-threaded (one driver thread calls
  // Multiply/Collect/...); the members below are shared only with the
  // endpoint thread, and each one that is states its mechanism.
  Options options_ DISTME_UNSHARED("driver-thread only; set in ctor");
  std::unique_ptr<engine::RealExecutor> executor_
      DISTME_UNSHARED("driver-thread only");
  std::vector<engine::MMReport> history_ DISTME_UNSHARED("driver-thread only");
  obs::MetricsRegistry metrics_
      DISTME_LOCKFREE("internally synchronized (registry mutex + atomics)");
  std::optional<engine::ExplainReport> last_explain_
      DISTME_UNSHARED("driver-thread only; endpoint reads the JSON atomics");
  // Last completed run's explain JSON for the endpoint's GET /explain.
  // Lock-free handoff: the run thread publishes a fresh immutable string,
  // the endpoint thread loads whatever is current (null before first run).
  std::atomic<std::shared_ptr<const std::string>> last_explain_json_;
  // Last run's GPU timeline analysis JSON for GET /gpu — the same
  // obs::GpuTimelineAnalysis the explain report embeds, so the two routes
  // (and distme_analyze --gpu on a dump) report identical numbers. Null
  // before the first run that recorded device interval events.
  std::atomic<std::shared_ptr<const std::string>> last_gpu_json_;
  // The endpoint is declared after the state it serves so reverse-order
  // destruction tears it down first; ~Session() also stops its thread
  // explicitly.
  obs::FlightRecorder flight_
      DISTME_LOCKFREE("internally synchronized (seqlock ring)");
  std::unique_ptr<obs::HttpEndpoint> endpoint_
      DISTME_UNSHARED("pointer set in ctor; pointee internally synchronized");
};

}  // namespace distme::core
