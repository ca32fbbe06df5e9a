#include "core/session.h"

#include <atomic>
#include <cmath>

#include "blas/local_mm.h"
#include "common/logging.h"
#include "matrix/store.h"
#include "obs/export.h"
#include "obs/prom_export.h"

namespace distme::core {

namespace {

// The `distme.gpu.*` overlap gauges of one GPU run, from the analysis its
// explain report carries, so /metrics, /explain and /gpu agree.
void SetGpuOverlapGauges(const obs::GpuTimelineAnalysis& gpu,
                         obs::MetricsRegistry* metrics) {
  const obs::OverlapReport& run = gpu.run;
  metrics->GetGauge("distme.gpu.window_us")->Set(run.window_us());
  metrics->GetGauge("distme.gpu.h2d_busy_us")->Set(run.h2d_busy_us);
  metrics->GetGauge("distme.gpu.d2h_busy_us")->Set(run.d2h_busy_us);
  metrics->GetGauge("distme.gpu.kernel_busy_us")->Set(run.kernel_busy_us);
  metrics->GetGauge("distme.gpu.overlapped_us")->Set(run.overlapped_us);
  metrics->GetGauge("distme.gpu.bubble_us")->Set(run.bubble_us);
  metrics->GetGauge("distme.gpu.overlap_permille")
      ->Set(static_cast<int64_t>(run.overlap_ratio() * 1000.0));
  metrics->GetGauge("distme.gpu.effective_pcie_bytes_per_sec")
      ->Set(static_cast<int64_t>(run.effective_pcie_bytes_per_sec()));
  metrics->GetGauge("distme.gpu.occupancy_high_water_bytes")
      ->Set(gpu.occupancy_high_water_bytes);
}

}  // namespace

Session::Session(Options options)
    : options_(std::move(options)),
      flight_(options_.flight_recorder_capacity) {
  if (!options_.planner) {
    options_.planner = std::make_shared<DistmePlanner>();
  }
  executor_ = std::make_unique<engine::RealExecutor>(options_.cluster);
  // A fatal Result/Status abort anywhere in the process dumps this ring to
  // stderr — the crash leaves a telemetry trail.
  flight_.InstallFatalDump();
  if (options_.http_port >= 0) {
    endpoint_ = std::make_unique<obs::HttpEndpoint>(
        [this](const std::string& path) {
          obs::HttpResponse response;
          if (path == "/metrics" || path == "/") {
            response.content_type =
                "text/plain; version=0.0.4; charset=utf-8";
            response.body = obs::PrometheusText(metrics_.Snapshot());
          } else if (path == "/flight") {
            response.content_type = "application/json";
            response.body = flight_.ToJson();
          } else if (path == "/explain") {
            const std::shared_ptr<const std::string> explain =
                last_explain_json_.load(std::memory_order_acquire);
            if (explain == nullptr) {
              response.status = 404;
              response.body = "no completed run yet\n";
            } else {
              response.content_type = "application/json";
              response.body = *explain;
            }
          } else if (path == "/gpu") {
            const std::shared_ptr<const std::string> gpu =
                last_gpu_json_.load(std::memory_order_acquire);
            if (gpu == nullptr) {
              response.status = 404;
              response.body = "no run with GPU device events yet\n";
            } else {
              response.content_type = "application/json";
              response.body = *gpu;
            }
          } else if (path == "/healthz") {
            response.body = "ok\n";
          } else {
            response.status = 404;
            response.body = "not found\n";
          }
          return response;
        });
    const Status started = endpoint_->Start(options_.http_port);
    if (started.ok()) {
      DISTME_LOG(Info) << "telemetry endpoint on 127.0.0.1:"
                       << endpoint_->port()
                       << " (/metrics, /flight, /explain, /gpu)";
    } else {
      DISTME_LOG(Warning) << "telemetry endpoint disabled: "
                          << started.ToString();
      endpoint_.reset();
    }
  }
}

Session::~Session() {
  // Shutdown ordering: the endpoint's handler reads the registry and the
  // flight ring — stop its thread before any observed state goes away, then
  // detach the fatal-dump hook (it must not fire against a dead ring).
  if (endpoint_ != nullptr) endpoint_->Stop();
  flight_.UninstallFatalDump();
}

Result<Matrix> Session::FromGrid(const BlockGrid& grid) {
  auto dist = std::make_shared<engine::DistributedMatrix>(
      engine::DistributedMatrix::FromGridHashed(grid,
                                                options_.cluster.num_nodes));
  return Matrix(std::move(dist));
}

Result<Matrix> Session::Generate(const GeneratorOptions& generator) {
  // Each block is generated independently at its home node — no central
  // materialization, as the real system would do with parallelize().
  auto dist = std::make_shared<engine::DistributedMatrix>(
      BlockedShape{generator.rows, generator.cols, generator.block_size},
      options_.cluster.num_nodes,
      engine::Partitioner::Hash(options_.cluster.num_nodes));
  const int64_t block_rows = dist->shape().block_rows();
  const int64_t block_cols = dist->shape().block_cols();
  for (int64_t i = 0; i < block_rows; ++i) {
    for (int64_t j = 0; j < block_cols; ++j) {
      Block b = GenerateUniformBlock(generator, i, j);
      if (b.nnz() > 0) {
        DISTME_RETURN_NOT_OK(dist->Put({i, j}, std::move(b)));
      }
    }
  }
  return Matrix(std::move(dist));
}

Result<Matrix> Session::Multiply(const Matrix& a, const Matrix& b) {
  mm::MMProblem problem{a.Descriptor(), b.Descriptor()};
  DISTME_ASSIGN_OR_RETURN(std::unique_ptr<mm::Method> method,
                          options_.planner->Choose(problem,
                                                   options_.cluster));
  return MultiplyWith(a, b, *method);
}

Result<Matrix> Session::MultiplyWith(const Matrix& a, const Matrix& b,
                                     const mm::Method& method) {
  engine::RealOptions real = options_.real;
  real.mode = options_.mode;
  real.metrics = &metrics_;
  real.flight = &flight_;
  real.flight_dump_path = options_.flight_dump_path;
  // This run's flight events are the ones recorded after this point.
  const uint64_t flight_seq_before = flight_.TotalRecorded();
  DISTME_ASSIGN_OR_RETURN(
      engine::RealRunResult run,
      executor_->Run(a.distributed(), b.distributed(), method, real));
  history_.push_back(run.report);
  if (options_.collect_explain) {
    // Only this run's events feed its explain; the ring also holds earlier
    // runs.
    std::vector<obs::FlightEvent> flight_events = flight_.Snapshot();
    std::erase_if(flight_events, [flight_seq_before](
                                     const obs::FlightEvent& e) {
      return e.seq <= flight_seq_before;
    });
    const mm::MMProblem problem{a.Descriptor(), b.Descriptor()};
    Result<engine::ExplainReport> explain = engine::BuildExplainReport(
        run.report, method, problem, options_.cluster, flight_events);
    if (explain.ok()) {
      last_explain_ = std::move(*explain);
      if (run.report.outcome.ok() &&
          run.report.mode != engine::ComputeMode::kCpu) {
        SetGpuOverlapGauges(last_explain_->gpu, &metrics_);
      }
      auto json =
          std::make_shared<const std::string>(last_explain_->ToJson());
      if (!options_.analysis_json_path.empty()) {
        const Status written =
            obs::WriteTextFile(options_.analysis_json_path, *json);
        if (!written.ok()) {
          DISTME_LOG(Warning) << "analysis JSON export failed: "
                              << written.ToString();
        }
      }
      last_explain_json_.store(std::move(json), std::memory_order_release);
      if (last_explain_->has_gpu) {
        last_gpu_json_.store(std::make_shared<const std::string>(
                                 last_explain_->gpu.ToJson()),
                             std::memory_order_release);
      }
    }
  }
  DISTME_RETURN_NOT_OK(run.report.outcome);
  return Matrix(std::move(run.output));
}

Result<engine::ExplainReport> Session::ExplainLastRun() const {
  if (!last_explain_.has_value()) {
    return Status::Invalid(
        "no explain report: nothing has run, or Options::collect_explain is "
        "off");
  }
  return *last_explain_;
}

Status Session::WriteTrace(const std::string& path) const {
  return obs::WriteTextFile(
      path, obs::ChromeTraceJson(flight_.Snapshot(), flight_.TotalRecorded(),
                                 flight_.capacity()));
}

Result<Matrix> Session::Transpose(const Matrix& a) {
  // Blocks are transposed where they live (a map-side operation); only the
  // index swap may re-home a block under the output partitioner.
  auto out = std::make_shared<engine::DistributedMatrix>(
      BlockedShape{a.shape().cols, a.shape().rows, a.shape().block_size},
      options_.cluster.num_nodes,
      engine::Partitioner::Hash(options_.cluster.num_nodes));
  Status status = Status::OK();
  a.distributed().ForEachBlock(
      [&](int /*node*/, BlockIndex idx, const Block& block) {
        if (!status.ok()) return;
        Status st = out->Put({idx.j, idx.i}, blas::TransposeBlock(block));
        if (!st.ok()) status = std::move(st);
      });
  DISTME_RETURN_NOT_OK(status);
  return Matrix(std::move(out));
}

Result<Matrix> Session::ElementWise(blas::ElementWiseOp op, const Matrix& a,
                                    const Matrix& b, double epsilon) {
  if (!(a.shape() == b.shape())) {
    return Status::Invalid("element-wise operands must have the same shape");
  }
  auto out = std::make_shared<engine::DistributedMatrix>(
      a.shape(), options_.cluster.num_nodes,
      engine::Partitioner::Hash(options_.cluster.num_nodes));
  const bool zero_preserving = op == blas::ElementWiseOp::kMul;

  // Cogroup-style: visit A's blocks in place, fetch the matching B block
  // (same index — co-partitioned matrices fetch locally), then cover the
  // blocks present only in B when the op is not zero-preserving on A.
  // Same-operand case (e.g. A ∘ A): the per-node lock is not reentrant, so
  // combine each visited block with itself directly.
  const bool same_operand = &a.distributed() == &b.distributed();

  Status status = Status::OK();
  a.distributed().ForEachBlock([&](int node, BlockIndex idx,
                                   const Block& ba) {
    if (!status.ok()) return;
    Result<Block> bb = same_operand
                           ? Result<Block>(ba)
                           : b.distributed().Get(idx, node, nullptr);
    if (!bb.ok()) {
      status = bb.status();
      return;
    }
    auto combined = blas::ElementWise(op, ba, *bb, epsilon);
    if (!combined.ok()) {
      status = combined.status();
      return;
    }
    if (combined->nnz() > 0) {
      Status st = out->Put(idx, std::move(*combined));
      if (!st.ok()) status = std::move(st);
    }
  });
  DISTME_RETURN_NOT_OK(status);
  if (!zero_preserving && !same_operand) {
    b.distributed().ForEachBlock([&](int node, BlockIndex idx,
                                     const Block& bb) {
      if (!status.ok() || a.distributed().Has(idx)) return;
      const Block za = Block::Zero(bb.rows(), bb.cols());
      auto combined = blas::ElementWise(op, za, bb, epsilon);
      if (!combined.ok()) {
        status = combined.status();
        return;
      }
      (void)node;
      if (combined->nnz() > 0) {
        Status st = out->Put(idx, std::move(*combined));
        if (!st.ok()) status = std::move(st);
      }
    });
    DISTME_RETURN_NOT_OK(status);
  }
  return Matrix(std::move(out));
}

Result<Matrix> Session::Scale(const Matrix& a, double factor) {
  auto out = std::make_shared<engine::DistributedMatrix>(
      a.shape(), options_.cluster.num_nodes,
      engine::Partitioner::Hash(options_.cluster.num_nodes));
  Status status = Status::OK();
  a.distributed().ForEachBlock(
      [&](int /*node*/, BlockIndex idx, const Block& block) {
        if (!status.ok()) return;
        Status st = out->Put(idx, blas::ScaleBlock(block, factor));
        if (!st.ok()) status = std::move(st);
      });
  DISTME_RETURN_NOT_OK(status);
  return Matrix(std::move(out));
}

namespace {

// Applies fn(row, col, value) to every stored element of a block.
template <typename Fn>
void ForEachElement(const Block& block, Fn&& fn) {
  if (block.IsDense()) {
    const DenseMatrix& d = block.dense();
    for (int64_t r = 0; r < d.rows(); ++r) {
      const double* row = d.row(r);
      for (int64_t c = 0; c < d.cols(); ++c) {
        if (row[c] != 0.0) fn(r, c, row[c]);
      }
    }
    return;
  }
  const CsrMatrix& s = block.sparse();
  for (int64_t r = 0; r < s.rows(); ++r) {
    for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
      fn(r, s.col_idx()[k], s.values()[k]);
    }
  }
}

}  // namespace

Result<Matrix> Session::RowSums(const Matrix& a) {
  // Map: per-block partial row sums; reduce: add along block columns.
  std::vector<double> sums(static_cast<size_t>(a.rows()), 0.0);
  const int64_t bs = a.shape().block_size;
  a.distributed().ForEachBlock(
      [&](int /*node*/, BlockIndex idx, const Block& block) {
        const int64_t row0 = idx.i * bs;
        ForEachElement(block, [&](int64_t r, int64_t /*c*/, double v) {
          sums[static_cast<size_t>(row0 + r)] += v;
        });
      });
  auto out = std::make_shared<engine::DistributedMatrix>(
      BlockedShape{a.rows(), 1, bs}, options_.cluster.num_nodes,
      engine::Partitioner::Hash(options_.cluster.num_nodes));
  for (int64_t bi = 0; bi < out->shape().block_rows(); ++bi) {
    const int64_t rows = out->shape().BlockRowsAt(bi);
    DenseMatrix column(rows, 1);
    for (int64_t r = 0; r < rows; ++r) {
      column.Set(r, 0, sums[static_cast<size_t>(bi * bs + r)]);
    }
    DISTME_RETURN_NOT_OK(out->Put({bi, 0}, Block::Dense(std::move(column))));
  }
  return Matrix(std::move(out));
}

Result<Matrix> Session::ColSums(const Matrix& a) {
  DISTME_ASSIGN_OR_RETURN(Matrix at, Transpose(a));
  DISTME_ASSIGN_OR_RETURN(Matrix sums, RowSums(at));
  return Transpose(sums);
}

Result<double> Session::Sum(const Matrix& a) {
  double total = 0.0;
  a.distributed().ForEachBlock(
      [&](int /*node*/, BlockIndex /*idx*/, const Block& block) {
        ForEachElement(block,
                       [&](int64_t, int64_t, double v) { total += v; });
      });
  return total;
}

Status Session::Save(const Matrix& a, const std::string& path) {
  return WriteBinaryMatrix(a.Collect(), path);
}

Result<Matrix> Session::Load(const std::string& path) {
  DISTME_ASSIGN_OR_RETURN(BlockGrid grid, ReadBinaryMatrix(path));
  return FromGrid(grid);
}

Result<double> Session::FrobeniusNorm(const Matrix& a) {
  double sum_sq = 0.0;
  a.distributed().ForEachBlock(
      [&](int /*node*/, BlockIndex /*idx*/, const Block& block) {
        ForEachElement(block,
                       [&](int64_t, int64_t, double v) { sum_sq += v * v; });
      });
  return std::sqrt(sum_sq);
}

}  // namespace distme::core
