// The traced run: spans around each Session call of an op, then replays of
// each layer's public functions on the workload's own blocks, descriptors
// and cuboids, then interleaved on/off comparisons of engine options.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "blas/block_ops.h"
#include "core/planner.h"
#include "gpu/device.h"
#include "gpumm/streaming.h"
#include "host.h"
#include "matrix/generator.h"
#include "matrix/serialize.h"
#include "run.h"

namespace perfbench {

using distme::Block;
using distme::BlockGrid;
using distme::DenseMatrix;
using distme::Result;
using distme::Status;
using distme::core::Matrix;
using distme::core::Session;

namespace {

// Per-layer metrics in the order they are printed; every traced run must
// produce each one (perfbench/BENCHMARK.json lists the same names).
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"blas.gemm_gflops", "GFLOP/s"},
      {"blas.sparse_gflops", "GFLOP/s"},
      {"blas.kernel_share", "ratio"},
      {"blas.elementwise_gbps", "GB/s"},
      {"matrix.serialize_gbps.dense", "GB/s"},
      {"matrix.serialize_gbps.csr", "GB/s"},
      {"matrix.deserialize_gbps.dense", "GB/s"},
      {"matrix.deserialize_gbps.csr", "GB/s"},
      {"host.memcpy_gbps", "GB/s"},
      {"matrix.deserialize_vs_memcpy", "ratio"},
      {"matrix.wire_bytes_per_op", "bytes"},
      {"mm.plan_us", "us"},
      {"mm.tasks_per_op", "count"},
      {"engine.task_fixed_us", "us"},
      {"engine.serialize_ms", "ms"},
      {"engine.pipeline_ratio", "ratio"},
      {"engine.slot_task_skew", "ratio"},
      {"engine.prefetch_stall_ms", "ms"},
      {"engine.repartition_task_ms", "task-ms"},
      {"engine.multiply_task_ms", "task-ms"},
      {"engine.aggregation_task_ms", "task-ms"},
      {"engine.parallel_eff", "ratio"},
      {"gpumm.cuboid_ms", "ms"},
      {"gpumm.kernel_calls", "count"},
      {"gpumm.h2d_bytes", "bytes"},
      {"gpumm.stream_vs_cpu", "ratio"},
      {"core.transpose_ms", "ms"},
      {"core.elementwise_ms", "ms"},
      {"core.multiply_share", "ratio"},
      {"obs.explain_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return metrics;
}

// Runs `pass` until it has run `min_reps` times and for `min_seconds` in
// total (at most `max_reps` times); returns the median pass time.
double MedianPassSeconds(const std::function<void()>& pass, int min_reps,
                         double min_seconds, int max_reps = 200) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps || total < min_seconds)) {
    const double start = NowSeconds();
    pass();
    times.push_back(NowSeconds() - start);
    total += times.back();
  }
  return Median(times);
}

struct Collected {
  BlockGrid a;
  BlockGrid b;
};

// The traced run's state and its replays, one method per layer.
class TracedRun {
 public:
  explicit TracedRun(const RunOptions& options)
      : options_(options), smoke_(options.workload.smoke) {}

  Result<RunOutcome> Run();

 private:
  void Set(const std::string& name, double value, std::string note = "") {
    values_[name] = {value, std::move(note)};
  }

  Status MainLoop();
  Status KernelReplay();
  Status ElementWiseReplay();
  Status SerializeReplay();
  void MemcpyReplay();
  Status PlanReplay();
  Status ZeroInputReplay();
  Status CuboidReplay();
  Status Compare();

  // Runs the workload's op alternately under `on` and `off` options on the
  // same inputs; returns the two median op walls. `on_reports` receives the
  // reports of the `on` side's multiplications, grouped per op.
  Result<std::pair<double, double>> Interleave(
      const Session::Options& on, const Session::Options& off,
      std::vector<std::vector<distme::engine::MMReport>>* on_reports);

  const RunOptions& options_;
  const bool smoke_;
  SpanRecorder spans_;
  BoundWorkload bound_;
  Session::Options session_options_;
  std::vector<Collected> multiplies_;  // operands of the last op, collected
  std::vector<double> traced_walls_;
  std::vector<double> untraced_walls_;
  double kernel_seconds_per_op_ = 0.0;
  RunOutcome outcome_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

Status TracedRun::MainLoop() {
  Workload& workload = *bound_.workload;
  Session& session = *bound_.session;
  const distme::ClusterConfig& cluster = session.cluster();
  const size_t slots = static_cast<size_t>(cluster.total_slots());
  std::vector<double> wire, tasks, repartition, multiply, aggregation, skews;

  // Traced and untraced ops alternate, so the trace overhead is measured
  // under the same machine conditions as the ops it is compared with.
  constexpr int kFillIns = 20;
  int fill_ins = 0;
  double total = 0.0;
  for (int64_t op = 0; total < options_.seconds && op < 1000000; ++op) {
    const bool traced = op % 2 == 0;
    const size_t history_before = session.history().size();
    const uint64_t flight_before = session.flight().TotalRecorded();
    const double start = NowSeconds();
    Status status;
    if (traced) {
      ScopedSpan span(&spans_, "bench.op", op);
      status = workload.RunOp(&session, &spans_, op);
    } else {
      status = workload.RunOp(&session, nullptr, op);
    }
    const double wall = NowSeconds() - start;
    total += wall;
    (traced ? traced_walls_ : untraced_walls_).push_back(wall);
    ++outcome_.attempted;
    if (!status.ok() || !workload.CheckOp(op == options_.corrupt_op)) {
      ++outcome_.failed;
      continue;
    }

    // Engine counters of this op, from the reports its multiplies added.
    double op_wire = 0, op_tasks = 0, op_rep = 0, op_mul = 0, op_agg = 0;
    for (size_t r = history_before; r < session.history().size(); ++r) {
      const distme::engine::MMReport& report = session.history()[r];
      op_wire += report.total_shuffle_bytes();
      op_tasks += static_cast<double>(report.num_tasks);
      op_rep += report.steps.repartition_seconds;
      op_mul += report.steps.multiply_seconds;
      op_agg += report.steps.aggregation_seconds;
    }
    wire.push_back(op_wire);
    tasks.push_back(op_tasks);
    repartition.push_back(op_rep);
    multiply.push_back(op_mul);
    aggregation.push_back(op_agg);

    // Task starts per (node, slot), when the ring still holds all of them.
    const uint64_t recorded = session.flight().TotalRecorded() - flight_before;
    if (recorded <= session.flight().capacity()) {
      std::vector<double> starts(slots, 0.0);
      double sum = 0.0;
      for (const distme::obs::FlightEvent& e : session.flight().Snapshot()) {
        if (e.seq <= flight_before ||
            e.type != distme::obs::FlightEventType::kTaskStart) {
          continue;
        }
        const size_t at = static_cast<size_t>(e.node) *
                              static_cast<size_t>(cluster.tasks_per_node) +
                          static_cast<size_t>(e.slot);
        if (e.node >= 0 && e.slot >= 0 && at < slots) {
          starts[at] += 1.0;
          sum += 1.0;
        }
      }
      if (sum > 0) {
        skews.push_back(*std::max_element(starts.begin(), starts.end()) /
                        (sum / static_cast<double>(slots)));
      }
    }

    // Workloads whose op has no transpose or element-wise call still get
    // those Session calls timed, on their own left operand, outside the op
    // (on the first traced ops only: on the sparse workload they cost more
    // than the op itself).
    if (traced && !workload.OpHasTransposeAndElementWise() &&
        fill_ins < kFillIns) {
      ++fill_ins;
      const Matrix m = workload.ElementWiseMatrices().front();
      {
        ScopedSpan span(&spans_, "core.transpose", op);
        status = session.Transpose(m).status();
      }
      if (status.ok()) {
        ScopedSpan span(&spans_, "core.elementwise", op);
        status = session
                     .ElementWise(distme::blas::ElementWiseOp::kMul, m, m)
                     .status();
      }
      DISTME_RETURN_NOT_OK(status);
    }
  }
  if (untraced_walls_.empty() || traced_walls_.empty()) {
    return Status::Invalid("the traced run needs at least two ops");
  }
  if (!workload.CheckRun()) {
    outcome_.failed = std::min(outcome_.attempted, outcome_.failed + 1);
  }

  Set("matrix.wire_bytes_per_op", Median(wire), "repartition + aggregation");
  Set("mm.tasks_per_op", Median(tasks));
  Set("engine.repartition_task_ms", Median(repartition) * 1e3,
      "summed over tasks, not wall");
  Set("engine.multiply_task_ms", Median(multiply) * 1e3,
      "summed over tasks, not wall");
  Set("engine.aggregation_task_ms", Median(aggregation) * 1e3,
      "summed over tasks, not wall");
  double skew_mean = 0.0;
  for (double s : skews) skew_mean += s / static_cast<double>(skews.size());
  Set("engine.slot_task_skew", skew_mean,
      "mean over " + std::to_string(skews.size()) + " ops of max/mean");
  const double traced_p50 = Median(traced_walls_);
  const double untraced_p50 = Median(untraced_walls_);
  Set("bench.trace_overhead", traced_p50 / untraced_p50,
      "traced p50 " + std::to_string(traced_p50 * 1e3) + " ms / untraced " +
          std::to_string(untraced_p50 * 1e3) + " ms");

  // Spans of the traced ops: per-op time of each Session call.
  const std::map<std::string, double> totals = spans_.TotalSeconds();
  const double calls = workload.OpHasTransposeAndElementWise()
                          ? static_cast<double>(traced_walls_.size())
                          : static_cast<double>(fill_ins);
  const auto per_op_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second * 1e3 / calls;
  };
  Set("core.transpose_ms", per_op_ms("core.transpose"),
      workload.OpHasTransposeAndElementWise() ? "per op"
                                              : "A, outside the op");
  Set("core.elementwise_ms", per_op_ms("core.elementwise"),
      workload.OpHasTransposeAndElementWise() ? "per op"
                                              : "A * A, outside the op");
  double multiply_in_ops = 0.0;
  double op_span_total = 0.0;
  for (const Span& s : spans_.spans()) {
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name == "bench.op") op_span_total += d;
    if (s.name == "core.multiply" && s.parent >= 0) multiply_in_ops += d;
  }
  Set("core.multiply_share", multiply_in_ops / op_span_total);

  for (const OpMultiply& m : workload.LastOpMultiplies()) {
    multiplies_.push_back({m.a.Collect(), m.b.Collect()});
  }
  return Status::OK();
}

// blas::MultiplyAccumulate over every voxel block pair of the op, split by
// format. When the op has no pair of a format, its own blocks are converted
// to that format so the metric still reads the kernel at this block size.
// Dense pairs count 2·m·n·k flops (what Dgemm does), the others count
// their useful flops.
Status TracedRun::KernelReplay() {
  using Pairs = std::vector<std::pair<Block, Block>>;
  Pairs dense, sparse;
  for (const Collected& c : multiplies_) {
    for (const auto& [aidx, ablock] : c.a.blocks()) {
      for (int64_t j = 0; j < c.b.block_cols(); ++j) {
        if (!c.b.Has({aidx.j, j})) continue;
        Block bblock = c.b.Get({aidx.j, j});
        (ablock.IsDense() && bblock.IsDense() ? dense : sparse)
            .emplace_back(ablock, std::move(bblock));
      }
    }
  }
  std::map<std::pair<int64_t, int64_t>, DenseMatrix> accumulators;
  Status status;
  auto run_pairs = [&](const Pairs& pairs) {
    for (const auto& [a, b] : pairs) {
      DenseMatrix& acc = accumulators[{a.rows(), b.cols()}];
      if (acc.rows() != a.rows()) acc = DenseMatrix(a.rows(), b.cols());
      Status st = distme::blas::MultiplyAccumulate(a, b, &acc);
      if (!st.ok()) status = std::move(st);
    }
  };
  auto flops = [](const Pairs& pairs, bool dense_kernel) {
    double total = 0.0;
    for (const auto& [a, b] : pairs) {
      total += dense_kernel ? 2.0 * static_cast<double>(a.rows()) *
                                  static_cast<double>(a.cols()) *
                                  static_cast<double>(b.cols())
                            : UsefulFlops(a, b);
    }
    return total;
  };
  auto rate = [&](const char* span, const Pairs& pairs, bool dense_kernel,
                  double* seconds) {
    ScopedSpan s(&spans_, span, -1);
    *seconds = MedianPassSeconds([&] { run_pairs(pairs); }, 3,
                                 smoke_ ? 0.01 : 0.3);
    return flops(pairs, dense_kernel) / *seconds / 1e9;
  };

  // Conversions only read the kernel at this block size, so a sample of
  // the op's pairs is enough.
  Pairs any = dense.empty() ? sparse : dense;
  if (any.size() > 64) any.resize(64);
  double dense_s = 0.0, sparse_s = 0.0, unused = 0.0;
  std::string dense_note = std::to_string(dense.size()) + " pairs";
  std::string sparse_note = std::to_string(sparse.size()) + " pairs";
  double gemm = 0.0, spmm = 0.0;
  if (!dense.empty()) {
    gemm = rate("blas.gemm", dense, true, &dense_s);
  } else {
    // Densified sparse blocks would let the kernel skip zeros, so the
    // dense read uses fully dense blocks of the op's block shapes.
    distme::Rng rng(DeriveSeed(options_.workload.seed, 7));
    Pairs converted;
    for (const auto& [a, b] : any) {
      converted.emplace_back(
          Block::Dense(DenseMatrix::Random(a.rows(), a.cols(), &rng)),
          Block::Dense(DenseMatrix::Random(b.rows(), b.cols(), &rng)));
    }
    gemm = rate("blas.gemm", converted, true, &unused);
    dense_note = "op has none: dense blocks of its pair shapes";
  }
  if (!sparse.empty()) {
    spmm = rate("blas.sparse", sparse, false, &sparse_s);
  } else {
    Pairs converted;
    for (const auto& [a, b] : any) {
      converted.emplace_back(a.Compacted(2.0), b);
    }
    spmm = rate("blas.sparse", converted, false, &unused);
    sparse_note = "op has none: left blocks as CSR";
  }
  Set("blas.gemm_gflops", gemm, dense_note + ", single thread");
  Set("blas.sparse_gflops", spmm, sparse_note + ", single thread");
  kernel_seconds_per_op_ = dense_s + sparse_s;
  return status;
}

// blas::ElementWise (A ∘ A) and TransposeBlock over the factor blocks (the
// left operand for workloads without factors); bytes read plus written.
Status TracedRun::ElementWiseReplay() {
  std::vector<Block> blocks;
  double bytes = 0.0;
  for (const Matrix& m : bound_.workload->ElementWiseMatrices()) {
    const BlockGrid grid = m.Collect();
    for (const auto& [idx, block] : grid.blocks()) {
      blocks.push_back(block);
      bytes += 5.0 * static_cast<double>(block.SizeBytes());
    }
  }
  Status status;
  ScopedSpan span(&spans_, "blas.elementwise", -1);
  const double seconds = MedianPassSeconds(
      [&] {
        for (const Block& b : blocks) {
          auto product =
              distme::blas::ElementWise(distme::blas::ElementWiseOp::kMul, b, b);
          if (!product.ok()) status = product.status();
          distme::blas::TransposeBlock(b);
        }
      },
      3, smoke_ ? 0.01 : 0.2);
  Set("blas.elementwise_gbps", bytes / seconds / 1e9,
      std::to_string(blocks.size()) + " blocks, ElementWise + TransposeBlock");
  return status;
}

// SerializeBlock / DeserializeBlock over the input blocks the op moves,
// dense and CSR apart (a missing format is replayed on converted blocks).
Status TracedRun::SerializeReplay() {
  std::vector<Block> dense, csr;
  for (const Collected& c : multiplies_) {
    for (const BlockGrid* grid : {&c.a, &c.b}) {
      for (const auto& [idx, block] : grid->blocks()) {
        (block.IsDense() ? dense : csr).push_back(block);
      }
    }
  }
  const std::vector<Block> source = dense.empty() ? csr : dense;
  std::string dense_note = std::to_string(dense.size()) + " blocks";
  std::string csr_note = std::to_string(csr.size()) + " blocks";
  if (dense.empty()) {
    for (const Block& b : source) dense.push_back(b.Densified());
    dense_note = "op moves none: its CSR blocks densified";
  }
  if (csr.empty()) {
    for (const Block& b : source) csr.push_back(b.Compacted(2.0));
    csr_note = "op moves none: its dense blocks as CSR";
  }
  for (const auto& [format, blocks, note] :
       {std::make_tuple("dense", &dense, dense_note),
        std::make_tuple("csr", &csr, csr_note)}) {
    std::vector<std::vector<uint8_t>> buffers;
    double bytes = 0.0;
    for (const Block& b : *blocks) {
      buffers.push_back(distme::SerializeBlock(b));
      bytes += static_cast<double>(buffers.back().size());
    }
    double ser = 0.0, de = 0.0;
    {
      ScopedSpan span(&spans_, "matrix.serialize", -1);
      ser = MedianPassSeconds(
          [&] {
            for (const Block& b : *blocks) distme::SerializeBlock(b);
          },
          3, smoke_ ? 0.01 : 0.2);
    }
    Status status;
    {
      ScopedSpan span(&spans_, "matrix.deserialize", -1);
      de = MedianPassSeconds(
          [&] {
            for (const auto& buffer : buffers) {
              auto block = distme::DeserializeBlock(buffer);
              if (!block.ok()) status = block.status();
            }
          },
          3, smoke_ ? 0.01 : 0.2);
    }
    DISTME_RETURN_NOT_OK(status);
    Set(std::string("matrix.serialize_gbps.") + format, bytes / ser / 1e9,
        note);
    Set(std::string("matrix.deserialize_gbps.") + format, bytes / de / 1e9,
        note);
  }
  return Status::OK();
}

// The memory-bandwidth ceiling in the same run: memcpy between the halves
// of one array at least 4x the last-level cache.
void TracedRun::MemcpyReplay() {
  const int64_t llc = LastLevelCacheBytes();
  const int64_t array = smoke_ ? (int64_t{64} << 20)
                               : std::max<int64_t>(4 * llc, int64_t{256} << 20);
  const size_t half = static_cast<size_t>(array / 2);
  std::unique_ptr<char[]> buffer(new char[2 * half]);
  std::memset(buffer.get(), 1, 2 * half);  // fault every page in first
  double seconds = 0.0;
  {
    ScopedSpan span(&spans_, "host.memcpy", -1);
    seconds = MedianPassSeconds(
        [&] { std::memcpy(buffer.get() + half, buffer.get(), half); }, 3,
        0.0, 3);
  }
  const double gbps = static_cast<double>(half) / seconds / 1e9;
  Set("host.memcpy_gbps", gbps,
      "array " + std::to_string(array >> 20) + " MiB, LLC " +
          std::to_string(llc >> 20) + " MiB");
  Set("matrix.deserialize_vs_memcpy",
      values_["matrix.deserialize_gbps.dense"].first / gbps, "dense blocks");
}

// Planner::Choose on the op's descriptors, per op (summed over its
// multiplies).
Status TracedRun::PlanReplay() {
  const distme::core::DistmePlanner planner;
  const distme::ClusterConfig& cluster = bound_.session->cluster();
  double per_op = 0.0;
  for (const OpMultiply& m : bound_.workload->LastOpMultiplies()) {
    const distme::mm::MMProblem problem{m.a.Descriptor(), m.b.Descriptor()};
    Status status;
    ScopedSpan span(&spans_, "mm.plan", -1);
    per_op += MedianPassSeconds(
        [&] {
          auto method = planner.Choose(problem, cluster);
          if (!method.ok()) status = method.status();
        },
        20, smoke_ ? 0.002 : 0.05);
    DISTME_RETURN_NOT_OK(status);
  }
  Set("mm.plan_us", per_op * 1e6, "DistmePlanner::Choose, per op");
  return Status::OK();
}

// Session::Multiply on all-zero inputs of each multiply's shapes: the fixed
// cost of planning, launching and reporting, per task.
Status TracedRun::ZeroInputReplay() {
  Session session(session_options_);
  double wall = 0.0;
  double tasks = 0.0;
  for (const OpMultiply& m : bound_.workload->LastOpMultiplies()) {
    auto zeros = [&](const Matrix& like) {
      distme::GeneratorOptions g;
      g.rows = like.rows();
      g.cols = like.cols();
      g.block_size = like.shape().block_size;
      g.sparsity = 0.0;
      return session.Generate(g);
    };
    DISTME_ASSIGN_OR_RETURN(const Matrix za, zeros(m.a));
    DISTME_ASSIGN_OR_RETURN(const Matrix zb, zeros(m.b));
    Status status;
    ScopedSpan span(&spans_, "engine.zero_multiply", -1);
    wall += MedianPassSeconds(
        [&] {
          if (auto c = session.Multiply(za, zb); !c.ok()) status = c.status();
        },
        5, smoke_ ? 0.01 : 0.1, 50);
    DISTME_RETURN_NOT_OK(status);
    tasks += static_cast<double>(session.history().back().num_tasks);
  }
  Set("engine.task_fixed_us", wall / tasks * 1e6,
      std::to_string(static_cast<int64_t>(tasks)) + " tasks per op");
  return Status::OK();
}

// gpumm::RunCuboidOnGpu on the first cuboid of the op's largest multiply,
// through GridBlockSource on a fresh software device.
Status TracedRun::CuboidReplay() {
  const Collected* largest = nullptr;
  double largest_flops = -1.0;
  for (const Collected& c : multiplies_) {
    const double f = UsefulFlops(c.a, c.b);
    if (f > largest_flops) {
      largest_flops = f;
      largest = &c;
    }
  }
  const distme::ClusterConfig& cluster = bound_.session->cluster();
  const distme::mm::MMProblem problem{
      distme::mm::MatrixDescriptor::FromGrid(largest->a),
      distme::mm::MatrixDescriptor::FromGrid(largest->b)};
  DISTME_ASSIGN_OR_RETURN(auto method,
                          distme::core::DistmePlanner().Choose(problem, cluster));
  std::optional<distme::mm::VoxelSet> box;
  DISTME_RETURN_NOT_OK(method->ForEachTask(
      problem, cluster, [&](const distme::mm::LocalTask& task) {
        if (!box.has_value() && task.voxels.is_box()) box = task.voxels;
        return Status::OK();
      }));
  if (!box.has_value()) return Status::Invalid("the plan has no cuboid task");
  distme::gpu::DeviceStats stats;
  Status status;
  ScopedSpan span(&spans_, "gpumm.cuboid", -1);
  const double seconds = MedianPassSeconds(
      [&] {
        distme::gpumm::GridBlockSource source(&largest->a, &largest->b);
        distme::gpu::Device device(cluster.gpu, cluster.hw);
        auto result = distme::gpumm::RunCuboidOnGpu(
            *box, largest->a.shape(), largest->b.shape(), &source, &device,
            cluster.gpu_task_memory_bytes);
        if (result.ok()) {
          stats = result->stats;
        } else {
          status = result.status();
        }
      },
      3, smoke_ ? 0.01 : 0.1, 20);
  DISTME_RETURN_NOT_OK(status);
  char note[96];
  std::snprintf(note, sizeof(note), "%s, cuboid %lldx%lldx%lld blocks",
                method->name().c_str(),
                static_cast<long long>(box->i_count()),
                static_cast<long long>(box->j_count()),
                static_cast<long long>(box->k_count()));
  Set("gpumm.cuboid_ms", seconds * 1e3, note);
  Set("gpumm.kernel_calls", static_cast<double>(stats.kernel_calls));
  Set("gpumm.h2d_bytes", static_cast<double>(stats.h2d_bytes),
      "computed on the software device");
  return Status::OK();
}

Result<std::pair<double, double>> TracedRun::Interleave(
    const Session::Options& on, const Session::Options& off,
    std::vector<std::vector<distme::engine::MMReport>>* on_reports) {
  double unused = 0.0;
  DISTME_ASSIGN_OR_RETURN(BoundWorkload a, SetUp(options_.workload, on, &unused));
  Session b(off);
  DISTME_RETURN_NOT_OK(a.workload->RunOp(&b, nullptr, -1));  // warm-up
  const double budget = smoke_ ? 0.05 : 1.5;
  const int pairs = std::clamp(
      static_cast<int>(budget / (2.0 * Median(untraced_walls_))), 3, 50);
  std::vector<double> on_walls, off_walls;
  for (int p = 0; p < 2 * pairs; ++p) {
    // A B B A ...: neither side always runs first.
    const bool run_on = (p % 4 == 0) || (p % 4 == 3);
    Session* session = run_on ? a.session.get() : &b;
    const size_t before = session->history().size();
    const double start = NowSeconds();
    DISTME_RETURN_NOT_OK(a.workload->RunOp(session, nullptr, -1));
    (run_on ? on_walls : off_walls).push_back(NowSeconds() - start);
    if (run_on && on_reports != nullptr) {
      on_reports->emplace_back(session->history().begin() +
                                   static_cast<std::ptrdiff_t>(before),
                               session->history().end());
    }
  }
  return std::make_pair(Median(on_walls), Median(off_walls));
}

// On/off comparisons of engine options, each interleaved on shared inputs.
Status TracedRun::Compare() {
  const Session::Options base = session_options_;
  {
    ScopedSpan span(&spans_, "engine.serialize_compare", -1);
    Session::Options off = base;
    off.real.serialize_transfers = false;
    DISTME_ASSIGN_OR_RETURN(auto walls, Interleave(base, off, nullptr));
    Set("engine.serialize_ms", (walls.first - walls.second) * 1e3,
        "op wall, serialize_transfers on - off");
  }
  {
    // Depth 2 (the sparse workload's depth) against depth 0 on every
    // workload, so depth-0 workloads also show what the pipeline would do.
    ScopedSpan span(&spans_, "engine.pipeline_compare", -1);
    Session::Options deep = base;
    deep.real.prefetch_depth = 2;
    Session::Options flat = base;
    flat.real.prefetch_depth = 0;
    std::vector<std::vector<distme::engine::MMReport>> reports;
    DISTME_ASSIGN_OR_RETURN(auto walls, Interleave(deep, flat, &reports));
    Set("engine.pipeline_ratio", walls.first / walls.second,
        "op wall, prefetch depth 2 / depth 0");
    std::vector<double> stalls;
    for (const auto& op : reports) {
      double stall = 0.0;
      for (const auto& r : op) stall += r.pipeline.stall_seconds;
      stalls.push_back(stall);
    }
    Set("engine.prefetch_stall_ms", Median(stalls) * 1e3,
        "per op at depth 2");
  }
  {
    ScopedSpan span(&spans_, "obs.explain_compare", -1);
    Session::Options off = base;
    off.collect_explain = false;
    DISTME_ASSIGN_OR_RETURN(auto walls, Interleave(base, off, nullptr));
    Set("obs.explain_ms", (walls.first - walls.second) * 1e3,
        "op wall, collect_explain on - off");
  }
  {
    ScopedSpan span(&spans_, "gpumm.stream_compare", -1);
    Session::Options gpu = base;
    gpu.mode = distme::engine::ComputeMode::kGpuStreaming;
    Session::Options cpu = base;
    cpu.mode = distme::engine::ComputeMode::kCpu;
    DISTME_ASSIGN_OR_RETURN(auto walls, Interleave(gpu, cpu, nullptr));
    Set("gpumm.stream_vs_cpu", walls.first / walls.second,
        "op wall, GPU streaming / CPU");
  }
  return Status::OK();
}

Result<RunOutcome> TracedRun::Run() {
  const std::unique_ptr<Workload> probe = MakeWorkload(options_.workload);
  if (probe == nullptr) {
    return Status::Invalid("unknown workload " + options_.workload.name);
  }
  session_options_ = probe->SessionOptions();
  double setup = 0.0;
  DISTME_ASSIGN_OR_RETURN(bound_,
                          SetUp(options_.workload, session_options_, &setup));
  if (!bound_.workload->CheckOp(false)) {
    return Status::Invalid("the warm-up op failed its oracle");
  }
  DISTME_RETURN_NOT_OK(MainLoop());
  DISTME_RETURN_NOT_OK(KernelReplay());
  DISTME_RETURN_NOT_OK(ElementWiseReplay());
  DISTME_RETURN_NOT_OK(SerializeReplay());
  MemcpyReplay();
  DISTME_RETURN_NOT_OK(PlanReplay());
  DISTME_RETURN_NOT_OK(ZeroInputReplay());
  DISTME_RETURN_NOT_OK(CuboidReplay());
  DISTME_RETURN_NOT_OK(Compare());

  // Kernel share and parallel efficiency against the untraced ops.
  const double op_p50 = Median(untraced_walls_);
  double untraced_total = 0.0;
  for (double w : untraced_walls_) untraced_total += w;
  const double slots =
      static_cast<double>(bound_.session->cluster().total_slots());
  Set("blas.kernel_share", kernel_seconds_per_op_ / slots / op_p50,
      "replayed kernel s per op / " + std::to_string(int(slots)) +
          " slots / op p50");
  const double flops = bound_.workload->UsefulFlopsPerOp();
  const double e2e_rate =
      flops * static_cast<double>(untraced_walls_.size()) / untraced_total;
  const double kernel_rate = flops / kernel_seconds_per_op_;
  Set("engine.parallel_eff", e2e_rate / (slots * kernel_rate),
      "e2e flop rate / (slots x single-thread kernel rate)");

  if (!options_.trace_out.empty()) {
    DISTME_RETURN_NOT_OK(spans_.WriteChromeTrace(options_.trace_out));
    std::printf("# trace: %zu spans written to %s\n", spans_.spans().size(),
                options_.trace_out.c_str());
  }
  // Self time per span name, and per layer (the name's prefix).
  std::map<std::string, double> layer_self;
  std::printf("# self time by span (ms):");
  for (const auto& [name, seconds] : spans_.SelfSeconds()) {
    std::printf(" %s=%.3f", name.c_str(), seconds * 1e3);
    layer_self[name.substr(0, name.find('.'))] += seconds;
  }
  std::printf("\n# self time by layer (ms):");
  for (const auto& [layer, seconds] : layer_self) {
    std::printf(" %s=%.3f", layer.c_str(), seconds * 1e3);
  }
  std::printf("\n");

  for (const auto& [name, unit] : LayerMetrics()) {
    const auto it = values_.find(name);
    if (it == values_.end() || !std::isfinite(it->second.first)) {
      return Status::Internal(std::string("no value for ") + name);
    }
    outcome_.metrics.push_back(
        {name, it->second.first, unit, it->second.second});
  }
  return outcome_;
}

}  // namespace

Result<RunOutcome> RunTraced(const RunOptions& options) {
  TracedRun run(options);
  return run.Run();
}

}  // namespace perfbench
