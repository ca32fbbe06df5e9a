#include "core/gnmf.h"

#include <cmath>

#include "blas/local_mm.h"
#include "sim/timeline.h"

namespace distme::core {

namespace {

// ‖V − W·H‖_F computed locally (test scale).
Result<double> FrobeniusLoss(const Matrix& v, const Matrix& w,
                             const Matrix& h) {
  const BlockGrid vg = v.Collect();
  const BlockGrid wg = w.Collect();
  const BlockGrid hg = h.Collect();
  DISTME_ASSIGN_OR_RETURN(BlockGrid wh, blas::LocalMultiply(wg, hg));
  const DenseMatrix dv = vg.ToDense();
  const DenseMatrix dwh = wh.ToDense();
  double sum = 0;
  for (int64_t r = 0; r < dv.rows(); ++r) {
    for (int64_t c = 0; c < dv.cols(); ++c) {
      const double d = dv.At(r, c) - dwh.At(r, c);
      sum += d * d;
    }
  }
  return std::sqrt(sum);
}

}  // namespace

Result<GnmfResult> RunGnmf(Session* session, const Matrix& v,
                           const GnmfOptions& options) {
  if (options.factor_dim <= 0) return Status::Invalid("factor_dim must be > 0");
  const int64_t block_size = v.shape().block_size;

  // Random non-negative initial factors W0, H0.
  GeneratorOptions wgen;
  wgen.rows = v.rows();
  wgen.cols = options.factor_dim;
  wgen.block_size = block_size;
  wgen.sparsity = 1.0;
  wgen.seed = options.seed;
  DISTME_ASSIGN_OR_RETURN(Matrix w, session->Generate(wgen));

  GeneratorOptions hgen;
  hgen.rows = options.factor_dim;
  hgen.cols = v.cols();
  hgen.block_size = block_size;
  hgen.sparsity = 1.0;
  hgen.seed = options.seed + 1;
  DISTME_ASSIGN_OR_RETURN(Matrix h, session->Generate(hgen));

  GnmfResult result;
  for (int iter = 0; iter < options.iterations; ++iter) {
    // H ← H ∘ (Wᵀ V) ⊘ (Wᵀ W H)
    DISTME_ASSIGN_OR_RETURN(Matrix wt, session->Transpose(w));
    DISTME_ASSIGN_OR_RETURN(Matrix wtv, session->Multiply(wt, v));
    DISTME_ASSIGN_OR_RETURN(Matrix wtw, session->Multiply(wt, w));
    DISTME_ASSIGN_OR_RETURN(Matrix wtwh, session->Multiply(wtw, h));
    DISTME_ASSIGN_OR_RETURN(
        Matrix h_num,
        session->ElementWise(blas::ElementWiseOp::kMul, h, wtv));
    DISTME_ASSIGN_OR_RETURN(
        h, session->ElementWise(blas::ElementWiseOp::kDiv, h_num, wtwh,
                                options.epsilon));

    // W ← W ∘ (V Hᵀ) ⊘ (W H Hᵀ)
    DISTME_ASSIGN_OR_RETURN(Matrix ht, session->Transpose(h));
    DISTME_ASSIGN_OR_RETURN(Matrix vht, session->Multiply(v, ht));
    DISTME_ASSIGN_OR_RETURN(Matrix hht, session->Multiply(h, ht));
    DISTME_ASSIGN_OR_RETURN(Matrix whht, session->Multiply(w, hht));
    DISTME_ASSIGN_OR_RETURN(
        Matrix w_num,
        session->ElementWise(blas::ElementWiseOp::kMul, w, vht));
    DISTME_ASSIGN_OR_RETURN(
        w, session->ElementWise(blas::ElementWiseOp::kDiv, w_num, whht,
                                options.epsilon));

    if (options.track_loss) {
      DISTME_ASSIGN_OR_RETURN(double loss, FrobeniusLoss(v, w, h));
      result.loss.push_back(loss);
    }
  }
  result.w = std::move(w);
  result.h = std::move(h);
  return result;
}

double GnmfSimReport::AccumulatedSeconds(int n) const {
  double sum = 0;
  for (int i = 0; i < n && i < static_cast<int>(iteration_seconds.size());
       ++i) {
    sum += iteration_seconds[static_cast<size_t>(i)];
  }
  return sum;
}

Result<GnmfSimReport> SimulateGnmf(const Planner& planner,
                                   const GnmfSimOptions& options) {
  const int64_t bs = options.v.shape.block_size;
  const int64_t users = options.v.shape.rows;
  const int64_t items = options.v.shape.cols;
  const int64_t f = options.factor_dim;

  const mm::MatrixDescriptor v = options.v;
  mm::MatrixDescriptor vt = v;
  vt.shape = BlockedShape{items, users, bs};
  const auto w = mm::MatrixDescriptor::Dense(users, f, bs);
  const auto wt = mm::MatrixDescriptor::Dense(f, users, bs);
  const auto h = mm::MatrixDescriptor::Dense(f, items, bs);
  const auto ht = mm::MatrixDescriptor::Dense(items, f, bs);
  const auto ff = mm::MatrixDescriptor::Dense(f, f, bs);

  // The six multiplications of one iteration (DMac's plan):
  //   WᵀV, WᵀW, (WᵀW)H, VHᵀ, HHᵀ, W(HHᵀ).
  const std::vector<mm::MMProblem> multiplies = {
      {wt, v}, {wt, w}, {ff, h}, {v, ht}, {h, ht}, {w, ff}};

  engine::SimExecutor executor(options.cluster);
  GnmfSimReport report;
  report.outcome = Status::OK();

  // Naive systems (MatFast's available version) materialize the transpose:
  // W and Wᵀ are both resident while re-keying, so 2·|W| (or 2·|H|) must
  // fit one task's memory. This is what caps the factor dimension in
  // Figure 8(d).
  if (options.sim.materialize_map_outputs) {
    const double budget = static_cast<double>(
                              options.cluster.task_memory_bytes) *
                          options.sim.memory_slack;
    const double transpose_resident =
        2.0 * std::max(w.StoredBytes(), h.StoredBytes());
    if (transpose_resident > budget) {
      report.outcome = Status::OutOfMemory(
          "materialized transpose of the factor matrix exceeds task memory");
      return report;
    }
  }

  double iteration_seconds = 0;
  double iteration_bytes = 0;
  for (const mm::MMProblem& problem : multiplies) {
    auto method = planner.Choose(problem, options.cluster);
    if (!method.ok()) {
      // Planner infeasibility (e.g. no method fits memory) is an O.O.M.
      report.outcome = method.status();
      return report;
    }
    engine::SimOptions sim = options.sim;
    if (options.dependency_aware) sim.repartition_factor *= 0.5;
    DISTME_ASSIGN_OR_RETURN(engine::MMReport mm_report,
                            executor.Run(problem, **method, sim));
    if (!mm_report.outcome.ok()) {
      report.outcome = mm_report.outcome;
      return report;
    }
    iteration_seconds += mm_report.elapsed_seconds;
    iteration_bytes += mm_report.total_shuffle_bytes();
  }

  // Transposes (Wᵀ, Hᵀ) and the four element-wise updates. Dependency-aware
  // systems store both layouts / co-partition, making these shuffle-free.
  const HardwareModel& hw = options.cluster.hw;
  const double ew_bytes = 2.0 * (w.StoredBytes() + h.StoredBytes());
  const double ew_seconds =
      ew_bytes / (static_cast<double>(options.cluster.num_nodes) * 2.0 * kGiB) +
      4.0 * hw.task_launch_overhead;
  iteration_seconds += ew_seconds;
  if (!options.dependency_aware) {
    const double shuffle_bytes = w.StoredBytes() + h.StoredBytes();
    iteration_seconds += sim::ShuffleSeconds(
        shuffle_bytes, options.cluster.num_nodes, hw.nic_bandwidth,
        hw.serialization_bandwidth, hw.serialization_overhead);
    iteration_bytes += shuffle_bytes;
  }

  report.iteration_seconds.assign(static_cast<size_t>(options.iterations),
                                  iteration_seconds);
  report.total_seconds = iteration_seconds * options.iterations;
  report.total_shuffle_bytes = iteration_bytes * options.iterations;
  return report;
}

}  // namespace distme::core
