#include <gtest/gtest.h>

#include <algorithm>

#include "engine/sim_executor.h"
#include "mm/methods.h"
#include "mm/optimizer.h"

namespace distme::engine {
namespace {

using mm::MMProblem;

MMProblem DenseProblem(int64_t i, int64_t k, int64_t j, double sparsity = 1.0,
                       int64_t bs = 1000) {
  MMProblem p = MMProblem::DenseSquareBlocks(i, k, j, bs);
  p.a.sparsity = sparsity;
  p.b.sparsity = sparsity;
  return p;
}

mm::CuboidMethod OptimalCuboid(const MMProblem& p,
                               const ClusterConfig& cluster) {
  auto opt = mm::OptimizeCuboid(p, cluster);
  EXPECT_TRUE(opt.ok());
  return mm::CuboidMethod(opt->spec);
}

TEST(ProductDensityTest, Estimates) {
  EXPECT_DOUBLE_EQ(EstimateProductDensity(0.0, 1.0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(EstimateProductDensity(1.0, 1.0, 1000), 1.0);
  // Very sparse: ≈ sa·sb·inner.
  EXPECT_NEAR(EstimateProductDensity(1e-6, 1.0, 1000), 1e-3, 1e-5);
  // Half-dense inputs over a long inner dimension saturate to dense.
  EXPECT_NEAR(EstimateProductDensity(0.5, 0.5, 1000), 1.0, 1e-9);
}

TEST(SimExecutorTest, CuboidBeatsOthersOnGeneralMatrices) {
  // The Figure 6(a) regime: 70K×70K×70K, sparsity 0.5, GPU on.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  const MMProblem p = DenseProblem(70000, 70000, 70000, 0.5);
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;

  auto cuboid = executor.Run(p, OptimalCuboid(p, cluster), gpu);
  auto cpmm = executor.Run(p, mm::CpmmMethod(), gpu);
  auto rmm = executor.Run(p, mm::RmmMethod(), gpu);
  ASSERT_TRUE(cuboid.ok() && cpmm.ok() && rmm.ok());
  ASSERT_TRUE(cuboid->outcome.ok()) << cuboid->outcome;
  ASSERT_TRUE(cpmm->outcome.ok()) << cpmm->outcome;
  ASSERT_TRUE(rmm->outcome.ok()) << rmm->outcome;

  // CuboidMM wins on elapsed time and communication (Figure 6(a)/(d)).
  EXPECT_LT(cuboid->elapsed_seconds, cpmm->elapsed_seconds);
  EXPECT_LT(cuboid->elapsed_seconds, rmm->elapsed_seconds);
  EXPECT_LT(cuboid->total_shuffle_bytes(), cpmm->total_shuffle_bytes());
  EXPECT_LT(cuboid->total_shuffle_bytes(), rmm->total_shuffle_bytes());
  // And the paper's magnitude: CuboidMM ~200s, RMM within a few ×.
  EXPECT_GT(cuboid->elapsed_seconds, 50);
  EXPECT_LT(cuboid->elapsed_seconds, 500);
  EXPECT_GT(rmm->elapsed_seconds / cuboid->elapsed_seconds, 2.0);
}

TEST(SimExecutorTest, BmmOomBeyond80K) {
  // Figure 6(a): BMM runs at 70K but O.O.M.s for N > 80K (the broadcast
  // copy of B plus task working sets no longer fit node memory).
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;
  auto at_70k =
      executor.Run(DenseProblem(70000, 70000, 70000, 0.5), mm::BmmMethod(),
                   gpu);
  ASSERT_TRUE(at_70k.ok());
  EXPECT_TRUE(at_70k->outcome.ok()) << at_70k->outcome;
  auto at_90k =
      executor.Run(DenseProblem(90000, 90000, 90000, 0.5), mm::BmmMethod(),
                   gpu);
  ASSERT_TRUE(at_90k.ok());
  EXPECT_TRUE(at_90k->outcome.IsOutOfMemory());
}

TEST(SimExecutorTest, CpmmOomOnTwoLargeDimensions) {
  // Figure 6(c): CPMM fails with O.O.M. at 500K×1K×500K — one task (T=K=1)
  // must hold both inputs.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;
  auto at_250k = executor.Run(DenseProblem(250000, 1000, 250000, 0.5),
                              mm::CpmmMethod(), gpu);
  ASSERT_TRUE(at_250k.ok());
  EXPECT_TRUE(at_250k->outcome.ok()) << at_250k->outcome;
  auto at_500k = executor.Run(DenseProblem(500000, 1000, 500000, 0.5),
                              mm::CpmmMethod(), gpu);
  ASSERT_TRUE(at_500k.ok());
  EXPECT_TRUE(at_500k->outcome.IsOutOfMemory());
}

TEST(SimExecutorTest, RmmTimesOutOnTwoLargeDimensions) {
  // Figure 6(c): RMM exceeds the 4000 s limit at 750K×1K×750K.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;
  auto report = executor.Run(DenseProblem(750000, 1000, 750000, 0.5),
                             mm::RmmMethod(), gpu);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->outcome.IsTimeout()) << report->outcome;
  // CuboidMM still completes there (only CuboidMM can, per the paper).
  const MMProblem p = DenseProblem(750000, 1000, 750000, 0.5);
  auto cuboid = executor.Run(p, OptimalCuboid(p, cluster), gpu);
  ASSERT_TRUE(cuboid.ok());
  EXPECT_TRUE(cuboid->outcome.ok()) << cuboid->outcome;
}

TEST(SimExecutorTest, ExceedsDiskOnHugeReplication) {
  // Figure 7(c): RMM's J·|A| replication at N×1K×1M explodes past the
  // cluster's 36 TB of disk at N = 1.5M.
  // Figure 7(c) is measured in minutes; relax the Figure 6 time limit.
  ClusterConfig cluster = ClusterConfig::Paper();
  cluster.timeout_seconds = 1e9;
  SimExecutor executor(cluster);
  auto at_1m = executor.Run(DenseProblem(1000000, 1000, 1000000),
                            mm::RmmMethod(), {});
  ASSERT_TRUE(at_1m.ok());
  EXPECT_TRUE(at_1m->outcome.ok()) << at_1m->outcome;
  auto at_1p5m = executor.Run(DenseProblem(1500000, 1000, 1000000),
                              mm::RmmMethod(), {});
  ASSERT_TRUE(at_1p5m.ok());
  EXPECT_TRUE(at_1p5m->outcome.IsExceedsDiskCapacity()) << at_1p5m->outcome;
}

TEST(SimExecutorTest, CommunicationMatchesAnalyticModel) {
  // The per-task accounting must reproduce the Table 2 closed forms.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  const MMProblem p = DenseProblem(20000, 20000, 20000);

  // CuboidMM (P,Q,R) = (4,5,2): repartition = Q·|A| + P·|B| bytes.
  mm::CuboidMethod cuboid(mm::CuboidSpec{4, 5, 2});
  auto report = executor.Run(p, cuboid, {});
  ASSERT_TRUE(report.ok());
  const double a_bytes = p.a.StoredBytes();
  EXPECT_NEAR(report->repartition_bytes, 5 * a_bytes + 4 * a_bytes,
              0.01 * a_bytes);
  // Aggregation = R·|C| bytes.
  EXPECT_NEAR(report->aggregation_bytes, 2 * p.C().StoredBytes(),
              0.01 * a_bytes);

  // RMM: J·|A| + I·|B| and K·|C|.
  auto rmm_report = executor.Run(p, mm::RmmMethod(), {});
  ASSERT_TRUE(rmm_report.ok());
  EXPECT_NEAR(rmm_report->repartition_bytes, 20 * a_bytes + 20 * a_bytes,
              0.01 * 40 * a_bytes);
  EXPECT_NEAR(rmm_report->aggregation_bytes, 20 * p.C().StoredBytes(),
              0.01 * 20 * a_bytes);
}

TEST(SimExecutorTest, GpuFasterThanCpuOnDense) {
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  const MMProblem p = DenseProblem(40000, 40000, 40000);
  const mm::CuboidMethod method = OptimalCuboid(p, cluster);
  auto cpu = executor.Run(p, method, {});
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;
  auto accelerated = executor.Run(p, method, gpu);
  ASSERT_TRUE(cpu.ok() && accelerated.ok());
  ASSERT_TRUE(cpu->outcome.ok() && accelerated->outcome.ok());
  // Figure 7(a): DistME(G) improves on DistME(C) by several ×.
  EXPECT_GT(cpu->elapsed_seconds / accelerated->elapsed_seconds, 1.5);
  EXPECT_GT(accelerated->gpu_utilization, 0.5);
  EXPECT_GT(accelerated->pcie_bytes, 0.0);
}

TEST(SimExecutorTest, StreamingBeatsBlockLevelGpu) {
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  const MMProblem p = DenseProblem(40000, 40000, 40000);
  const mm::CuboidMethod method = OptimalCuboid(p, cluster);
  SimOptions streaming;
  streaming.mode = ComputeMode::kGpuStreaming;
  SimOptions block;
  block.mode = ComputeMode::kGpuBlock;
  auto fast = executor.Run(p, method, streaming);
  auto slow = executor.Run(p, method, block);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_LT(fast->steps.multiply_seconds, slow->steps.multiply_seconds);
  EXPECT_LT(fast->pcie_bytes, slow->pcie_bytes);
  EXPECT_GT(fast->gpu_utilization, slow->gpu_utilization);
}

TEST(SimExecutorTest, RmmDowngradesToBlockLevelGpu) {
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  SimOptions gpu;
  gpu.mode = ComputeMode::kGpuStreaming;
  auto report =
      executor.Run(DenseProblem(20000, 20000, 20000), mm::RmmMethod(), gpu);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mode, ComputeMode::kGpuBlock);
}

TEST(SimExecutorTest, MaterializedMapOutputsOom) {
  // MatFast's naive CPMM: the whole |C| working set per task.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  const MMProblem p = DenseProblem(40000, 40000, 40000);
  SimOptions naive;
  naive.materialize_map_outputs = true;
  auto report = executor.Run(p, mm::CpmmMethod(), naive);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->outcome.IsOutOfMemory());
  // Spill-tolerant execution (SystemML-style) survives the same problem.
  auto spilling = executor.Run(p, mm::CpmmMethod(), {});
  ASSERT_TRUE(spilling.ok());
  EXPECT_TRUE(spilling->outcome.ok()) << spilling->outcome;
}

TEST(SimExecutorTest, ResidentArraysOomForHpc) {
  // Table 5: ScaLAPACK/SciDB O.O.M. at 500K×1K×500K because whole local
  // matrices live as single arrays.
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  auto report = executor.Run(DenseProblem(500000, 1000, 500000),
                             mm::SummaMethod(), {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->outcome.IsOutOfMemory());
  // DistME(C) survives (57 m in Table 5) — needs the relaxed time limit the
  // paper evidently used for Table 5.
  ClusterConfig patient = cluster;
  patient.timeout_seconds = 7200;
  SimExecutor patient_executor(patient);
  const MMProblem p = DenseProblem(500000, 1000, 500000);
  auto cuboid = patient_executor.Run(p, OptimalCuboid(p, patient), {});
  ASSERT_TRUE(cuboid.ok());
  EXPECT_TRUE(cuboid->outcome.ok()) << cuboid->outcome;
}

TEST(SimExecutorTest, SparseProblemsCheaper) {
  const ClusterConfig cluster = ClusterConfig::Paper();
  SimExecutor executor(cluster);
  MMProblem dense = DenseProblem(500000, 1000000, 1000);
  MMProblem sparse = dense;
  sparse.a.sparsity = 1e-4;
  sparse.a.stored_dense = false;
  auto dense_report = executor.Run(dense, mm::CpmmMethod(), {});
  auto sparse_report = executor.Run(sparse, mm::CpmmMethod(), {});
  ASSERT_TRUE(dense_report.ok() && sparse_report.ok());
  EXPECT_LT(sparse_report->repartition_bytes, dense_report->repartition_bytes);
  EXPECT_LT(sparse_report->steps.multiply_seconds,
            dense_report->steps.multiply_seconds);
}

TEST(SimExecutorTest, InvalidProblemIsError) {
  SimExecutor executor(ClusterConfig::Paper());
  mm::MMProblem bad;
  bad.a = mm::MatrixDescriptor::Dense(100, 50, 10);
  bad.b = mm::MatrixDescriptor::Dense(60, 100, 10);
  EXPECT_FALSE(executor.Run(bad, mm::BmmMethod(), {}).ok());
}

}  // namespace
}  // namespace distme::engine
