// Randomized differential suite for the RealExecutor prefetch pipeline:
// generated cases sweep shape, block size, sparsity, method (Cuboid / RMM /
// CPMM), cluster size, and prefetch depth (including depth 0, where every
// attempt fetches inline). Every pipelined run must agree BIT-FOR-BIT with its
// depth-0 twin — aggregation merges partials in deterministic k-order, so
// overlap must never change result bits. Non-aggregating runs additionally
// agree bit-for-bit with blas::LocalMultiply (one task covers the full k
// range per output block, accumulated in the same ascending-k order);
// aggregating methods group the k-axis differently from the local reference,
// so there the comparison is tolerance-based.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "blas/local_mm.h"
#include "engine/real_executor.h"
#include "matrix/generator.h"
#include "mm/methods.h"
#include "obs/flight_recorder.h"

namespace distme::engine {
namespace {

struct CaseShape {
  int64_t rows_a;
  int64_t inner;
  int64_t cols_b;
};

struct CaseMethod {
  const char* label;
  bool aggregating;
  std::unique_ptr<mm::Method> (*make)();
};

std::unique_ptr<mm::Method> MakeCuboidR1() {
  return std::make_unique<mm::CuboidMethod>(mm::CuboidSpec{2, 2, 1});
}
std::unique_ptr<mm::Method> MakeCuboidR2() {
  return std::make_unique<mm::CuboidMethod>(mm::CuboidSpec{2, 2, 2});
}
std::unique_ptr<mm::Method> MakeRmm() {
  return std::make_unique<mm::RmmMethod>();
}
std::unique_ptr<mm::Method> MakeCpmm() {
  return std::make_unique<mm::CpmmMethod>();
}

bool BitIdentical(const DenseMatrix& x, const DenseMatrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  return std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.num_elements()) *
                         sizeof(double)) == 0;
}

TEST(PipelineDifferentialTest, DepthSweepMatchesLegacyAndLocal) {
  const CaseShape shapes[] = {
      {24, 40, 32}, {48, 48, 48}, {64, 32, 40}, {40, 64, 24}};
  const int64_t block_sizes[] = {8, 16};
  const double sparsities[] = {1.0, 0.5, 0.1};
  const int depths[] = {1, 2, 4};
  const CaseMethod methods[] = {
      {"Cuboid(2,2,1)", false, &MakeCuboidR1},
      {"Cuboid(2,2,2)", true, &MakeCuboidR2},
      {"RMM", true, &MakeRmm},
      {"CPMM", true, &MakeCpmm},
  };
  struct ClusterCase {
    int nodes;
    int slots;
  };
  const ClusterCase clusters[] = {{2, 2}, {3, 2}};

  int case_index = 0;
  uint64_t seed = 1000;
  for (const CaseShape& shape : shapes) {
    for (int64_t bs : block_sizes) {
      for (double sparsity : sparsities) {
        // One input pair per (shape, block size, sparsity); the local
        // reference is cluster-independent.
        GeneratorOptions ga;
        ga.rows = shape.rows_a;
        ga.cols = shape.inner;
        ga.block_size = bs;
        ga.sparsity = sparsity;
        ga.seed = ++seed;
        GeneratorOptions gb = ga;
        gb.rows = shape.inner;
        gb.cols = shape.cols_b;
        gb.seed = ++seed;
        const BlockGrid grid_a = GenerateUniform(ga);
        const BlockGrid grid_b = GenerateUniform(gb);
        auto expected = blas::LocalMultiply(grid_a, grid_b);
        ASSERT_TRUE(expected.ok());
        const DenseMatrix expected_dense = expected->ToDense();

        for (const ClusterCase& cc : clusters) {
          const ClusterConfig cluster =
              ClusterConfig::Local(cc.nodes, cc.slots);
          DistributedMatrix a =
              DistributedMatrix::FromGridHashed(grid_a, cc.nodes);
          DistributedMatrix b =
              DistributedMatrix::FromGridHashed(grid_b, cc.nodes);
          RealExecutor executor(cluster);
          for (const CaseMethod& cm : methods) {
            const int depth = depths[case_index % 3];
            ++case_index;
            SCOPED_TRACE(std::string(cm.label) + " " +
                         std::to_string(shape.rows_a) + "x" +
                         std::to_string(shape.inner) + "x" +
                         std::to_string(shape.cols_b) + " bs" +
                         std::to_string(bs) + " sp" +
                         std::to_string(sparsity) + " nodes" +
                         std::to_string(cc.nodes) + " depth" +
                         std::to_string(depth));
            std::unique_ptr<mm::Method> method = cm.make();

            RealOptions legacy;  // depth 0: fetch, compute, commit inline
            auto run0 = executor.Run(a, b, *method, legacy);
            ASSERT_TRUE(run0.ok());
            ASSERT_TRUE(run0->report.outcome.ok()) << run0->report.outcome;

            RealOptions pipelined;
            pipelined.prefetch_depth = depth;
            auto runk = executor.Run(a, b, *method, pipelined);
            ASSERT_TRUE(runk.ok());
            ASSERT_TRUE(runk->report.outcome.ok()) << runk->report.outcome;

            const DenseMatrix d0 = run0->output->Collect().ToDense();
            const DenseMatrix dk = runk->output->Collect().ToDense();
            // The tentpole invariant: overlap never changes result bits.
            EXPECT_TRUE(BitIdentical(d0, dk));
            if (cm.aggregating) {
              EXPECT_LT(DenseMatrix::MaxAbsDiff(dk, expected_dense), 1e-9);
            } else {
              EXPECT_TRUE(BitIdentical(dk, expected_dense));
            }

            // Pipeline accounting: every task is popped exactly once.
            EXPECT_EQ(runk->report.pipeline.prefetch_depth, depth);
            EXPECT_EQ(runk->report.pipeline.prefetch_hits +
                          runk->report.pipeline.prefetch_stalls,
                      runk->report.num_tasks);
            EXPECT_EQ(run0->report.pipeline.prefetch_depth, 0);
          }
        }
      }
    }
  }
  // The sweep above is the suite's substance: keep it honest if dimensions
  // are edited.
  EXPECT_GE(case_index, 192);
}

TEST(PipelineTest, GpuStreamingDoubleBufferedHandoffIsExact) {
  // The staged handoff feeds RunCuboidOnGpu directly; depth 4 keeps one
  // staged source filling while the previous one streams to the device.
  GeneratorOptions ga;
  ga.rows = 48;
  ga.cols = 48;
  ga.block_size = 8;
  ga.sparsity = 1.0;
  ga.seed = 7;
  GeneratorOptions gb = ga;
  gb.seed = 8;
  const BlockGrid grid_a = GenerateUniform(ga);
  const BlockGrid grid_b = GenerateUniform(gb);
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  DistributedMatrix a = DistributedMatrix::FromGridHashed(grid_a, 2);
  DistributedMatrix b = DistributedMatrix::FromGridHashed(grid_b, 2);
  RealExecutor executor(cluster);
  mm::CuboidMethod method(mm::CuboidSpec{2, 2, 3});

  RealOptions gpu0;
  gpu0.mode = ComputeMode::kGpuStreaming;
  auto run0 = executor.Run(a, b, method, gpu0);
  ASSERT_TRUE(run0.ok());
  ASSERT_TRUE(run0->report.outcome.ok()) << run0->report.outcome;

  RealOptions gpu4 = gpu0;
  gpu4.prefetch_depth = 4;
  auto run4 = executor.Run(a, b, method, gpu4);
  ASSERT_TRUE(run4.ok());
  ASSERT_TRUE(run4->report.outcome.ok()) << run4->report.outcome;

  EXPECT_TRUE(BitIdentical(run0->output->Collect().ToDense(),
                           run4->output->Collect().ToDense()));
  auto expected = blas::LocalMultiply(grid_a, grid_b);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(run4->output->Collect().ToDense(),
                                    expected->ToDense()),
            1e-9);
}

TEST(PipelineTest, StagingBackpressureShrinksPrefetchAndStaysExact) {
  // A staging budget smaller than one task's inputs collapses the pipeline
  // to one-prefetch-in-flight (the gate always admits an oversized task
  // when empty, so it cannot deadlock) — and results are still exact.
  GeneratorOptions ga;
  ga.rows = 64;
  ga.cols = 64;
  ga.block_size = 8;
  ga.sparsity = 1.0;
  ga.seed = 21;
  GeneratorOptions gb = ga;
  gb.seed = 22;
  const BlockGrid grid_a = GenerateUniform(ga);
  const BlockGrid grid_b = GenerateUniform(gb);
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  DistributedMatrix a = DistributedMatrix::FromGridHashed(grid_a, 2);
  DistributedMatrix b = DistributedMatrix::FromGridHashed(grid_b, 2);
  RealExecutor executor(cluster);
  mm::RmmMethod method;

  RealOptions throttled;
  throttled.prefetch_depth = 4;
  throttled.prefetch_staging_bytes = 1;  // every prefetch overshoots
  auto run = executor.Run(a, b, method, throttled);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->report.outcome.ok()) << run->report.outcome;
  EXPECT_GT(run->report.pipeline.backpressure_waits, 0);

  RealOptions legacy;
  auto run0 = executor.Run(a, b, method, legacy);
  ASSERT_TRUE(run0.ok());
  EXPECT_TRUE(BitIdentical(run->output->Collect().ToDense(),
                           run0->output->Collect().ToDense()));
}

TEST(PipelineTest, WorkerCountDoesNotChangeBits) {
  // Deterministic k-order aggregation also makes results independent of
  // worker count and scheduling order — at any depth.
  GeneratorOptions ga;
  ga.rows = 56;
  ga.cols = 40;
  ga.block_size = 8;
  ga.sparsity = 0.5;
  ga.seed = 31;
  GeneratorOptions gb = ga;
  gb.rows = 40;
  gb.cols = 48;
  gb.seed = 32;
  const BlockGrid grid_a = GenerateUniform(ga);
  const BlockGrid grid_b = GenerateUniform(gb);
  mm::CpmmMethod method;

  DenseMatrix reference;
  bool first = true;
  struct ClusterCase {
    int nodes;
    int slots;
    int depth;
  };
  for (const ClusterCase& cc :
       {ClusterCase{1, 1, 0}, ClusterCase{2, 3, 2}, ClusterCase{4, 2, 4}}) {
    SCOPED_TRACE(std::to_string(cc.nodes) + " nodes x " +
                 std::to_string(cc.slots) + " slots, depth " +
                 std::to_string(cc.depth));
    const ClusterConfig cluster = ClusterConfig::Local(cc.nodes, cc.slots);
    DistributedMatrix a = DistributedMatrix::FromGridHashed(grid_a, cc.nodes);
    DistributedMatrix b = DistributedMatrix::FromGridHashed(grid_b, cc.nodes);
    RealExecutor executor(cluster);
    RealOptions options;
    options.prefetch_depth = cc.depth;
    auto run = executor.Run(a, b, method, options);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run->report.outcome.ok()) << run->report.outcome;
    const DenseMatrix dense = run->output->Collect().ToDense();
    if (first) {
      reference = dense;
      first = false;
    } else {
      EXPECT_TRUE(BitIdentical(dense, reference));
    }
  }
}

TEST(PipelineTest, EveryWorkerGetsWorkAtDepthK) {
  // Four tasks on four slots with cheap fetches (in-process, no wire
  // round-trip): every worker slot must start exactly one task. A task's
  // multiply (~67 MFLOP) dwarfs thread start-up, so no worker can finish
  // one task and claim a second before the others pop theirs.
  GeneratorOptions ga;
  ga.rows = 512;
  ga.cols = 512;
  ga.block_size = 128;
  ga.sparsity = 1.0;
  ga.seed = 41;
  GeneratorOptions gb = ga;
  gb.seed = 42;
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  DistributedMatrix a =
      DistributedMatrix::FromGridHashed(GenerateUniform(ga), 2);
  DistributedMatrix b =
      DistributedMatrix::FromGridHashed(GenerateUniform(gb), 2);
  RealExecutor executor(cluster);
  obs::FlightRecorder flight(4096);
  RealOptions options;
  options.prefetch_depth = 2;
  options.serialize_transfers = false;
  options.flight = &flight;
  auto run = executor.Run(a, b, mm::CuboidMethod(mm::CuboidSpec{2, 2, 1}),
                          options);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->report.outcome.ok()) << run->report.outcome;
  ASSERT_EQ(run->report.num_tasks, 4);

  std::map<int, int> starts_per_slot;
  for (const obs::FlightEvent& e : flight.Snapshot()) {
    if (e.type == obs::FlightEventType::kTaskStart) ++starts_per_slot[e.slot];
  }
  const std::map<int, int> balanced = {{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  EXPECT_EQ(starts_per_slot, balanced);
}

TEST(PipelineTest, NegativeDepthRejected) {
  GeneratorOptions ga;
  ga.rows = 16;
  ga.cols = 16;
  ga.block_size = 8;
  ga.sparsity = 1.0;
  ga.seed = 3;
  const BlockGrid grid = GenerateUniform(ga);
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  DistributedMatrix a = DistributedMatrix::FromGridHashed(grid, 2);
  DistributedMatrix b = DistributedMatrix::FromGridHashed(grid, 2);
  RealExecutor executor(cluster);
  RealOptions bad;
  bad.prefetch_depth = -1;
  auto run = executor.Run(a, b, mm::RmmMethod(), bad);
  EXPECT_FALSE(run.ok());
}

}  // namespace
}  // namespace distme::engine
