#include <gtest/gtest.h>

#include "blas/local_mm.h"
#include "gpumm/streaming.h"
#include "matrix/generator.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_timeline.h"

namespace distme::gpumm {
namespace {

struct Inputs {
  BlockGrid a;
  BlockGrid b;
};

Inputs MakeInputs(int64_t i_elems, int64_t k_elems, int64_t j_elems,
                 int64_t bs, double sparsity = 1.0) {
  GeneratorOptions ga;
  ga.rows = i_elems;
  ga.cols = k_elems;
  ga.block_size = bs;
  ga.sparsity = sparsity;
  ga.seed = 100;
  GeneratorOptions gb;
  gb.rows = k_elems;
  gb.cols = j_elems;
  gb.block_size = bs;
  gb.sparsity = 1.0;
  gb.seed = 101;
  return {GenerateUniform(ga), GenerateUniform(gb)};
}

// Assembles the streaming result into a dense matrix over the cuboid's C
// extent for comparison with the local reference.
DenseMatrix AssembleC(const GpuCuboidResult& result, const BlockedShape& c_shape,
                      int64_t bs) {
  DenseMatrix out(c_shape.rows, c_shape.cols);
  for (const auto& [key, block] : result.c_blocks) {
    const int64_t r0 = key.first * bs;
    const int64_t c0 = key.second * bs;
    for (int64_t r = 0; r < block.rows(); ++r) {
      for (int64_t c = 0; c < block.cols(); ++c) {
        out.Set(r0 + r, c0 + c, block.At(r, c));
      }
    }
  }
  return out;
}

TEST(StreamingTest, FullCuboidMatchesReference) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(40, 48, 32, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  const auto box = mm::VoxelSet::Box(0, 5, 0, 4, 0, 6);  // whole problem
  auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                               &device, 4 * kMiB);
  ASSERT_TRUE(result.ok());
  auto expected = blas::LocalMultiply(s.a, s.b);
  ASSERT_TRUE(expected.ok());
  DenseMatrix got = AssembleC(*result, expected->shape(), bs);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(got, expected->ToDense()), 1e-9);
}

TEST(StreamingTest, PartialCuboidProducesPartialProducts) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(32, 64, 24, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  // Two cuboids along k: (0..4) and (4..8); their sums must equal the
  // reference (the matrix aggregation step of Figure 4).
  auto r1 = RunCuboidOnGpu(mm::VoxelSet::Box(0, 4, 0, 3, 0, 4), s.a.shape(),
                           s.b.shape(), &source, &device, 4 * kMiB);
  auto r2 = RunCuboidOnGpu(mm::VoxelSet::Box(0, 4, 0, 3, 4, 8), s.a.shape(),
                           s.b.shape(), &source, &device, 4 * kMiB);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto expected = blas::LocalMultiply(s.a, s.b);
  ASSERT_TRUE(expected.ok());
  DenseMatrix sum = AssembleC(*r1, expected->shape(), bs);
  DenseMatrix part2 = AssembleC(*r2, expected->shape(), bs);
  for (int64_t i = 0; i < sum.num_elements(); ++i) {
    sum.mutable_data()[i] += part2.data()[i];
  }
  EXPECT_LT(DenseMatrix::MaxAbsDiff(sum, expected->ToDense()), 1e-9);
}

TEST(StreamingTest, TightGpuMemoryForcesMoreIterations) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(32, 64, 32, bs);
  const auto box = mm::VoxelSet::Box(0, 4, 0, 4, 0, 8);

  GridBlockSource source1(&s.a, &s.b);
  gpu::Device roomy(GpuSpec{}, HardwareModel{});
  auto big = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source1, &roomy,
                            64 * kMiB);
  ASSERT_TRUE(big.ok());

  GridBlockSource source2(&s.a, &s.b);
  gpu::Device tight(GpuSpec{}, HardwareModel{});
  // Just enough for a few blocks: forces (P2,Q2,R2) with many subcuboids.
  auto small = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source2, &tight,
                              24 * 1024);
  ASSERT_TRUE(small.ok());
  EXPECT_GT(small->subcuboid.spec.num_cuboids(),
            big->subcuboid.spec.num_cuboids());
  // Same answer regardless of partitioning.
  auto expected = blas::LocalMultiply(s.a, s.b);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(AssembleC(*small, expected->shape(), bs),
                                    expected->ToDense()),
            1e-9);
}

TEST(StreamingTest, CBytesCrossPcieOnce) {
  // Eq. (6): C stays resident along the k-axis and crosses PCI-E once
  // (D2H), regardless of R2.
  const int64_t bs = 8;
  Inputs s = MakeInputs(16, 64, 16, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  const auto box = mm::VoxelSet::Box(0, 2, 0, 2, 0, 8);
  auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                               &device, 16 * 1024);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->subcuboid.spec.R, 1);
  // D2H = exactly the C tiles, once each: 2×2 blocks of 8×8 doubles.
  EXPECT_EQ(result->stats.d2h_bytes, 4 * 8 * 8 * 8);
}

TEST(StreamingTest, RejectsNonBoxVoxelSets) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(16, 16, 16, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  const auto strided = mm::VoxelSet::Strided(2, 2, 2, 0, 3);
  auto result = RunCuboidOnGpu(strided, s.a.shape(), s.b.shape(), &source,
                               &device, 4 * kMiB);
  EXPECT_FALSE(result.ok());
}

TEST(StreamingTest, SparseInputsWork) {
  const int64_t bs = 10;
  Inputs s = MakeInputs(40, 50, 30, bs, /*sparsity=*/0.1);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  const auto box = mm::VoxelSet::Box(0, 4, 0, 3, 0, 5);
  auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                               &device, 4 * kMiB);
  ASSERT_TRUE(result.ok());
  auto expected = blas::LocalMultiply(s.a, s.b);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(AssembleC(*result, expected->shape(), bs),
                                    expected->ToDense()),
            1e-9);
}

// BlockSource that fails after serving `budget` blocks — exercises the
// error paths in the middle of the streaming loop.
class FailingBlockSource : public BlockSource {
 public:
  FailingBlockSource(const BlockGrid* a, const BlockGrid* b, int budget,
                     bool fail_a)
      : inner_(a, b), budget_(budget), fail_a_(fail_a) {}

  [[nodiscard]] Result<Block> GetA(int64_t i, int64_t k) override {
    if (fail_a_ && --budget_ < 0) {
      return Status::IOError("injected GetA failure");
    }
    return inner_.GetA(i, k);
  }
  [[nodiscard]] Result<Block> GetB(int64_t k, int64_t j) override {
    if (!fail_a_ && --budget_ < 0) {
      return Status::IOError("injected GetB failure");
    }
    return inner_.GetB(k, j);
  }

 private:
  GridBlockSource inner_;
  int budget_ = 0;
  bool fail_a_ = true;
};

// A failing source mid-stream must surface a clean Status, release every
// device allocation (no leak), and leave the flight ring with balanced
// begin/end interval events — AnalyzeGpuTimeline still produces a
// well-formed report from the truncated run.
TEST(StreamingTest, FailingSourcePropagatesAndLeaksNothing) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(32, 48, 32, bs);
  const auto box = mm::VoxelSet::Box(0, 4, 0, 4, 0, 6);
  for (const bool fail_a : {true, false}) {
    for (const int budget : {0, 1, 3, 7}) {
      FailingBlockSource source(&s.a, &s.b, budget, fail_a);
      gpu::Device device(GpuSpec{}, HardwareModel{});
      obs::FlightRecorder flight(4096);
      device.AttachFlight(&flight, 0, 0);
      const int64_t memory_before = device.memory_used();
      auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                                   &device, 4 * kMiB);
      ASSERT_FALSE(result.ok())
          << "fail_a=" << fail_a << " budget=" << budget;
      EXPECT_NE(result.status().ToString().find("injected"),
                std::string::npos)
          << result.status().ToString();
      // All device buffers released on the error path.
      EXPECT_EQ(device.memory_used(), memory_before)
          << "fail_a=" << fail_a << " budget=" << budget;
      // Every emitted begin has its end (pairs are emitted back to back).
      int begins = 0;
      int ends = 0;
      for (const obs::FlightEvent& e : flight.Snapshot()) {
        switch (e.type) {
          case obs::FlightEventType::kGpuH2dBegin:
          case obs::FlightEventType::kGpuD2hBegin:
          case obs::FlightEventType::kGpuKernelBegin:
            ++begins;
            break;
          case obs::FlightEventType::kGpuH2dEnd:
          case obs::FlightEventType::kGpuD2hEnd:
          case obs::FlightEventType::kGpuKernelEnd:
            ++ends;
            break;
          default:
            break;
        }
      }
      EXPECT_EQ(begins, ends);
      // The truncated timeline still tiles its window.
      const obs::GpuTimelineAnalysis analysis =
          obs::AnalyzeGpuTimeline(flight.Snapshot());
      for (const obs::GpuDeviceTimeline& dev : analysis.devices) {
        EXPECT_EQ(dev.report.kernel_bound_us + dev.report.h2d_bound_us +
                      dev.report.d2h_bound_us + dev.report.bubble_us,
                  dev.report.window_us());
      }
    }
  }
}

// The success path releases the A/B/C buffers too: memory returns to the
// pre-call level and the occupancy marks recorded the high water.
TEST(StreamingTest, SuccessReleasesAllDeviceBuffers) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(16, 16, 16, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  obs::FlightRecorder flight(4096);
  device.AttachFlight(&flight, 0, 0);
  const auto box = mm::VoxelSet::Box(0, 2, 0, 2, 0, 2);
  auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                               &device, 4 * kMiB);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(device.memory_used(), 0);
  const obs::GpuTimelineAnalysis analysis =
      obs::AnalyzeGpuTimeline(flight.Snapshot());
  ASSERT_EQ(analysis.devices.size(), 1u);
  EXPECT_GT(analysis.devices[0].occupancy_high_water_bytes, 0);
  // One cuboid id tagged throughout.
  EXPECT_EQ(analysis.devices[0].cuboids.size(), 1u);
}

TEST(StreamingTest, DeviceTimeAdvances) {
  const int64_t bs = 8;
  Inputs s = MakeInputs(16, 16, 16, bs);
  GridBlockSource source(&s.a, &s.b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  const auto box = mm::VoxelSet::Box(0, 2, 0, 2, 0, 2);
  auto result = RunCuboidOnGpu(box, s.a.shape(), s.b.shape(), &source,
                               &device, 4 * kMiB);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->device_seconds, 0.0);
  EXPECT_EQ(result->stats.kernel_calls, 8);  // one per voxel
}

}  // namespace
}  // namespace distme::gpumm
