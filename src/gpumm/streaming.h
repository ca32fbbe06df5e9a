// The Algorithm-1 streaming executor: processes one cuboid on the (software)
// GPU, subcuboid by subcuboid, with per-j-column streams, chunked A copies,
// block-wise asynchronous B copies, and C kept resident across the k-axis.

#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "gpu/device.h"
#include "gpumm/subcuboid.h"
#include "matrix/block.h"
#include "matrix/block_grid.h"
#include "mm/plan.h"

namespace distme::gpumm {

/// \brief Provides the input blocks of a cuboid to the streaming executor.
///
/// Implementations back this with the distributed store (real executor) or a
/// local grid (tests).
class BlockSource {
 public:
  virtual ~BlockSource() = default;
  /// \brief A block of the left operand at block index (i, k).
  [[nodiscard]] virtual Result<Block> GetA(int64_t i, int64_t k) = 0;
  /// \brief A block of the right operand at block index (k, j).
  [[nodiscard]] virtual Result<Block> GetB(int64_t k, int64_t j) = 0;
};

/// \brief BlockSource over two local BlockGrids.
class GridBlockSource : public BlockSource {
 public:
  GridBlockSource(const BlockGrid* a, const BlockGrid* b) : a_(a), b_(b) {}
  [[nodiscard]] Result<Block> GetA(int64_t i, int64_t k) override {
    return a_->Get({i, k});
  }
  [[nodiscard]] Result<Block> GetB(int64_t k, int64_t j) override {
    return b_->Get({k, j});
  }

 private:
  const BlockGrid* a_;
  const BlockGrid* b_;
};

/// \brief BlockSource over blocks staged ahead of compute — the handoff
/// buffer between the real executor's (possibly asynchronous) fetch stage
/// and the streaming path.
///
/// The fetch stage Stage()s each input block as it lands; the compute stage
/// then hands the whole source to RunCuboidOnGpu (or reads blocks directly
/// via A()/B() for CPU kernels). Ownership moves fetch → compute through a
/// pipeline queue, so exactly one thread touches the source at any instant
/// and no locking is needed here. With a prefetch depth ≥ 1 the executor
/// keeps one staged source feeding the GPU while the next fills — the
/// double-buffered staging handoff.
class StagedBlockSource : public BlockSource {
 public:
  [[nodiscard]] Result<Block> GetA(int64_t i, int64_t k) override {
    auto it = a_.find({i, k});
    if (it == a_.end()) return Status::KeyError("A block not staged");
    return it->second;
  }
  [[nodiscard]] Result<Block> GetB(int64_t k, int64_t j) override {
    auto it = b_.find({k, j});
    if (it == b_.end()) return Status::KeyError("B block not staged");
    return it->second;
  }

  void StageA(int64_t i, int64_t k, Block block) {
    a_[{i, k}] = std::move(block);
  }
  void StageB(int64_t k, int64_t j, Block block) {
    b_[{k, j}] = std::move(block);
  }

  bool HasA(int64_t i, int64_t k) const { return a_.count({i, k}) > 0; }
  bool HasB(int64_t k, int64_t j) const { return b_.count({k, j}) > 0; }

  /// \brief Borrow a staged block (must have been staged; compute side).
  const Block& A(int64_t i, int64_t k) const { return a_.at({i, k}); }
  const Block& B(int64_t k, int64_t j) const { return b_.at({k, j}); }

  size_t staged_blocks() const { return a_.size() + b_.size(); }

 private:
  std::unordered_map<BlockIndex, Block, BlockIndexHash> a_;
  std::unordered_map<BlockIndex, Block, BlockIndexHash> b_;
};

/// \brief Output of processing one cuboid on the GPU.
struct GpuCuboidResult {
  /// Accumulated C blocks keyed by global (block-row, block-col). Partial
  /// results if the cuboid does not span the full k-axis.
  std::map<std::pair<int64_t, int64_t>, DenseMatrix> c_blocks;
  /// The (P2*, Q2*, R2*) used.
  OptimizedSubcuboid subcuboid;
  /// Device counters attributable to this cuboid (deltas).
  gpu::DeviceStats stats;
  /// Virtual completion time of the task's device work.
  double device_seconds = 0;
};

/// \brief Runs Algorithm 1 for the cuboid `box` (a kBox VoxelSet in the
/// global voxel space of A × B).
///
/// `theta_g` is the per-task GPU memory budget θg used by the subcuboid
/// optimizer and enforced when allocating the A/B/C buffers.
///
/// When the device has a flight recorder attached
/// (gpu::Device::AttachFlight), every H2D chunk copy, B-block copy, kernel
/// launch, and D2H writeback this function enqueues becomes a device
/// interval event pair tagged with a process-wide cuboid id and the
/// subcuboid index, which obs::AnalyzeGpuTimeline folds into per-cuboid
/// overlap reports.
///
/// Device buffers are released on every exit path — a failing BlockSource
/// or enqueue mid-stream returns a clean Status without leaking device
/// memory.
[[nodiscard]] Result<GpuCuboidResult> RunCuboidOnGpu(const mm::VoxelSet& box,
                                       const BlockedShape& a_shape,
                                       const BlockedShape& b_shape,
                                       BlockSource* source,
                                       gpu::Device* device, int64_t theta_g);

}  // namespace distme::gpumm
