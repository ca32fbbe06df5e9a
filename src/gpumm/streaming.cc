#include "gpumm/streaming.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "blas/block_ops.h"
#include "mm/method.h"
#include "obs/gpu_timeline.h"

namespace distme::gpumm {

namespace {

// Dense worst-case bytes of a sub-rectangle of blocks.
double DenseBytes(const BlockedShape& shape, int64_t row_blocks,
                  int64_t col_blocks) {
  const double bs = static_cast<double>(shape.block_size);
  return static_cast<double>(row_blocks) * col_blocks * bs * bs *
         kElementBytes;
}

// Process-wide cuboid id for flight-event tagging: every RunCuboidOnGpu
// invocation gets a distinct label so per-cuboid overlap reports never mix
// two cuboids, even across concurrent tasks. Wraps short of the packed-tag
// field's untagged sentinel.
int64_t NextCuboidId() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) %
         obs::kGpuNoCuboidId;
}

// Frees the cuboid's device buffers on every exit path: an early error
// return (a failed BlockSource fetch, an enqueue failure) must not leak
// device memory. The success path frees through FreeAll() so a Free error
// still surfaces as a Status.
class BufferGuard {
 public:
  explicit BufferGuard(gpu::Device* device) : device_(device) {}
  BufferGuard(const BufferGuard&) = delete;
  BufferGuard& operator=(const BufferGuard&) = delete;
  ~BufferGuard() {
    for (const gpu::BufferId id : ids_) device_->Free(id).IgnoreError();
  }

  void Add(gpu::BufferId id) { ids_.push_back(id); }

  [[nodiscard]] Status FreeAll() {
    Status first = Status::OK();
    for (const gpu::BufferId id : ids_) {
      Status st = device_->Free(id);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    ids_.clear();
    return first;
  }

 private:
  gpu::Device* device_;
  std::vector<gpu::BufferId> ids_;
};

}  // namespace

Result<GpuCuboidResult> RunCuboidOnGpu(const mm::VoxelSet& box,
                                       const BlockedShape& a_shape,
                                       const BlockedShape& b_shape,
                                       BlockSource* source,
                                       gpu::Device* device, int64_t theta_g) {
  if (!box.is_box()) {
    return Status::Invalid(
        "cuboid-level GPU streaming requires a box voxel set "
        "(hash-partitioned tasks only support block-level execution)");
  }
  const gpu::DeviceStats before = device->stats();
  const double t_before = device->Synchronize();

  // ---- Lines 1-5 of Algorithm 1: optimize and partition. --------------
  SubcuboidProblem sp;
  sp.i_blocks = box.i_count();
  sp.j_blocks = box.j_count();
  sp.k_blocks = box.k_count();
  // Worst-case dense estimates, as the planner uses (Section 2.2.2).
  sp.a_bytes = DenseBytes(a_shape, sp.i_blocks, sp.k_blocks);
  sp.b_bytes = DenseBytes(b_shape, sp.k_blocks, sp.j_blocks);
  sp.c_bytes = DenseBytes(a_shape, sp.i_blocks, sp.j_blocks);
  const double bs = static_cast<double>(a_shape.block_size);
  sp.flops = 2.0 * static_cast<double>(box.size()) * bs * bs * bs;

  DISTME_ASSIGN_OR_RETURN(OptimizedSubcuboid sub,
                          OptimizeSubcuboid(sp, theta_g));
  const auto [p2, q2, r2] = sub.spec;

  // Subcuboid extent along J drives the stream count (Lines 6-7); the I
  // extent only shapes the per-stream accumulators sized below.
  const int64_t j_sub = BlockedShape::CeilDiv(sp.j_blocks, q2);

  // ---- Lines 6-7: create J' streams, allocate buffers. ----------------
  std::vector<gpu::StreamId> streams;
  streams.reserve(static_cast<size_t>(j_sub));
  for (int64_t j = 0; j < j_sub; ++j) streams.push_back(device->CreateStream());

  const int64_t buf_a = static_cast<int64_t>(sp.a_bytes / (p2 * r2)) + 1;
  const int64_t buf_b = static_cast<int64_t>(sp.b_bytes / (r2 * q2)) + 1;
  const int64_t buf_c = static_cast<int64_t>(sp.c_bytes / (p2 * q2)) + 1;
  BufferGuard buffers(device);
  DISTME_ASSIGN_OR_RETURN(gpu::BufferId a_id, device->Allocate(buf_a, "BufA"));
  buffers.Add(a_id);
  DISTME_ASSIGN_OR_RETURN(gpu::BufferId b_id, device->Allocate(buf_b, "BufB"));
  buffers.Add(b_id);
  DISTME_ASSIGN_OR_RETURN(gpu::BufferId c_id, device->Allocate(buf_c, "BufC"));
  buffers.Add(c_id);

  // Flight-event tag for this cuboid's device intervals; the device stamps
  // its own ordinal into the packed value (see obs/gpu_timeline.h).
  const int64_t cuboid_id = NextCuboidId();

  GpuCuboidResult result;
  result.subcuboid = sub;

  // C accumulators live host-side (the "device memory" is virtual); one per
  // global (i, j) in the cuboid.
  auto acc_key = [](int64_t i, int64_t j) { return std::make_pair(i, j); };
  auto ensure_acc = [&](int64_t i, int64_t j) -> DenseMatrix* {
    auto key = acc_key(i, j);
    auto it = result.c_blocks.find(key);
    if (it == result.c_blocks.end()) {
      it = result.c_blocks
               .emplace(key, DenseMatrix(a_shape.BlockRowsAt(i),
                                         b_shape.BlockColsAt(j)))
               .first;
    }
    return &it->second;
  };

  // ---- Lines 8-22: process subcuboids, sorted by (p2, q2, r2) with r2
  // fastest so C blocks stay resident along the k-axis. ------------------
  Status kernel_status = Status::OK();
  for (int64_t pi = 0; pi < p2; ++pi) {
    const mm::SplitRange ir = mm::Split(sp.i_blocks, p2, pi);
    for (int64_t qi = 0; qi < q2; ++qi) {
      const mm::SplitRange jr = mm::Split(sp.j_blocks, q2, qi);
      for (int64_t ri = 0; ri < r2; ++ri) {
        const mm::SplitRange kr = mm::Split(sp.k_blocks, r2, ri);

        // Linear subcuboid index for the device's interval tags (r2
        // fastest, the same order this loop nest visits them).
        const int64_t sub_index = (pi * q2 + qi) * r2 + ri;

        // Line 12: copy A' of this subcuboid to BufA as one chunk.
        int64_t a_chunk_bytes = 0;
        std::vector<std::vector<Block>> a_blocks(
            static_cast<size_t>(ir.end - ir.start));
        for (int64_t i = ir.start; i < ir.end; ++i) {
          for (int64_t k = kr.start; k < kr.end; ++k) {
            DISTME_ASSIGN_OR_RETURN(
                Block blk, source->GetA(box.i0() + i, box.k0() + k));
            a_chunk_bytes += blk.SizeBytes();
            a_blocks[static_cast<size_t>(i - ir.start)].push_back(
                std::move(blk));
          }
        }
        const int64_t sub_tag =
            obs::PackGpuTag(0, cuboid_id, sub_index);
        DISTME_RETURN_NOT_OK(
            device->EnqueueH2D(streams[0], a_chunk_bytes, sub_tag));

        // Lines 13-18: per (k, j), async-copy B block on stream j, then
        // launch I' kernels on the same stream.
        for (int64_t k = kr.start; k < kr.end; ++k) {
          for (int64_t j = jr.start; j < jr.end; ++j) {
            const gpu::StreamId stream = streams[static_cast<size_t>(j)];
            DISTME_ASSIGN_OR_RETURN(
                Block b_blk, source->GetB(box.k0() + k, box.j0() + j));
            DISTME_RETURN_NOT_OK(
                device->EnqueueH2D(stream, b_blk.SizeBytes(), sub_tag));
            for (int64_t i = ir.start; i < ir.end; ++i) {
              const Block& a_blk =
                  a_blocks[static_cast<size_t>(i - ir.start)]
                          [static_cast<size_t>(k - kr.start)];
              const bool sparse = a_blk.IsSparse() || b_blk.IsSparse();
              const int64_t flops =
                  sparse ? 2 * std::min(a_blk.nnz(), b_blk.nnz() == 0
                                                         ? a_blk.nnz()
                                                         : b_blk.nnz()) *
                               b_blk.cols()
                         : blas::MultiplyFlops(a_blk.rows(), a_blk.cols(),
                                               b_blk.cols());
              DenseMatrix* acc =
                  ensure_acc(box.i0() + i, box.j0() + j);
              DISTME_RETURN_NOT_OK(device->EnqueueKernel(
                  stream, flops,
                  [&a_blk, &b_blk, acc, &kernel_status]() {
                    Status st =
                        blas::MultiplyAccumulate(a_blk, b_blk, acc);
                    if (!st.ok() && kernel_status.ok()) {
                      kernel_status = std::move(st);
                    }
                  },
                  sparse, sub_tag));
            }
          }
        }

        // Lines 19-21: last subcuboid on the k-axis — copy C' back.
        if (ri == r2 - 1) {
          for (int64_t j = jr.start; j < jr.end; ++j) {
            int64_t c_col_bytes = 0;
            for (int64_t i = ir.start; i < ir.end; ++i) {
              c_col_bytes +=
                  ensure_acc(box.i0() + i, box.j0() + j)->SizeBytes();
            }
            DISTME_RETURN_NOT_OK(device->EnqueueD2H(
                streams[static_cast<size_t>(j)], c_col_bytes, sub_tag));
          }
        }
      }
    }
  }
  DISTME_RETURN_NOT_OK(kernel_status);

  result.device_seconds = device->Synchronize() - t_before;
  const gpu::DeviceStats after = device->stats();
  result.stats.h2d_bytes = after.h2d_bytes - before.h2d_bytes;
  result.stats.d2h_bytes = after.d2h_bytes - before.d2h_bytes;
  result.stats.kernel_calls = after.kernel_calls - before.kernel_calls;
  result.stats.h2d_seconds = after.h2d_seconds - before.h2d_seconds;
  result.stats.d2h_seconds = after.d2h_seconds - before.d2h_seconds;
  result.stats.kernel_seconds = after.kernel_seconds - before.kernel_seconds;
  result.stats.h2d_copies = after.h2d_copies - before.h2d_copies;
  result.stats.d2h_copies = after.d2h_copies - before.d2h_copies;

  DISTME_RETURN_NOT_OK(buffers.FreeAll());
  return result;
}

}  // namespace distme::gpumm
