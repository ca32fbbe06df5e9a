// CommMatrix: per-(source node, destination node, stage) byte accounting for
// shuffle traffic. DistME's evaluation is driven by *where bytes move*
// (CuboidMM wins on shuffle volume — paper §4, Fig. 7), so each executor run
// builds one of these, sized to its cluster: RealExecutor records every
// remote block fetch and aggregation emit with its true endpoints;
// SimExecutor spreads each task's modelled transfer volume over the
// uniform-hash block homes. The run's snapshot is its MMReport::comm.
//
// Recording is lock-free (a relaxed atomic add into a dense grid), so task
// threads can hammer it without coordination. Analysis happens on immutable
// snapshots: totals, per-link max, and the skew ratio (max link over mean
// off-diagonal link — 1.0 for perfectly balanced all-to-all, N·(N−1) when a
// single link carries everything).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace distme::obs {

class JsonWriter;

/// \brief Which of the paper's communication steps a transfer belongs to.
enum class CommStage { kRepartition = 0, kAggregation = 1 };

inline constexpr int kNumCommStages = 2;

const char* CommStageName(CommStage stage);

/// \brief An immutable copy of a CommMatrix over all of its nodes.
struct CommMatrixSnapshot {
  int num_nodes = 0;
  /// cells[stage][src * num_nodes + dst], bytes.
  std::array<std::vector<int64_t>, kNumCommStages> cells;

  bool empty() const { return num_nodes == 0; }

  /// \brief Bytes moved src → dst in `stage` (0 for out-of-range nodes).
  int64_t Bytes(CommStage stage, int src, int dst) const;
  /// \brief Bytes moved src → dst summed over stages.
  int64_t LinkBytes(int src, int dst) const;

  int64_t TotalBytes() const;
  int64_t TotalBytes(CommStage stage) const;

  /// \brief The heaviest network link (off-diagonal; diagonal cells are
  /// node-local traffic and never contend for a NIC).
  int64_t MaxLinkBytes() const;
  /// \brief Off-diagonal total divided by the N·(N−1) possible links.
  double MeanLinkBytes() const;
  /// \brief Links (off-diagonal) that moved at least one byte.
  int ActiveLinks() const;
  /// \brief Max link over mean link: 1.0 = balanced all-to-all, higher =
  /// skewed (a straggling link). 0 when nothing crossed the network.
  double SkewRatio() const;

  /// \brief Appends {"num_nodes":…, "total_bytes":…, …, "stages":{…}}.
  void AppendJson(JsonWriter* writer) const;
};

/// \brief Thread-safe recorder of one run's per-link shuffle traffic over
/// the nodes 0..num_nodes−1 of its cluster. Record() is a relaxed atomic
/// add — safe from any number of task threads.
class CommMatrix {
 public:
  /// \brief A zeroed grid over `num_nodes` nodes (clamped at 0).
  explicit CommMatrix(int num_nodes);

  CommMatrix(const CommMatrix&) = delete;
  CommMatrix& operator=(const CommMatrix&) = delete;

  /// \brief Accounts `bytes` moved src → dst during `stage`. Negative or
  /// zero byte counts and node ids outside [0, num_nodes) are ignored.
  void Record(CommStage stage, int src, int dst, int64_t bytes);

  int num_nodes() const { return num_nodes_; }

  CommMatrixSnapshot Snapshot() const;

 private:
  size_t CellIndex(CommStage stage, int src, int dst) const {
    const auto n = static_cast<size_t>(num_nodes_);
    return (static_cast<size_t>(stage) * n + static_cast<size_t>(src)) * n +
           static_cast<size_t>(dst);
  }

  const int num_nodes_;
  std::vector<std::atomic<int64_t>> cells_
      DISTME_LOCKFREE("sized in ctor; cells are relaxed atomics");
};

}  // namespace distme::obs
