#include "obs/comm_matrix.h"

#include <algorithm>

#include "obs/export.h"

namespace distme::obs {

const char* CommStageName(CommStage stage) {
  switch (stage) {
    case CommStage::kRepartition:
      return "repartition";
    case CommStage::kAggregation:
      return "aggregation";
  }
  return "?";
}

CommMatrix::CommMatrix(int num_nodes)
    : num_nodes_(std::max(num_nodes, 0)),
      cells_(static_cast<size_t>(kNumCommStages) *
             static_cast<size_t>(num_nodes_) *
             static_cast<size_t>(num_nodes_)) {}

void CommMatrix::Record(CommStage stage, int src, int dst, int64_t bytes) {
  if (bytes <= 0 || src < 0 || dst < 0 || src >= num_nodes_ ||
      dst >= num_nodes_) {
    return;
  }
  cells_[CellIndex(stage, src, dst)].fetch_add(bytes,
                                               std::memory_order_relaxed);
}

CommMatrixSnapshot CommMatrix::Snapshot() const {
  CommMatrixSnapshot snapshot;
  snapshot.num_nodes = num_nodes_;
  const size_t per_stage =
      static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_);
  for (size_t s = 0; s < static_cast<size_t>(kNumCommStages); ++s) {
    snapshot.cells[s].reserve(per_stage);
    for (size_t i = 0; i < per_stage; ++i) {
      snapshot.cells[s].push_back(
          cells_[s * per_stage + i].load(std::memory_order_relaxed));
    }
  }
  return snapshot;
}

int64_t CommMatrixSnapshot::Bytes(CommStage stage, int src, int dst) const {
  if (src < 0 || dst < 0 || src >= num_nodes || dst >= num_nodes) return 0;
  return cells[static_cast<size_t>(stage)]
              [static_cast<size_t>(src) * static_cast<size_t>(num_nodes) +
               static_cast<size_t>(dst)];
}

int64_t CommMatrixSnapshot::LinkBytes(int src, int dst) const {
  return Bytes(CommStage::kRepartition, src, dst) +
         Bytes(CommStage::kAggregation, src, dst);
}

int64_t CommMatrixSnapshot::TotalBytes(CommStage stage) const {
  int64_t total = 0;
  for (int64_t cell : cells[static_cast<size_t>(stage)]) total += cell;
  return total;
}

int64_t CommMatrixSnapshot::TotalBytes() const {
  return TotalBytes(CommStage::kRepartition) +
         TotalBytes(CommStage::kAggregation);
}

int64_t CommMatrixSnapshot::MaxLinkBytes() const {
  int64_t max = 0;
  for (int src = 0; src < num_nodes; ++src) {
    for (int dst = 0; dst < num_nodes; ++dst) {
      if (src == dst) continue;
      max = std::max(max, LinkBytes(src, dst));
    }
  }
  return max;
}

double CommMatrixSnapshot::MeanLinkBytes() const {
  if (num_nodes < 2) return 0.0;
  int64_t off_diagonal = 0;
  for (int src = 0; src < num_nodes; ++src) {
    for (int dst = 0; dst < num_nodes; ++dst) {
      if (src != dst) off_diagonal += LinkBytes(src, dst);
    }
  }
  return static_cast<double>(off_diagonal) /
         (static_cast<double>(num_nodes) * (num_nodes - 1));
}

int CommMatrixSnapshot::ActiveLinks() const {
  int active = 0;
  for (int src = 0; src < num_nodes; ++src) {
    for (int dst = 0; dst < num_nodes; ++dst) {
      active += src != dst && LinkBytes(src, dst) > 0;
    }
  }
  return active;
}

double CommMatrixSnapshot::SkewRatio() const {
  const double mean = MeanLinkBytes();
  if (mean <= 0.0) return 0.0;
  return static_cast<double>(MaxLinkBytes()) / mean;
}

void CommMatrixSnapshot::AppendJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("num_nodes");
  writer->Value(num_nodes);
  writer->Key("total_bytes");
  writer->Value(TotalBytes());
  writer->Key("max_link_bytes");
  writer->Value(MaxLinkBytes());
  writer->Key("mean_link_bytes");
  writer->Value(MeanLinkBytes());
  writer->Key("active_links");
  writer->Value(ActiveLinks());
  writer->Key("skew_ratio");
  writer->Value(SkewRatio());
  writer->Key("stages");
  writer->BeginObject();
  for (int s = 0; s < kNumCommStages; ++s) {
    const auto stage = static_cast<CommStage>(s);
    writer->Key(CommStageName(stage));
    writer->BeginObject();
    writer->Key("total_bytes");
    writer->Value(TotalBytes(stage));
    writer->Key("bytes");
    writer->BeginArray();  // row-major [src][dst]
    for (int src = 0; src < num_nodes; ++src) {
      writer->BeginArray();
      for (int dst = 0; dst < num_nodes; ++dst) {
        writer->Value(Bytes(stage, src, dst));
      }
      writer->EndArray();
    }
    writer->EndArray();
    writer->EndObject();
  }
  writer->EndObject();
  writer->EndObject();
}

}  // namespace distme::obs
