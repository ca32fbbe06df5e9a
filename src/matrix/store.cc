#include "matrix/store.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "matrix/serialize.h"

namespace distme {

namespace {

constexpr uint64_t kStoreMagic = 0xD157ABCD00B10C45ULL;

struct Header {
  uint64_t magic;
  int64_t rows;
  int64_t cols;
  int64_t block_size;
  int64_t num_blocks;
  int64_t total_nnz;
};

struct IndexEntry {
  int64_t i;
  int64_t j;
  int64_t offset;  // from file start
  int64_t length;
};

class FileCloser {
 public:
  explicit FileCloser(std::FILE* f) : f_(f) {}
  ~FileCloser() {
    if (f_ != nullptr) std::fclose(f_);
  }

  /// \brief Closes now and reports failure (flush errors surface at close;
  /// write paths must call this instead of relying on the destructor, which
  /// has nowhere to report to).
  [[nodiscard]] Status CloseChecked(const std::string& path) {
    std::FILE* f = f_;
    f_ = nullptr;
    if (f != nullptr && std::fclose(f) != 0) {
      return Status::IOError("close failed (data may be lost): " + path);
    }
    return Status::OK();
  }

 private:
  std::FILE* f_;
};

}  // namespace

Status WriteBinaryMatrix(const BlockGrid& grid, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  FileCloser closer(f);

  Header header{kStoreMagic,         grid.shape().rows,
                grid.shape().cols,   grid.shape().block_size,
                grid.num_blocks(),   grid.TotalNnz()};
  std::vector<IndexEntry> index;
  index.reserve(static_cast<size_t>(grid.num_blocks()));

  // Lay out: header, index, payloads.
  int64_t offset = static_cast<int64_t>(sizeof(Header)) +
                   grid.num_blocks() * static_cast<int64_t>(sizeof(IndexEntry));
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(static_cast<size_t>(grid.num_blocks()));
  for (const auto& [idx, block] : grid.blocks()) {
    payloads.push_back(SerializeBlock(block));
    const int64_t length = static_cast<int64_t>(payloads.back().size());
    index.push_back({idx.i, idx.j, offset, length});
    offset += length;
  }

  if (std::fwrite(&header, sizeof(Header), 1, f) != 1) {
    return Status::IOError("short write (header)");
  }
  if (!index.empty() &&
      std::fwrite(index.data(), sizeof(IndexEntry), index.size(), f) !=
          index.size()) {
    return Status::IOError("short write (index)");
  }
  for (const auto& payload : payloads) {
    if (std::fwrite(payload.data(), 1, payload.size(), f) != payload.size()) {
      return Status::IOError("short write (payload)");
    }
  }
  return closer.CloseChecked(path);
}

Result<BinaryMatrixInfo> ReadBinaryMatrixInfo(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  FileCloser closer(f);
  Header header;
  if (std::fread(&header, sizeof(Header), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  if (header.magic != kStoreMagic) {
    return Status::IOError("not a DistME binary matrix: " + path);
  }
  BinaryMatrixInfo info;
  info.shape = BlockedShape{header.rows, header.cols, header.block_size};
  info.num_blocks = header.num_blocks;
  info.total_nnz = header.total_nnz;
  return info;
}

Result<BlockGrid> ReadBinaryMatrix(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  FileCloser closer(f);

  Header header;
  if (std::fread(&header, sizeof(Header), 1, f) != 1) {
    return Status::IOError("truncated header: " + path);
  }
  if (header.magic != kStoreMagic) {
    return Status::IOError("not a DistME binary matrix: " + path);
  }
  if (header.num_blocks < 0 || header.rows < 0 || header.cols < 0 ||
      header.block_size <= 0) {
    return Status::IOError("corrupt header: " + path);
  }
  // Counts and extents are checked against the file's size before anything
  // is allocated, so a corrupt header or index entry cannot ask for more
  // memory than the file could fill.
  if (std::fseek(f, 0, SEEK_END) != 0) return Status::IOError("seek failed");
  const int64_t file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, sizeof(Header), SEEK_SET) != 0) {
    return Status::IOError("seek failed");
  }
  const int64_t index_room =
      (file_size - static_cast<int64_t>(sizeof(Header))) /
      static_cast<int64_t>(sizeof(IndexEntry));
  if (header.num_blocks > index_room) {
    return Status::IOError("index of " + std::to_string(header.num_blocks) +
                           " blocks does not fit in the file: " + path);
  }

  std::vector<IndexEntry> index(static_cast<size_t>(header.num_blocks));
  if (!index.empty() &&
      std::fread(index.data(), sizeof(IndexEntry), index.size(), f) !=
          index.size()) {
    return Status::IOError("truncated index: " + path);
  }

  BlockGrid grid(BlockedShape{header.rows, header.cols, header.block_size});
  for (const IndexEntry& entry : index) {
    if (entry.offset < 0 || entry.length <= 0 ||
        entry.length > file_size - entry.offset) {
      return Status::IOError("corrupt index entry");
    }
    if (std::fseek(f, static_cast<long>(entry.offset), SEEK_SET) != 0) {
      return Status::IOError("seek failed");
    }
    std::vector<uint8_t> buffer(static_cast<size_t>(entry.length));
    if (std::fread(buffer.data(), 1, buffer.size(), f) != buffer.size()) {
      return Status::IOError("truncated payload");
    }
    DISTME_ASSIGN_OR_RETURN(Block block, DeserializeBlock(buffer));
    DISTME_RETURN_NOT_OK(grid.Put({entry.i, entry.j}, std::move(block)));
  }
  return grid;
}

}  // namespace distme
