#include "matrix/io.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace distme {

Status WriteMatrixMarket(const BlockGrid& grid, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  std::fprintf(f, "%%%%MatrixMarket matrix coordinate real general\n");
  std::fprintf(f, "%" PRId64 " %" PRId64 " %" PRId64 "\n", grid.shape().rows,
               grid.shape().cols, grid.TotalNnz());
  const int64_t bs = grid.shape().block_size;
  for (const auto& [idx, block] : grid.blocks()) {
    const int64_t row0 = idx.i * bs;
    const int64_t col0 = idx.j * bs;
    if (block.IsDense()) {
      const DenseMatrix& d = block.dense();
      for (int64_t r = 0; r < d.rows(); ++r) {
        for (int64_t c = 0; c < d.cols(); ++c) {
          const double v = d.At(r, c);
          if (v != 0.0) {
            std::fprintf(f, "%" PRId64 " %" PRId64 " %.17g\n", row0 + r + 1,
                         col0 + c + 1, v);
          }
        }
      }
    } else {
      const CsrMatrix& s = block.sparse();
      for (int64_t r = 0; r < s.rows(); ++r) {
        for (int64_t k = s.row_ptr()[r]; k < s.row_ptr()[r + 1]; ++k) {
          std::fprintf(f, "%" PRId64 " %" PRId64 " %.17g\n", row0 + r + 1,
                       col0 + s.col_idx()[k] + 1, s.values()[k]);
        }
      }
    }
  }
  // fprintf failures (ENOSPC — the paper's E.D.C. condition) latch the
  // stream error flag; a failed fclose means buffered data never hit disk.
  const bool write_error = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_error) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

Result<BlockGrid> ReadMatrixMarket(const std::string& path,
                                   int64_t block_size) {
  if (block_size <= 0) {
    return Status::Invalid("block size must be positive, got " +
                           std::to_string(block_size));
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);

  char line[512];
  bool array_format = false;
  // Header line.
  if (std::fgets(line, sizeof(line), f) == nullptr) {
    std::fclose(f);
    return Status::IOError("empty MatrixMarket file");
  }
  std::string header(line);
  if (header.rfind("%%MatrixMarket", 0) != 0) {
    std::fclose(f);
    return Status::IOError("missing MatrixMarket banner");
  }
  if (header.find("array") != std::string::npos) array_format = true;
  if (header.find("complex") != std::string::npos ||
      header.find("pattern") != std::string::npos) {
    std::fclose(f);
    return Status::NotImplemented("only real-valued matrices supported");
  }

  // Skip comments.
  long data_pos = std::ftell(f);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] != '%') break;
    data_pos = std::ftell(f);
  }
  std::fseek(f, data_pos, SEEK_SET);

  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;
  if (array_format) {
    if (std::fscanf(f, "%" SCNd64 " %" SCNd64, &rows, &cols) != 2) {
      std::fclose(f);
      return Status::IOError("bad array header");
    }
  } else {
    if (std::fscanf(f, "%" SCNd64 " %" SCNd64 " %" SCNd64, &rows, &cols,
                    &nnz) != 3) {
      std::fclose(f);
      return Status::IOError("bad coordinate header");
    }
  }
  const long data_begin = std::ftell(f);
  const bool sized = data_begin >= 0 && std::fseek(f, 0, SEEK_END) == 0;
  const long data_end = sized ? std::ftell(f) : -1;
  if (data_end < 0 || std::fseek(f, data_begin, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IOError("cannot size MatrixMarket file: " + path);
  }
  const int64_t data_bytes = data_end - data_begin;
  // Each header is checked before anything it sizes is allocated, so a
  // hostile one cannot ask for more memory than the file could fill.
  if (array_format) {
    // Every value takes at least two bytes (a separator, then a digit).
    int64_t values = 0;
    if (!CheckedProduct(rows, cols, &values) || values > data_bytes / 2) {
      std::fclose(f);
      return Status::Invalid("array header claims " + std::to_string(rows) +
                             " x " + std::to_string(cols) + " values in " +
                             std::to_string(data_bytes) + " bytes of data");
    }
  } else {
    // Every entry takes at least six bytes (a separator, then "r c v").
    if (nnz < 0 || nnz > data_bytes / 6) {
      std::fclose(f);
      return Status::Invalid("coordinate header claims " +
                             std::to_string(nnz) + " entries in " +
                             std::to_string(data_bytes) + " bytes of data");
    }
    // Nothing is sized by the dimensions (entries go straight into their
    // blocks), but their element count must be representable.
    int64_t elements = 0;
    if (!CheckedProduct(rows, cols, &elements)) {
      std::fclose(f);
      return Status::Invalid("coordinate header claims " +
                             std::to_string(rows) + " x " +
                             std::to_string(cols) + " dimensions");
    }
  }

  if (array_format) {
    DenseMatrix dense(rows, cols);
    // Array format is column-major per the MatrixMarket spec.
    for (int64_t c = 0; c < cols; ++c) {
      for (int64_t r = 0; r < rows; ++r) {
        double v = 0.0;
        if (std::fscanf(f, "%lf", &v) != 1) {
          std::fclose(f);
          return Status::IOError("truncated array data");
        }
        dense.Set(r, c, v);
      }
    }
    std::fclose(f);
    return BlockGrid::FromDense(dense, block_size);
  }

  // Each entry goes into its block's bucket, block-local and 0-based.
  BlockGrid grid(BlockedShape{rows, cols, block_size});
  std::unordered_map<BlockIndex, std::vector<Triplet>, BlockIndexHash> buckets;
  for (int64_t n = 0; n < nnz; ++n) {
    int64_t r = 0;
    int64_t c = 0;
    double v = 0.0;
    if (std::fscanf(f, "%" SCNd64 " %" SCNd64 " %lf", &r, &c, &v) != 3) {
      std::fclose(f);
      return Status::IOError("truncated coordinate data");
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      std::fclose(f);
      return Status::Invalid("entry (" + std::to_string(r) + ", " +
                             std::to_string(c) + ") lies outside the " +
                             std::to_string(rows) + " x " +
                             std::to_string(cols) + " header");
    }
    const BlockIndex idx{(r - 1) / block_size, (c - 1) / block_size};
    buckets[idx].push_back(
        {r - 1 - idx.i * block_size, c - 1 - idx.j * block_size, v});
  }
  std::fclose(f);
  for (auto& [idx, triplets] : buckets) {
    DISTME_ASSIGN_OR_RETURN(
        CsrMatrix block,
        CsrMatrix::FromTriplets(grid.shape().BlockRowsAt(idx.i),
                                grid.shape().BlockColsAt(idx.j),
                                std::move(triplets)));
    if (block.nnz() == 0) continue;  // its entries summed to zero
    DISTME_RETURN_NOT_OK(grid.Put(idx, Block::Sparse(std::move(block))));
  }
  return grid;
}

}  // namespace distme
