#include "matrix/io.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

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
    // Every entry takes at least six bytes (a separator, then "r c v"), so
    // a larger count is corrupt. Checked before the reserve below, so a
    // hostile header cannot ask for more memory than the file could fill.
    const long data_begin = std::ftell(f);
    const bool sized = data_begin >= 0 && std::fseek(f, 0, SEEK_END) == 0;
    const long data_end = sized ? std::ftell(f) : -1;
    if (data_end < 0 || std::fseek(f, data_begin, SEEK_SET) != 0) {
      std::fclose(f);
      return Status::IOError("cannot size MatrixMarket file: " + path);
    }
    if (nnz < 0 || nnz > (data_end - data_begin) / 6) {
      std::fclose(f);
      return Status::Invalid("coordinate header claims " +
                             std::to_string(nnz) + " entries in " +
                             std::to_string(data_end - data_begin) +
                             " bytes of data");
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

  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(nnz));
  for (int64_t n = 0; n < nnz; ++n) {
    int64_t r = 0;
    int64_t c = 0;
    double v = 0.0;
    if (std::fscanf(f, "%" SCNd64 " %" SCNd64 " %lf", &r, &c, &v) != 3) {
      std::fclose(f);
      return Status::IOError("truncated coordinate data");
    }
    triplets.push_back({r - 1, c - 1, v});  // 1-based → 0-based
  }
  std::fclose(f);
  DISTME_ASSIGN_OR_RETURN(CsrMatrix csr,
                          CsrMatrix::FromTriplets(rows, cols,
                                                  std::move(triplets)));
  return BlockGrid::FromCsr(csr, block_size);
}

}  // namespace distme
