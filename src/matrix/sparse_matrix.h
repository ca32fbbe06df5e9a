// Compressed sparse row/column matrix formats (CSR / CSC), as referenced in
// Section 2.1 of the paper for sparse block representation.

#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "matrix/dense_matrix.h"

namespace distme {

/// \brief A (row, col, value) entry used when assembling sparse matrices.
struct Triplet {
  int64_t row;
  int64_t col;
  double value;
};

/// \brief Compressed Sparse Row matrix.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }

  /// \brief Builds a CSR matrix from unordered triplets (duplicates summed).
  [[nodiscard]] static Result<CsrMatrix> FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets);

  /// \brief Adopts existing CSR arrays after checking them in place: sizes,
  /// row pointers non-decreasing from 0 to nnz, and column indices in range
  /// and strictly increasing within each row (At() binary-searches them).
  [[nodiscard]] static Result<CsrMatrix> FromArrays(
      int64_t rows, int64_t cols, std::vector<int64_t> row_ptr,
      std::vector<int64_t> col_idx, std::vector<double> values);

  /// \brief Converts a dense matrix, keeping only non-zero entries.
  static CsrMatrix FromDense(const DenseMatrix& dense);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// \brief Storage footprint: values + column indices + row pointers.
  int64_t SizeBytes() const {
    return nnz() * (kElementBytes + static_cast<int64_t>(sizeof(int64_t))) +
           static_cast<int64_t>(row_ptr_.size() * sizeof(int64_t));
  }

  double Sparsity() const {
    const int64_t total = rows_ * cols_;
    return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
  }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// \brief Value at (r, c); O(log nnz_row) via binary search.
  double At(int64_t r, int64_t c) const;

  /// \brief Materializes to dense.
  DenseMatrix ToDense() const;

  /// \brief Returns the transpose (still CSR).
  CsrMatrix Transpose() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;  // length rows_ + 1
  std::vector<int64_t> col_idx_;  // length nnz
  std::vector<double> values_;    // length nnz
};

/// \brief Compressed Sparse Column matrix.
class CscMatrix {
 public:
  CscMatrix() : rows_(0), cols_(0) { col_ptr_.push_back(0); }

  [[nodiscard]] static Result<CscMatrix> FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets);
  static CscMatrix FromCsr(const CsrMatrix& csr);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  int64_t SizeBytes() const {
    return nnz() * (kElementBytes + static_cast<int64_t>(sizeof(int64_t))) +
           static_cast<int64_t>(col_ptr_.size() * sizeof(int64_t));
  }

  const std::vector<int64_t>& col_ptr() const { return col_ptr_; }
  const std::vector<int64_t>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }

  DenseMatrix ToDense() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> col_ptr_;  // length cols_ + 1
  std::vector<int64_t> row_idx_;  // length nnz
  std::vector<double> values_;    // length nnz
};

}  // namespace distme
