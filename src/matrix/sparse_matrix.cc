#include "matrix/sparse_matrix.h"

#include <algorithm>

namespace distme {

namespace {

Status ValidateTriplets(int64_t rows, int64_t cols,
                        const std::vector<Triplet>& triplets) {
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::Invalid("triplet index out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Result<CsrMatrix> CsrMatrix::FromTriplets(int64_t rows, int64_t cols,
                                          std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) return Status::Invalid("negative dimensions");
  DISTME_RETURN_NOT_OK(ValidateTriplets(rows, cols, triplets));
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);

  size_t i = 0;
  while (i < triplets.size()) {
    // Sum duplicates at the same (row, col).
    int64_t r = triplets[i].row;
    int64_t c = triplets[i].col;
    double v = triplets[i].value;
    size_t j = i + 1;
    while (j < triplets.size() && triplets[j].row == r &&
           triplets[j].col == c) {
      v += triplets[j].value;
      ++j;
    }
    if (v != 0.0) {
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
      ++m.row_ptr_[static_cast<size_t>(r) + 1];
    }
    i = j;
  }
  for (size_t r = 1; r < m.row_ptr_.size(); ++r) {
    m.row_ptr_[r] += m.row_ptr_[r - 1];
  }
  return m;
}

Result<CsrMatrix> CsrMatrix::FromArrays(int64_t rows, int64_t cols,
                                        std::vector<int64_t> row_ptr,
                                        std::vector<int64_t> col_idx,
                                        std::vector<double> values) {
  if (rows < 0 || cols < 0) return Status::Invalid("negative dimensions");
  if (static_cast<int64_t>(row_ptr.size()) - 1 != rows ||
      col_idx.size() != values.size()) {
    return Status::Invalid("CSR array sizes do not match the shape");
  }
  const int64_t nnz = static_cast<int64_t>(values.size());
  if (row_ptr[0] != 0 || row_ptr[static_cast<size_t>(rows)] != nnz) {
    return Status::Invalid("CSR row pointers must run from 0 to nnz");
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    const int64_t begin = row_ptr[r];
    const int64_t end = row_ptr[r + 1];
    if (end < begin || end > nnz) {
      return Status::Invalid("CSR row pointers are not non-decreasing");
    }
    for (int64_t k = begin; k < end; ++k) {
      const int64_t c = col_idx[static_cast<size_t>(k)];
      if (c < 0 || c >= cols ||
          (k > begin && c <= col_idx[static_cast<size_t>(k) - 1])) {
        return Status::Invalid(
            "CSR column out of range or not increasing within its row");
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const DenseMatrix& dense) {
  CsrMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(static_cast<size_t>(dense.rows()) + 1, 0);
  for (int64_t r = 0; r < dense.rows(); ++r) {
    const double* src = dense.row(r);
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (src[c] != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(src[c]);
      }
    }
    m.row_ptr_[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(m.values_.size());
  }
  return m;
}

double CsrMatrix::At(int64_t r, int64_t c) const {
  const int64_t begin = row_ptr_[static_cast<size_t>(r)];
  const int64_t end = row_ptr_[static_cast<size_t>(r) + 1];
  auto it = std::lower_bound(col_idx_.begin() + begin, col_idx_.begin() + end, c);
  if (it != col_idx_.begin() + end && *it == c) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.Set(r, col_idx_[k], values_[k]);
    }
  }
  return out;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  out.col_idx_.resize(values_.size());
  out.values_.resize(values_.size());

  // Counting sort by column index.
  for (int64_t c : col_idx_) ++out.row_ptr_[static_cast<size_t>(c) + 1];
  for (size_t i = 1; i < out.row_ptr_.size(); ++i) {
    out.row_ptr_[i] += out.row_ptr_[i - 1];
  }
  std::vector<int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int64_t pos = cursor[static_cast<size_t>(col_idx_[k])]++;
      out.col_idx_[pos] = r;
      out.values_[pos] = values_[k];
    }
  }
  return out;
}

Result<CscMatrix> CscMatrix::FromTriplets(int64_t rows, int64_t cols,
                                          std::vector<Triplet> triplets) {
  if (rows < 0 || cols < 0) return Status::Invalid("negative dimensions");
  DISTME_RETURN_NOT_OK(ValidateTriplets(rows, cols, triplets));
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.col != b.col ? a.col < b.col : a.row < b.row;
            });
  CscMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_.assign(static_cast<size_t>(cols) + 1, 0);
  size_t i = 0;
  while (i < triplets.size()) {
    int64_t r = triplets[i].row;
    int64_t c = triplets[i].col;
    double v = triplets[i].value;
    size_t j = i + 1;
    while (j < triplets.size() && triplets[j].col == c &&
           triplets[j].row == r) {
      v += triplets[j].value;
      ++j;
    }
    if (v != 0.0) {
      m.row_idx_.push_back(r);
      m.values_.push_back(v);
      ++m.col_ptr_[static_cast<size_t>(c) + 1];
    }
    i = j;
  }
  for (size_t c = 1; c < m.col_ptr_.size(); ++c) {
    m.col_ptr_[c] += m.col_ptr_[c - 1];
  }
  return m;
}

CscMatrix CscMatrix::FromCsr(const CsrMatrix& csr) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(csr.nnz()));
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      triplets.push_back({r, csr.col_idx()[k], csr.values()[k]});
    }
  }
  return *CscMatrix::FromTriplets(csr.rows(), csr.cols(), std::move(triplets));
}

DenseMatrix CscMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (int64_t c = 0; c < cols_; ++c) {
    for (int64_t k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      out.Set(row_idx_[k], c, values_[k]);
    }
  }
  return out;
}

}  // namespace distme
