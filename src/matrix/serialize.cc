#include "matrix/serialize.h"

#include <cstring>

namespace distme {

namespace {

constexpr uint32_t kMagic = 0xD157B10C;  // "DistME block"

template <typename T>
void AppendPod(std::vector<uint8_t>* buf, T value) {
  const size_t offset = buf->size();
  buf->resize(offset + sizeof(T));
  std::memcpy(buf->data() + offset, &value, sizeof(T));
}

template <typename T>
void AppendVector(std::vector<uint8_t>* buf, const std::vector<T>& values) {
  AppendPod<int64_t>(buf, static_cast<int64_t>(values.size()));
  if (values.empty()) return;  // data() may be null for an empty vector (UB for memcpy)
  const size_t offset = buf->size();
  buf->resize(offset + values.size() * sizeof(T));
  std::memcpy(buf->data() + offset, values.data(), values.size() * sizeof(T));
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  Status Read(T* out) {
    if (pos_ + sizeof(T) > buf_.size()) {
      return Status::IOError("truncated block buffer");
    }
    std::memcpy(out, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  // Reads an element count and checks that that many elements of T remain
  // unread, before the caller allocates anything for them. Divides rather
  // than multiplies, so a hostile count cannot wrap the check.
  template <typename T>
  Status ReadCount(int64_t* n) {
    DISTME_RETURN_NOT_OK(Read(n));
    if (*n < 0 ||
        static_cast<uint64_t>(*n) > (buf_.size() - pos_) / sizeof(T)) {
      return Status::IOError("truncated block buffer (array)");
    }
    return Status::OK();
  }

  // Fills `out` with one memcpy; its size must be a count that
  // ReadCount<T> has just checked.
  template <typename T>
  void ReadInto(std::vector<T>* out) {
    const size_t bytes = out->size() * sizeof(T);
    if (bytes > 0) {  // data() may be null for an empty vector (UB for memcpy)
      std::memcpy(out->data(), buf_.data() + pos_, bytes);
    }
    pos_ += bytes;
  }

  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    int64_t n = 0;
    DISTME_RETURN_NOT_OK(ReadCount<T>(&n));
    out->resize(static_cast<size_t>(n));
    ReadInto(out);
    return Status::OK();
  }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<uint8_t> SerializeBlock(const Block& block) {
  std::vector<uint8_t> buf;
  AppendPod<uint32_t>(&buf, kMagic);
  AppendPod<uint8_t>(&buf, block.IsDense() ? 0 : 1);
  AppendPod<int64_t>(&buf, block.rows());
  AppendPod<int64_t>(&buf, block.cols());
  if (block.empty()) {
    // Header only; an empty block deserializes to a zero block.
    AppendPod<int64_t>(&buf, 0);
    return buf;
  }
  if (block.IsDense()) {
    const DenseMatrix& d = block.dense();
    AppendPod<int64_t>(&buf, d.num_elements());
    const size_t offset = buf.size();
    buf.resize(offset + static_cast<size_t>(d.SizeBytes()));
    std::memcpy(buf.data() + offset, d.data(),
                static_cast<size_t>(d.SizeBytes()));
  } else {
    const CsrMatrix& s = block.sparse();
    AppendVector(&buf, s.row_ptr());
    AppendVector(&buf, s.col_idx());
    AppendVector(&buf, s.values());
  }
  return buf;
}

Result<Block> DeserializeBlock(const std::vector<uint8_t>& buffer) {
  Reader reader(buffer);
  uint32_t magic = 0;
  DISTME_RETURN_NOT_OK(reader.Read(&magic));
  if (magic != kMagic) return Status::IOError("bad block magic");
  uint8_t fmt = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  DISTME_RETURN_NOT_OK(reader.Read(&fmt));
  DISTME_RETURN_NOT_OK(reader.Read(&rows));
  DISTME_RETURN_NOT_OK(reader.Read(&cols));
  if (rows < 0 || cols < 0) return Status::IOError("negative block dims");
  if (rows == 0 || cols == 0) return Block::Zero(rows, cols);

  if (fmt == 0) {
    int64_t n = 0;
    DISTME_RETURN_NOT_OK(reader.ReadCount<double>(&n));
    if (n == 0) return Block::Zero(rows, cols);
    // n == rows * cols, tested by division because the product can overflow.
    if (n % cols != 0 || n / cols != rows) {
      return Status::IOError("dense payload size mismatch");
    }
    std::vector<double> data(static_cast<size_t>(n));
    reader.ReadInto(&data);
    return Block::Dense(DenseMatrix(rows, cols, std::move(data)));
  }

  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  std::vector<double> values;
  DISTME_RETURN_NOT_OK(reader.ReadVector(&row_ptr));
  DISTME_RETURN_NOT_OK(reader.ReadVector(&col_idx));
  DISTME_RETURN_NOT_OK(reader.ReadVector(&values));
  Result<CsrMatrix> csr =
      CsrMatrix::FromArrays(rows, cols, std::move(row_ptr), std::move(col_idx),
                            std::move(values));
  if (!csr.ok()) {
    return Status::IOError("corrupt CSR payload: " + csr.status().message());
  }
  return Block::Sparse(std::move(*csr));
}

int64_t SerializedBlockBytes(const Block& block) {
  // Header: magic + fmt + rows + cols.
  int64_t bytes = 4 + 1 + 8 + 8;
  if (block.empty()) return bytes + 8;
  if (block.IsDense()) {
    bytes += 8 + block.dense().SizeBytes();
  } else {
    const CsrMatrix& s = block.sparse();
    bytes += 3 * 8;  // three vector length prefixes
    bytes += static_cast<int64_t>(s.row_ptr().size()) * 8;
    bytes += s.nnz() * (8 + 8);
  }
  return bytes;
}

}  // namespace distme
