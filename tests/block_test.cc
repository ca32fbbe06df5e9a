#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "matrix/block.h"
#include "matrix/serialize.h"

namespace distme {
namespace {

Block MakeDenseBlock(int64_t rows, int64_t cols, uint64_t seed = 1) {
  Rng rng(seed);
  return Block::Dense(DenseMatrix::Random(rows, cols, &rng));
}

Block MakeSparseBlock(int64_t rows, int64_t cols, int nnz, uint64_t seed = 2) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int i = 0; i < nnz; ++i) {
    triplets.push_back({static_cast<int64_t>(rng.NextBounded(rows)),
                        static_cast<int64_t>(rng.NextBounded(cols)),
                        rng.NextDouble() + 0.5});
  }
  return Block::Sparse(*CsrMatrix::FromTriplets(rows, cols, triplets));
}

TEST(BlockTest, DenseBasics) {
  Block b = MakeDenseBlock(4, 6);
  EXPECT_TRUE(b.IsDense());
  EXPECT_EQ(b.format(), BlockFormat::kDense);
  EXPECT_EQ(b.rows(), 4);
  EXPECT_EQ(b.cols(), 6);
  EXPECT_EQ(b.SizeBytes(), 4 * 6 * 8);
}

TEST(BlockTest, SparseBasics) {
  Block b = MakeSparseBlock(10, 10, 5);
  EXPECT_TRUE(b.IsSparse());
  EXPECT_LE(b.nnz(), 5);  // duplicates may merge
  EXPECT_GT(b.nnz(), 0);
}

TEST(BlockTest, ZeroBlock) {
  Block z = Block::Zero(3, 5);
  EXPECT_EQ(z.nnz(), 0);
  EXPECT_TRUE(z.IsSparse());
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 5);
  DenseMatrix d = z.ToDense();
  EXPECT_EQ(d.CountNonZeros(), 0);
}

TEST(BlockTest, AtDispatchesOnFormat) {
  Block dense = MakeDenseBlock(3, 3, 7);
  Block sparse = Block::Sparse(CsrMatrix::FromDense(dense.dense()));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_EQ(dense.At(r, c), sparse.At(r, c));
    }
  }
}

TEST(BlockTest, SharedPayloadIsCheapToCopy) {
  Block b = MakeDenseBlock(100, 100);
  Block copy = b;  // replication must not deep-copy (RMM replicates J times)
  EXPECT_EQ(&b.dense(), &copy.dense());
}

TEST(BlockTest, CompactedConvertsSparseEnoughBlocks) {
  DenseMatrix mostly_zero(10, 10);
  mostly_zero.Set(0, 0, 1.0);
  Block b = Block::Dense(mostly_zero).Compacted();
  EXPECT_TRUE(b.IsSparse());

  Block dense = MakeDenseBlock(10, 10);
  EXPECT_TRUE(dense.Compacted().IsDense());
}

TEST(BlockTest, DensifiedIsIdempotent) {
  Block sparse = MakeSparseBlock(5, 5, 3);
  Block dense = sparse.Densified();
  EXPECT_TRUE(dense.IsDense());
  EXPECT_TRUE(DenseMatrix::ApproxEquals(dense.dense(), sparse.ToDense(), 0.0));
  EXPECT_TRUE(dense.Densified().IsDense());
}

TEST(SerializeTest, DenseRoundTrip) {
  Block original = MakeDenseBlock(7, 5, 42);
  auto buffer = SerializeBlock(original);
  EXPECT_EQ(static_cast<int64_t>(buffer.size()),
            SerializedBlockBytes(original));
  auto restored = DeserializeBlock(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsDense());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->dense(), original.dense(), 0.0));
  EXPECT_EQ(SerializeBlock(*restored), buffer);  // bit for bit
}

TEST(SerializeTest, SparseRoundTrip) {
  Block original = MakeSparseBlock(20, 15, 30, 9);
  auto buffer = SerializeBlock(original);
  EXPECT_EQ(static_cast<int64_t>(buffer.size()),
            SerializedBlockBytes(original));
  auto restored = DeserializeBlock(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsSparse());
  EXPECT_EQ(restored->nnz(), original.nnz());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), original.ToDense(), 0.0));
  EXPECT_EQ(SerializeBlock(*restored), buffer);  // bit for bit
}

TEST(SerializeTest, ZeroBlockRoundTrip) {
  Block z = Block::Zero(4, 4);
  auto restored = DeserializeBlock(SerializeBlock(z));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->nnz(), 0);
  EXPECT_EQ(restored->rows(), 4);
}

TEST(SerializeTest, RejectsBadMagic) {
  Block b = MakeDenseBlock(2, 2);
  auto buffer = SerializeBlock(b);
  buffer[0] ^= 0xFF;
  EXPECT_FALSE(DeserializeBlock(buffer).ok());
}

TEST(SerializeTest, RejectsTruncatedBuffer) {
  Block b = MakeDenseBlock(4, 4);
  auto buffer = SerializeBlock(b);
  buffer.resize(buffer.size() / 2);
  EXPECT_FALSE(DeserializeBlock(buffer).ok());
}

TEST(SerializeTest, RejectsEmptyBuffer) {
  EXPECT_FALSE(DeserializeBlock({}).ok());
}

// Overwrites or appends the raw bytes of `value` at `offset`.
void PutWord(std::vector<uint8_t>* buf, size_t offset, int64_t value) {
  const size_t end = offset + sizeof(value);
  if (buf->size() < end) buf->resize(end);
  std::memcpy(buf->data() + offset, &value, sizeof(value));
}

// A block header (magic, format, rows, cols) followed by raw int64 words.
std::vector<uint8_t> HandBuilt(uint8_t format, int64_t rows, int64_t cols,
                               std::initializer_list<int64_t> words) {
  std::vector<uint8_t> buf = SerializeBlock(Block::Zero(1, 1));
  buf.resize(4);  // keep the magic
  buf.push_back(format);
  PutWord(&buf, buf.size(), rows);
  PutWord(&buf, buf.size(), cols);
  for (int64_t w : words) PutWord(&buf, buf.size(), w);
  return buf;
}

TEST(SerializeTest, RejectsHostileLengthsBeforeAllocating) {
  const std::vector<uint8_t> buffers[] = {
      // 29 bytes: dense, rows = cols = 2^30 and n = 2^60 = rows * cols, but
      // no payload follows.
      HandBuilt(0, int64_t{1} << 30, int64_t{1} << 30, {int64_t{1} << 60}),
      // 37 bytes: CSR whose row_ptr length prefix 2^61 + 1 wraps n * 8 to 8.
      HandBuilt(1, 1, 1, {(int64_t{1} << 61) + 1, 0}),
      // Dense with rows * cols = 2^64, which overflows int64.
      HandBuilt(0, int64_t{1} << 32, int64_t{1} << 32, {1}),
  };
  EXPECT_EQ(buffers[0].size(), 29u);
  EXPECT_EQ(buffers[1].size(), 37u);
  for (const std::vector<uint8_t>& buf : buffers) {
    auto block = DeserializeBlock(buf);
    ASSERT_FALSE(block.ok());
    EXPECT_EQ(block.status().code(), StatusCode::kIOError);
  }
}

TEST(SerializeTest, RejectsCorruptCsrArrays) {
  // One row holding columns {1, 3} of 4. After the 21-byte header come the
  // row_ptr prefix and its two entries, then col_idx's prefix and entries.
  auto csr = CsrMatrix::FromTriplets(1, 4, {{0, 1, 1.0}, {0, 3, 2.0}});
  ASSERT_TRUE(csr.ok());
  const std::vector<uint8_t> good = SerializeBlock(Block::Sparse(*csr));
  ASSERT_TRUE(DeserializeBlock(good).ok());
  constexpr size_t kRowPtr = 21 + 8;
  constexpr size_t kColIdx = kRowPtr + 2 * 8 + 8;
  struct Corruption {
    const char* what;
    size_t offset;
    int64_t value;
  };
  for (const Corruption& c : {
           Corruption{"column out of order", kColIdx + 8, 0},
           Corruption{"duplicate column", kColIdx + 8, 1},
           Corruption{"column past cols", kColIdx + 8, 4},
           Corruption{"negative column", kColIdx, -1},
           Corruption{"row_ptr not starting at 0", kRowPtr, 1},
           Corruption{"row_ptr not ending at nnz", kRowPtr + 8, 1},
       }) {
    SCOPED_TRACE(c.what);
    std::vector<uint8_t> buf = good;
    PutWord(&buf, c.offset, c.value);
    auto block = DeserializeBlock(buf);
    ASSERT_FALSE(block.ok());
    EXPECT_EQ(block.status().code(), StatusCode::kIOError);
  }
}

TEST(SerializeTest, SparseCheaperThanDenseForSparseData) {
  Block sparse = MakeSparseBlock(100, 100, 50);
  Block dense = sparse.Densified();
  EXPECT_LT(SerializedBlockBytes(sparse), SerializedBlockBytes(dense));
}

}  // namespace
}  // namespace distme
