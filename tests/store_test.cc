#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "matrix/generator.h"
#include "matrix/store.h"

namespace distme {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

BlockGrid TestGrid(double sparsity, uint64_t seed) {
  GeneratorOptions g;
  g.rows = 53;
  g.cols = 41;
  g.block_size = 10;
  g.sparsity = sparsity;
  g.seed = seed;
  return GenerateUniform(g);
}

TEST(BinaryStoreTest, DenseRoundTrip) {
  BlockGrid grid = TestGrid(1.0, 1);
  const std::string path = TempPath("dense.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  auto restored = ReadBinaryMatrix(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->shape() == grid.shape());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), grid.ToDense(), 0.0));
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, SparseRoundTripKeepsFormats) {
  BlockGrid grid = TestGrid(0.05, 2);
  const std::string path = TempPath("sparse.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  auto restored = ReadBinaryMatrix(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_blocks(), grid.num_blocks());
  EXPECT_EQ(restored->TotalNnz(), grid.TotalNnz());
  for (const auto& [idx, block] : restored->blocks()) {
    EXPECT_TRUE(block.IsSparse());
  }
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, InfoWithoutPayload) {
  BlockGrid grid = TestGrid(0.3, 3);
  const std::string path = TempPath("info.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  auto info = ReadBinaryMatrixInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->shape.rows, 53);
  EXPECT_EQ(info->shape.cols, 41);
  EXPECT_EQ(info->num_blocks, grid.num_blocks());
  EXPECT_EQ(info->total_nnz, grid.TotalNnz());
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, EmptyMatrix) {
  BlockGrid grid(BlockedShape{30, 30, 10});  // no materialized blocks
  const std::string path = TempPath("empty.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  auto restored = ReadBinaryMatrix(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_blocks(), 0);
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, RejectsWrongMagic) {
  const std::string path = TempPath("bad.dmx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[128] = "this is not a matrix";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(ReadBinaryMatrix(path).ok());
  EXPECT_FALSE(ReadBinaryMatrixInfo(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, RejectsTruncatedFile) {
  BlockGrid grid = TestGrid(1.0, 4);
  const std::string path = TempPath("trunc.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(ReadBinaryMatrix(path).ok());
  std::remove(path.c_str());
}

// Rewrites the int64 at byte `offset` of the file at `path`.
void PatchInt64(const std::string& path, long offset, int64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  EXPECT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

// File layout: a 48-byte header (magic, rows, cols, block size, block
// count, nnz), then 32-byte index entries (i, j, offset, length).
constexpr long kNumBlocksAt = 32;
constexpr long kFirstOffsetAt = 48 + 16;
constexpr long kFirstLengthAt = 48 + 24;

TEST(BinaryStoreTest, RejectsBlockCountBeyondTheFile) {
  // A bare header that claims 2^40 blocks: refused before an index of
  // 2^40 entries is allocated.
  const std::string path = TempPath("many_blocks.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(BlockGrid(BlockedShape{30, 30, 10}), path)
                  .ok());
  PatchInt64(path, kNumBlocksAt, int64_t{1} << 40);
  EXPECT_FALSE(ReadBinaryMatrix(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, RejectsIndexEntryBeyondTheFile) {
  // One block whose index entry reaches past the end of the file: refused
  // before a payload buffer of that length is allocated.
  GeneratorOptions g;
  g.rows = g.cols = g.block_size = 10;
  g.sparsity = 1.0;
  const BlockGrid grid = GenerateUniform(g);
  ASSERT_EQ(grid.num_blocks(), 1);
  const std::string path = TempPath("long_entry.dmx");
  for (const auto& [at, value] : std::vector<std::pair<long, int64_t>>{
           {kFirstLengthAt, int64_t{1} << 50},
           {kFirstOffsetAt, int64_t{1} << 62},
           {kFirstOffsetAt, -1},
       }) {
    ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
    ASSERT_TRUE(ReadBinaryMatrix(path).ok());
    PatchInt64(path, at, value);
    EXPECT_FALSE(ReadBinaryMatrix(path).ok()) << at << " = " << value;
  }
  std::remove(path.c_str());
}

TEST(BinaryStoreTest, MissingFileFails) {
  EXPECT_FALSE(ReadBinaryMatrix("/nonexistent/m.dmx").ok());
}

TEST(BinaryStoreTest, MoreCompactThanMatrixMarketForDense) {
  // Binary payload ≈ 8 B/element; text ≈ 20+ B/element.
  BlockGrid grid = TestGrid(1.0, 5);
  const std::string path = TempPath("compact.dmx");
  ASSERT_TRUE(WriteBinaryMatrix(grid, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long binary_size = std::ftell(f);
  std::fclose(f);
  EXPECT_LT(binary_size, 53 * 41 * 12);  // < 12 B/element incl. index
  std::remove(path.c_str());
}

}  // namespace
}  // namespace distme
