#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "matrix/generator.h"
#include "matrix/io.h"

namespace distme {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(IoTest, CoordinateRoundTrip) {
  GeneratorOptions options;
  options.rows = 37;
  options.cols = 21;
  options.block_size = 10;
  options.sparsity = 0.2;
  BlockGrid grid = GenerateUniform(options);

  const std::string path = TempPath("coord.mtx");
  ASSERT_TRUE(WriteMatrixMarket(grid, path).ok());
  auto restored = ReadMatrixMarket(path, 10);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), grid.ToDense(), 1e-15));
  std::remove(path.c_str());
}

TEST_F(IoTest, DenseGridRoundTrip) {
  GeneratorOptions options;
  options.rows = 12;
  options.cols = 12;
  options.block_size = 5;
  options.sparsity = 1.0;
  BlockGrid grid = GenerateUniform(options);

  const std::string path = TempPath("dense.mtx");
  ASSERT_TRUE(WriteMatrixMarket(grid, path).ok());
  auto restored = ReadMatrixMarket(path, 5);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), grid.ToDense(), 1e-15));
  std::remove(path.c_str());
}

TEST_F(IoTest, RereadWithDifferentBlockSize) {
  GeneratorOptions options;
  options.rows = 30;
  options.cols = 30;
  options.block_size = 10;
  options.sparsity = 0.3;
  BlockGrid grid = GenerateUniform(options);
  const std::string path = TempPath("reblock.mtx");
  ASSERT_TRUE(WriteMatrixMarket(grid, path).ok());
  auto restored = ReadMatrixMarket(path, 7);  // different blocking
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->shape().block_size, 7);
  EXPECT_TRUE(
      DenseMatrix::ApproxEquals(restored->ToDense(), grid.ToDense(), 1e-15));
  std::remove(path.c_str());
}

TEST_F(IoTest, ArrayFormat) {
  const std::string path = TempPath("array.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Column-major 2x2: [[1,3],[2,4]].
  std::fprintf(f, "%%%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  std::fclose(f);
  auto grid = ReadMatrixMarket(path, 2);
  ASSERT_TRUE(grid.ok());
  DenseMatrix d = grid->ToDense();
  EXPECT_EQ(d.At(0, 0), 1.0);
  EXPECT_EQ(d.At(1, 0), 2.0);
  EXPECT_EQ(d.At(0, 1), 3.0);
  EXPECT_EQ(d.At(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST_F(IoTest, CommentsAreSkipped) {
  const std::string path = TempPath("comments.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f,
               "%%%%MatrixMarket matrix coordinate real general\n"
               "%% a comment\n%% another\n2 2 1\n2 2 9.0\n");
  std::fclose(f);
  auto grid = ReadMatrixMarket(path, 2);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->ToDense().At(1, 1), 9.0);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileFails) {
  EXPECT_FALSE(ReadMatrixMarket("/nonexistent/nowhere.mtx", 10).ok());
}

TEST_F(IoTest, BadBannerFails) {
  const std::string path = TempPath("bad.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "not a matrix market file\n");
  std::fclose(f);
  EXPECT_FALSE(ReadMatrixMarket(path, 10).ok());
  std::remove(path.c_str());
}

TEST_F(IoTest, PatternFormatNotSupported) {
  const std::string path = TempPath("pattern.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "%%%%MatrixMarket matrix coordinate pattern general\n1 1 0\n");
  std::fclose(f);
  auto result = ReadMatrixMarket(path, 10);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
  std::remove(path.c_str());
}

TEST_F(IoTest, TruncatedDataFails) {
  const std::string path = TempPath("trunc.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "%%%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n");
  std::fclose(f);
  EXPECT_FALSE(ReadMatrixMarket(path, 10).ok());
  std::remove(path.c_str());
}

TEST_F(IoTest, NonPositiveBlockSizeIsInvalid) {
  const std::string path = TempPath("block_size.mtx");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "%%%%MatrixMarket matrix coordinate real general\n"
                  "3 3 1\n1 1 1.0\n");
  std::fclose(f);
  ASSERT_TRUE(ReadMatrixMarket(path, 2).ok());
  for (const int64_t block_size : {0, -8}) {
    const auto result = ReadMatrixMarket(path, block_size);
    ASSERT_FALSE(result.ok()) << block_size;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, EntryCountBeyondTheFileIsInvalid) {
  // A negative count, or one no file of this size can hold, is refused
  // before the triplet buffer is reserved.
  const std::string path = TempPath("nnz.mtx");
  auto read_with_count = [&path](const char* nnz) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fprintf(f, "%%%%MatrixMarket matrix coordinate real general\n"
                    "3 3 %s\n1 1 1.0\n2 2 2\n", nnz);
    std::fclose(f);
    return ReadMatrixMarket(path, 2);
  };
  ASSERT_TRUE(read_with_count("2").ok());
  for (const char* nnz : {"-1", "4611686018427387904"}) {
    const auto result = read_with_count(nnz);
    ASSERT_FALSE(result.ok()) << nnz;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << nnz;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace distme
