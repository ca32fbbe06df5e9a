#include <gtest/gtest.h>

#include "core/gnmf.h"
#include "systems/profiles.h"

namespace distme::core {
namespace {

Session::Options TestOptions() {
  Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  options.planner = std::make_shared<DistmePlanner>(
      mm::OptimizerOptions{.enforce_parallelism = false});
  return options;
}

TEST(GnmfTest, LossDecreasesOnRealData) {
  Session session(TestOptions());
  // A small synthetic rating matrix.
  GeneratorOptions g;
  g.rows = 48;
  g.cols = 32;
  g.block_size = 8;
  g.sparsity = 0.2;
  g.seed = 42;
  auto v = session.Generate(g);
  ASSERT_TRUE(v.ok());

  GnmfOptions options;
  options.factor_dim = 8;
  options.iterations = 5;
  options.track_loss = true;
  auto result = RunGnmf(&session, *v, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->loss.size(), 5u);
  // The multiplicative updates are monotone for GNMF.
  for (size_t i = 1; i < result->loss.size(); ++i) {
    EXPECT_LE(result->loss[i], result->loss[i - 1] * 1.0001)
        << "iteration " << i;
  }
  EXPECT_LT(result->loss.back(), result->loss.front());
  // Factor shapes.
  EXPECT_EQ(result->w.rows(), 48);
  EXPECT_EQ(result->w.cols(), 8);
  EXPECT_EQ(result->h.rows(), 8);
  EXPECT_EQ(result->h.cols(), 32);
}

TEST(GnmfTest, FactorsStayNonNegative) {
  Session session(TestOptions());
  GeneratorOptions g;
  g.rows = 24;
  g.cols = 24;
  g.block_size = 8;
  g.sparsity = 0.3;
  g.seed = 17;
  auto v = session.Generate(g);
  ASSERT_TRUE(v.ok());
  GnmfOptions options;
  options.factor_dim = 4;
  options.iterations = 3;
  auto result = RunGnmf(&session, *v, options);
  ASSERT_TRUE(result.ok());
  const DenseMatrix w = result->w.Collect().ToDense();
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    EXPECT_GE(w.data()[i], 0.0);
  }
}

TEST(GnmfTest, InvalidFactorDimRejected) {
  Session session(TestOptions());
  GeneratorOptions g;
  g.rows = 8;
  g.cols = 8;
  g.block_size = 8;
  auto v = session.Generate(g);
  GnmfOptions options;
  options.factor_dim = 0;
  EXPECT_FALSE(RunGnmf(&session, *v, options).ok());
}

core::GnmfSimOptions NetflixSim(int64_t factor_dim = 200) {
  core::GnmfSimOptions options;
  const RatingDataset d = Netflix();
  options.v = mm::MatrixDescriptor::Sparse(
      d.users, d.items, 1000,
      static_cast<double>(d.ratings) /
          (static_cast<double>(d.users) * d.items));
  options.factor_dim = factor_dim;
  options.iterations = 10;
  return options;
}

TEST(GnmfSimTest, TenIterationsAccumulateLinearly) {
  auto distme = systems::DistME(/*gpu=*/true);
  auto report = systems::RunGnmfSim(distme, NetflixSim());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->outcome.ok()) << report->outcome;
  ASSERT_EQ(report->iteration_seconds.size(), 10u);
  EXPECT_NEAR(report->AccumulatedSeconds(10), report->total_seconds, 1e-9);
  EXPECT_GT(report->AccumulatedSeconds(5), 0.0);
  EXPECT_LT(report->AccumulatedSeconds(5), report->total_seconds);
}

TEST(GnmfSimTest, DistmeGpuFastestOnNetflix) {
  // Figure 8(b): DistME(G) outperforms the other systems on Netflix.
  const auto options = NetflixSim();
  auto distme_g = systems::RunGnmfSim(systems::DistME(true), options);
  auto distme_c = systems::RunGnmfSim(systems::DistME(false), options);
  auto systemml_g = systems::RunGnmfSim(systems::SystemML(true), options);
  auto matfast_g = systems::RunGnmfSim(systems::MatFast(true), options);
  ASSERT_TRUE(distme_g.ok() && distme_c.ok() && systemml_g.ok() &&
              matfast_g.ok());
  ASSERT_TRUE(distme_g->outcome.ok()) << distme_g->outcome;
  if (systemml_g->outcome.ok()) {
    EXPECT_LT(distme_g->total_seconds, systemml_g->total_seconds);
  }
  if (matfast_g->outcome.ok()) {
    EXPECT_LT(distme_g->total_seconds, matfast_g->total_seconds);
  }
  EXPECT_LT(distme_g->total_seconds, distme_c->total_seconds);
}

TEST(GnmfSimTest, LargerFactorDimensionCostsMore) {
  auto small = systems::RunGnmfSim(systems::DistME(true), NetflixSim(200));
  auto large = systems::RunGnmfSim(systems::DistME(true), NetflixSim(1000));
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_TRUE(small->outcome.ok() && large->outcome.ok());
  EXPECT_GT(large->total_seconds, small->total_seconds);
}

TEST(GnmfSimTest, MatFastOomAtLargeFactorDimension) {
  // Figure 8(d): MatFast fails with O.O.M. on YahooMusic when the factor
  // dimension reaches 1000.
  core::GnmfSimOptions options;
  const RatingDataset d = YahooMusic();
  options.v = mm::MatrixDescriptor::Sparse(
      d.users, d.items, 1000,
      static_cast<double>(d.ratings) /
          (static_cast<double>(d.users) * d.items));
  options.factor_dim = 1000;
  options.iterations = 10;
  auto matfast = systems::RunGnmfSim(systems::MatFast(true), options);
  ASSERT_TRUE(matfast.ok());
  EXPECT_TRUE(matfast->outcome.IsOutOfMemory()) << matfast->outcome;
  // DistME completes at the same factor dimension.
  auto distme = systems::RunGnmfSim(systems::DistME(true), options);
  ASSERT_TRUE(distme.ok());
  EXPECT_TRUE(distme->outcome.ok()) << distme->outcome;
}

TEST(GnmfSimTest, DependencyAwareShufflesLess) {
  auto aware = systems::DistME(false);
  auto naive = aware;
  naive.dependency_aware = false;
  naive.name = "DistME-naive";
  auto a = systems::RunGnmfSim(aware, NetflixSim());
  auto b = systems::RunGnmfSim(naive, NetflixSim());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->outcome.ok() && b->outcome.ok());
  EXPECT_LT(a->total_shuffle_bytes, b->total_shuffle_bytes);
}

}  // namespace
}  // namespace distme::core
