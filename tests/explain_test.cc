// Tests for the communication/skew profiler (CommMatrix) and the
// stage-level ExplainReport (Session::ExplainLastRun).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "engine/explain.h"
#include "engine/real_executor.h"
#include "engine/sim_executor.h"
#include "matrix/generator.h"
#include "mm/methods.h"
#include "obs/comm_matrix.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace distme {
namespace {

using obs::CommMatrix;
using obs::CommMatrixSnapshot;
using obs::CommStage;

// --- CommMatrix ------------------------------------------------------------

TEST(CommMatrixTest, ConcurrentRecordingIsExact) {
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  constexpr int kNodes = 4;

  CommMatrix comm(kNodes);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&comm, t] {
      for (int i = 0; i < kRecords; ++i) {
        const int src = (t + i) % kNodes;
        const int dst = (t + 3 * i) % kNodes;
        comm.Record(i % 2 == 0 ? CommStage::kRepartition
                               : CommStage::kAggregation,
                    src, dst, 10);
      }
    });
  }
  for (auto& th : threads) th.join();

  const CommMatrixSnapshot snap = comm.Snapshot();
  EXPECT_EQ(snap.num_nodes, kNodes);
  EXPECT_EQ(snap.TotalBytes(),
            static_cast<int64_t>(kThreads) * kRecords * 10);
  EXPECT_EQ(snap.TotalBytes(CommStage::kRepartition) +
                snap.TotalBytes(CommStage::kAggregation),
            snap.TotalBytes());
}

TEST(CommMatrixTest, SkewRatioSeparatesBalancedFromConcentrated) {
  // Balanced all-to-all: every off-diagonal link carries the same bytes.
  CommMatrix balanced(4);
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src != dst) {
        balanced.Record(CommStage::kRepartition, src, dst, 1000);
      }
    }
  }
  EXPECT_DOUBLE_EQ(balanced.Snapshot().SkewRatio(), 1.0);

  // One link carries everything: skew = N·(N−1) = 12.
  CommMatrix concentrated(4);
  concentrated.Record(CommStage::kRepartition, 0, 3, 12000);
  EXPECT_DOUBLE_EQ(concentrated.Snapshot().SkewRatio(), 12.0);

  // Nothing recorded: no skew to report.
  CommMatrix empty(4);
  EXPECT_DOUBLE_EQ(empty.Snapshot().SkewRatio(), 0.0);
}

TEST(CommMatrixTest, IgnoresNonPositiveAndOutOfRangeRecords) {
  CommMatrix comm(3);
  EXPECT_EQ(comm.num_nodes(), 3);
  comm.Record(CommStage::kRepartition, 0, 1, 0);
  comm.Record(CommStage::kRepartition, 0, 1, -5);
  comm.Record(CommStage::kRepartition, 3, 0, 9);   // no node 3
  comm.Record(CommStage::kRepartition, 0, -1, 9);
  EXPECT_EQ(comm.Snapshot().TotalBytes(), 0);
  comm.Record(CommStage::kAggregation, 2, 0, 7);
  const CommMatrixSnapshot snap = comm.Snapshot();
  EXPECT_EQ(snap.num_nodes, 3);
  EXPECT_EQ(snap.Bytes(CommStage::kAggregation, 2, 0), 7);
  EXPECT_EQ(snap.TotalBytes(), 7);
}

TEST(CommMatrixTest, TableAndJsonRenderings) {
  CommMatrix comm(2);
  comm.Record(CommStage::kRepartition, 0, 1, 4096);
  comm.Record(CommStage::kAggregation, 1, 0, 1024);
  obs::JsonWriter writer;
  comm.Snapshot().AppendJson(&writer);
  const std::string& json = writer.str();
  EXPECT_NE(json.find("\"skew_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"max_link_bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

// --- Imbalanced Grid partitioning → skewed links ---------------------------

TEST(CommMatrixTest, GridPartitioningOnOneNodeProducesSkewedLinks) {
  // A Grid partitioner whose tile covers the whole block grid homes every
  // block on node 0, so all repartition traffic flows out of node 0 while
  // most (src, dst) pairs stay silent — high skew by construction.
  const ClusterConfig cluster = ClusterConfig::Local(3, 2);
  GeneratorOptions g;
  g.rows = 64;
  g.cols = 48;
  g.block_size = 8;
  g.sparsity = 1.0;
  g.seed = 31;
  engine::DistributedMatrix a = engine::DistributedMatrix::FromGrid(
      GenerateUniform(g), 3, engine::Partitioner::Grid(3, 100, 100));
  g.rows = 48;
  g.cols = 32;
  g.seed = 32;
  engine::DistributedMatrix b = engine::DistributedMatrix::FromGrid(
      GenerateUniform(g), 3, engine::Partitioner::Grid(3, 100, 100));

  engine::RealExecutor executor(cluster);
  // BMM has no aggregation step, so the matrix records repartition only.
  auto result = executor.Run(a, b, mm::BmmMethod());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->report.outcome.ok());

  const CommMatrixSnapshot& snap = result->report.comm;
  EXPECT_EQ(snap.num_nodes, cluster.num_nodes);
  ASSERT_GT(snap.TotalBytes(), 0);
  // Every byte originates on node 0 (the only block home).
  for (int src = 1; src < snap.num_nodes; ++src) {
    for (int dst = 0; dst < snap.num_nodes; ++dst) {
      EXPECT_EQ(snap.Bytes(CommStage::kRepartition, src, dst), 0)
          << "unexpected traffic " << src << " -> " << dst;
    }
  }
  // At most 2 of the 6 possible links are active → max ≥ total/2 while the
  // mean divides by all 6, so the skew ratio is at least 3 (allow margin).
  EXPECT_GE(snap.SkewRatio(), 2.0);
  EXPECT_LE(snap.ActiveLinks(), 2);

  // One link: CuboidMM(2,1,1) runs task 0 on node 0, where both inputs
  // live, and task 1 on node 1, so every byte crosses 0 -> 1. Over the
  // 4·3 links of a 4-node cluster that is skew 12, even though nodes 2 and
  // 3 never move a byte.
  const ClusterConfig four = ClusterConfig::Local(4, 1);
  engine::DistributedMatrix a4 = engine::DistributedMatrix::FromGrid(
      a.Collect(), 4, engine::Partitioner::Grid(4, 100, 100));
  engine::DistributedMatrix b4 = engine::DistributedMatrix::FromGrid(
      b.Collect(), 4, engine::Partitioner::Grid(4, 100, 100));
  engine::RealExecutor executor4(four);
  auto one_link =
      executor4.Run(a4, b4, mm::CuboidMethod(mm::CuboidSpec{2, 1, 1}));
  ASSERT_TRUE(one_link.ok()) << one_link.status().ToString();
  ASSERT_TRUE(one_link->report.outcome.ok());
  const CommMatrixSnapshot& link = one_link->report.comm;
  EXPECT_EQ(link.num_nodes, 4);
  EXPECT_EQ(link.ActiveLinks(), 1);
  EXPECT_GT(link.Bytes(CommStage::kRepartition, 0, 1), 0);
  EXPECT_EQ(link.TotalBytes(), link.Bytes(CommStage::kRepartition, 0, 1));
  EXPECT_DOUBLE_EQ(link.SkewRatio(), 12.0);
}

// --- SimExecutor comm accounting -------------------------------------------

TEST(SimCommTest, CommMatrixTotalsMatchTheReport) {
  const ClusterConfig cluster = ClusterConfig::Local(4, 2);
  engine::SimExecutor sim(cluster);
  const mm::MMProblem problem =
      mm::MMProblem::DenseSquareBlocks(512, 512, 512, 64);

  std::vector<std::unique_ptr<mm::Method>> methods;
  methods.push_back(std::make_unique<mm::CpmmMethod>());
  methods.push_back(std::make_unique<mm::BmmMethod>());
  methods.push_back(std::make_unique<mm::RmmMethod>());
  for (const auto& method : methods) {
    obs::MetricsRegistry metrics;
    engine::SimOptions options;
    options.metrics = &metrics;
    auto report = sim.Run(problem, *method, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    const CommMatrixSnapshot& snap = report->comm;
    EXPECT_EQ(snap.num_nodes, cluster.num_nodes);
    // The per-link spread rounds per node per task; totals must still add
    // back up to the report's shuffle bytes.
    const double slack =
        0.01 * report->total_shuffle_bytes() +
        static_cast<double>(report->num_tasks + 1) * cluster.num_nodes;
    EXPECT_NEAR(static_cast<double>(snap.TotalBytes()),
                report->total_shuffle_bytes(), slack)
        << method->name();
    EXPECT_NEAR(static_cast<double>(snap.TotalBytes(CommStage::kRepartition)),
                report->repartition_bytes, slack)
        << method->name();
    // Summary gauges were published into the registry.
    const obs::MetricsSnapshot ms = metrics.Snapshot();
    EXPECT_NE(ms.Find("distme.comm.max_link_bytes"), nullptr);
    EXPECT_NE(ms.Find("distme.comm.skew_permille"), nullptr);
  }
}

// --- ExplainReport / Session::ExplainLastRun -------------------------------

Result<core::Matrix> SessionMatrix(core::Session* session, int64_t rows,
                                   int64_t cols, uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = 8;
  g.sparsity = 1.0;
  g.seed = seed;
  return session->Generate(g);
}

TEST(ExplainTest, ExplainLastRunReportsPredictedVsMeasured) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(3, 2);
  core::Session session(options);
  auto a = SessionMatrix(&session, 48, 40, 41);
  auto b = SessionMatrix(&session, 40, 32, 42);
  ASSERT_TRUE(a.ok() && b.ok());

  auto c = session.Multiply(*a, *b);
  ASSERT_TRUE(c.ok()) << c.status().ToString();

  auto explain = session.ExplainLastRun();
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  // The default planner is DistME's optimizer → a CuboidMM plan.
  EXPECT_NE(explain->method_name.find("CuboidMM"), std::string::npos);
  EXPECT_EQ(explain->outcome, "OK");
  ASSERT_EQ(explain->stages.size(), 3u);
  EXPECT_EQ(explain->stages[0].stage, "repartition");
  EXPECT_EQ(explain->stages[1].stage, "multiply");
  EXPECT_EQ(explain->stages[2].stage, "aggregation");
  EXPECT_TRUE(explain->stages[0].has_prediction);
  EXPECT_GT(explain->predicted_total_bytes(), 0.0);
  EXPECT_GT(explain->measured_total_bytes(), 0.0);
  EXPECT_GT(explain->tasks.count, 0);
  EXPECT_GT(explain->tasks.p95_seconds, 0.0);
  EXPECT_GE(explain->tasks.max_seconds, explain->tasks.p95_seconds);
  EXPECT_FALSE(explain->comm.empty());
  EXPECT_GT(explain->comm.TotalBytes(), 0);

  const std::string table = explain->ToTable();
  EXPECT_NE(table.find("repartition"), std::string::npos);
  EXPECT_NE(table.find("straggler"), std::string::npos);

  const std::string json = explain->ToJson();
  for (const char* key :
       {"\"predicted_total_bytes\"", "\"measured_total_bytes\"",
        "\"p95_seconds\"", "\"straggler_ratio\"", "\"stages\"", "\"comm\"",
        "\"skew_ratio\"", "\"measured_peak_task_memory_bytes\"",
        "\"total_flops\"", "\"pcie_bytes\"", "\"gpu_utilization\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("\"error\""), std::string::npos);
}

TEST(ExplainTest, SecondRunIsExplainedByItsOwnDelta) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(3, 2);
  core::Session session(options);
  auto a = SessionMatrix(&session, 48, 40, 51);
  auto b = SessionMatrix(&session, 40, 32, 52);
  ASSERT_TRUE(a.ok() && b.ok());

  ASSERT_TRUE(session.Multiply(*a, *b).ok());
  auto first = session.ExplainLastRun();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(session.Multiply(*a, *b).ok());
  auto second = session.ExplainLastRun();
  ASSERT_TRUE(second.ok());

  // Per-run extraction: the second explain covers one run, not the
  // session-cumulative instruments (identical input → similar volume).
  EXPECT_EQ(second->tasks.count, first->tasks.count);
  EXPECT_NEAR(second->comm.TotalBytes(),
              static_cast<double>(first->comm.TotalBytes()),
              0.5 * static_cast<double>(first->comm.TotalBytes()) + 1.0);
}

// Nearest-rank percentile of the sorted spans: the smallest span with at
// least `percent`% of the spans at or below it.
double NearestRankSeconds(const std::vector<int64_t>& sorted_us,
                          double percent) {
  const double rank =
      std::ceil(percent * static_cast<double>(sorted_us.size()) / 100.0);
  return static_cast<double>(sorted_us[static_cast<size_t>(rank) - 1]) * 1e-6;
}

TEST(ExplainTest, TaskStatsAreTheRunsExactTaskSpans) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  core::Session session(options);
  auto a = SessionMatrix(&session, 64, 48, 71);
  auto b = SessionMatrix(&session, 48, 40, 72);
  ASSERT_TRUE(a.ok() && b.ok());
  // Two runs, so the ring also holds tasks that are not the last run's.
  ASSERT_TRUE(session.Multiply(*a, *b).ok());
  const uint64_t seq_before = session.flight().TotalRecorded();
  ASSERT_TRUE(session.Multiply(*a, *b).ok());

  // The last run's task spans, task_finish − task_start, from the ring.
  std::map<int64_t, int64_t> start_us;
  std::vector<int64_t> spans_us;
  for (const obs::FlightEvent& e : session.flight().Snapshot()) {
    if (e.seq <= seq_before) continue;
    if (e.type == obs::FlightEventType::kTaskStart) start_us[e.a] = e.ts_us;
    if (e.type == obs::FlightEventType::kTaskFinish) {
      ASSERT_EQ(start_us.count(e.a), 1u) << "task " << e.a;
      spans_us.push_back(e.ts_us - start_us[e.a]);
    }
  }
  ASSERT_GT(spans_us.size(), 1u);
  std::sort(spans_us.begin(), spans_us.end());

  auto explain = session.ExplainLastRun();
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->tasks.count, session.history().back().num_tasks);
  EXPECT_EQ(explain->tasks.count, static_cast<int64_t>(spans_us.size()));
  EXPECT_DOUBLE_EQ(explain->tasks.p50_seconds,
                   NearestRankSeconds(spans_us, 50));
  EXPECT_DOUBLE_EQ(explain->tasks.p95_seconds,
                   NearestRankSeconds(spans_us, 95));
  EXPECT_DOUBLE_EQ(explain->tasks.max_seconds,
                   static_cast<double>(spans_us.back()) * 1e-6);
}

TEST(ExplainTest, FailedRunExplainCarriesItsCommMatrix) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  options.real.task_failure_rate = 1.0;  // every attempt crashes
  options.real.max_task_attempts = 2;
  core::Session session(options);
  auto a = SessionMatrix(&session, 48, 40, 81);
  auto b = SessionMatrix(&session, 40, 32, 82);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(session.Multiply(*a, *b).ok());

  auto explain = session.ExplainLastRun();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->outcome, "OK");
  EXPECT_EQ(explain->error, session.history().back().outcome.ToString());
  EXPECT_NE(explain->ToJson().find("\"error\":\"" + explain->error + "\""),
            std::string::npos);
  // The attempts fetched their remote inputs before crashing.
  EXPECT_GT(explain->comm.TotalBytes(), 0);
  EXPECT_EQ(explain->comm.TotalBytes(),
            session.history().back().comm.TotalBytes());
}

TEST(ExplainTest, CollectExplainOffMeansNoReport) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  options.collect_explain = false;
  core::Session session(options);
  auto a = SessionMatrix(&session, 32, 24, 61);
  auto b = SessionMatrix(&session, 24, 16, 62);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(session.Multiply(*a, *b).ok());
  EXPECT_FALSE(session.ExplainLastRun().ok());
}

TEST(ExplainTest, BuildFromSimReport) {
  // Explain also works over a simulated run's report alone.
  const ClusterConfig cluster = ClusterConfig::Local(4, 2);
  engine::SimExecutor sim(cluster);
  const mm::MMProblem problem =
      mm::MMProblem::DenseSquareBlocks(512, 512, 512, 64);
  const mm::CpmmMethod method;
  auto report = sim.Run(problem, method, {});
  ASSERT_TRUE(report.ok());

  auto explain =
      engine::BuildExplainReport(*report, method, problem, cluster);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->method_name, "CPMM");
  EXPECT_GT(explain->predicted_total_bytes(), 0.0);
  EXPECT_GT(explain->measured_total_bytes(), 0.0);
  // Without flight events there are no task spans to take percentiles of.
  EXPECT_EQ(explain->tasks.count, report->num_tasks);
  EXPECT_EQ(explain->tasks.p50_seconds, 0.0);
  // A simulated report always carries its run's comm matrix.
  EXPECT_EQ(explain->comm.num_nodes, cluster.num_nodes);
  EXPECT_GT(explain->comm.TotalBytes(), 0);
}

}  // namespace
}  // namespace distme
