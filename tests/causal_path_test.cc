// Causal-graph + critical-path analysis: hand-crafted event streams with
// known answers, the blocked-time sum identity, the sim executor's synthetic
// timeline (path must tile the simulated wall exactly and land within 5% of
// the report's elapsed time), and the real-executor/Session integration.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "engine/sim_executor.h"
#include "matrix/generator.h"
#include "mm/methods.h"
#include "mm/optimizer.h"
#include "obs/causal_graph.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"

namespace distme::obs {
namespace {

using Type = FlightEventType;

// Asserts the per-task decomposition identity the analysis is built on:
// slot_wait + fetch_wait + gpu_wait + exec == finish - ready, for every task.
void ExpectComponentsSumToSpan(const CriticalPathAnalysis& analysis) {
  for (const TaskBlockedTime& t : analysis.tasks) {
    EXPECT_EQ(t.components_us(), t.span_us())
        << "task " << t.task_id << ": slot " << t.slot_wait_us << " + fetch "
        << t.fetch_wait_us << " + gpu " << t.gpu_wait_us << " + exec "
        << t.exec_us << " != span " << t.span_us();
  }
}

// Asserts the walk invariant: hops tile [run_start, run_finish] with no gap
// or overlap, so the path length equals the wall time exactly.
void ExpectHopsTileWall(const CriticalPathAnalysis& analysis,
                        int64_t run_start_us, int64_t run_finish_us) {
  ASSERT_FALSE(analysis.hops.empty());
  EXPECT_EQ(analysis.hops.front().begin_us, run_start_us);
  EXPECT_EQ(analysis.hops.back().end_us, run_finish_us);
  for (size_t i = 1; i < analysis.hops.size(); ++i) {
    EXPECT_EQ(analysis.hops[i].begin_us, analysis.hops[i - 1].end_us)
        << "gap/overlap between hop " << i - 1 << " ("
        << analysis.hops[i - 1].label << ") and hop " << i << " ("
        << analysis.hops[i].label << ")";
  }
  EXPECT_EQ(analysis.path_us, analysis.wall_us);
}

TEST(CausalGraphTest, EmptyAndTruncatedSnapshots) {
  EXPECT_EQ(BuildCausalGraph({}).wall_us(), 0);

  // A run_finish with no run_start before it (ring wrapped past the start)
  // must not produce a phantom run.
  FlightRecorder flight(64);
  flight.RecordAt(900, Type::kRunFinish, -1, -1, 4, 0, "sim");
  EXPECT_EQ(BuildCausalGraph(flight.Snapshot()).wall_us(), 0);

  // A run_start with no finish (crash mid-run) likewise.
  flight.RecordAt(1000, Type::kRunStart, -1, -1, 4, 0, "sim");
  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  EXPECT_EQ(graph.wall_us(), 0);
}

TEST(CausalGraphTest, ParsesTasksStagesAndEdges) {
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 2, 0, "real");
  flight.RecordAt(0, Type::kStageBegin, -1, -1, 0, 0, "multiply");
  flight.RecordAt(10, Type::kTaskStart, 0, 0, /*task=*/7, 0, "t");
  flight.RecordEdgeAt(50, FlightEdgeKind::kFetchWait, 0, 0, 7, 40);
  flight.RecordEdgeAt(90, FlightEdgeKind::kGpuWait, 0, 0, 7, 30);
  flight.RecordAt(100, Type::kTaskFinish, 0, 0, 7, 90, "t");
  flight.RecordAt(120, Type::kStageEnd, -1, -1, 0, 0, "multiply");
  flight.RecordAt(150, Type::kRunFinish, -1, -1, 2, 0, "real");

  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  EXPECT_EQ(graph.wall_us(), 150);
  EXPECT_TRUE(graph.run_ok);
  EXPECT_EQ(graph.planned_tasks, 2);
  ASSERT_EQ(graph.tasks.size(), 1u);
  EXPECT_EQ(graph.tasks[0].task_id, 7);
  EXPECT_EQ(graph.tasks[0].start_us, 10);
  EXPECT_EQ(graph.tasks[0].finish_us, 100);
  EXPECT_EQ(graph.tasks[0].fetch_wait_us, 40);
  EXPECT_EQ(graph.tasks[0].gpu_wait_us, 30);
  ASSERT_EQ(graph.stages.size(), 1u);
  EXPECT_EQ(graph.stages[0].name, "multiply");
  EXPECT_EQ(graph.stages[0].span_us(), 120);
}

TEST(CausalGraphTest, FailedRunAndRetryAttempts) {
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 1, 0, "real");
  flight.RecordAt(5, Type::kTaskStart, 0, 0, 3, 0, "t");
  // The retry's fresh start resets the first attempt's accumulators.
  flight.RecordEdgeAt(8, FlightEdgeKind::kFetchWait, 0, 0, 3, 3);
  flight.RecordAt(20, Type::kTaskStart, 0, 1, 3, 1, "t");
  flight.RecordAt(30, Type::kTaskFinish, 0, 1, 3, 10, "t");
  flight.RecordAt(40, Type::kRunFinish, -1, -1, 1, /*failed=*/1, "real");

  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  EXPECT_FALSE(graph.run_ok);
  ASSERT_EQ(graph.tasks.size(), 1u);
  EXPECT_EQ(graph.tasks[0].attempts, 2);
  EXPECT_EQ(graph.tasks[0].start_us, 20);
  EXPECT_EQ(graph.tasks[0].fetch_wait_us, 0);
}

TEST(CausalGraphTest, AnalyzesLastCompleteRunOnly) {
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 9, 0, "real");
  flight.RecordAt(100, Type::kRunFinish, -1, -1, 9, 0, "real");
  flight.RecordAt(200, Type::kRunStart, -1, -1, 1, 0, "real");
  flight.RecordAt(210, Type::kTaskStart, 0, 0, 0, 0, "t");
  flight.RecordAt(260, Type::kTaskFinish, 0, 0, 0, 50, "t");
  flight.RecordAt(300, Type::kRunFinish, -1, -1, 1, 0, "real");

  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  EXPECT_EQ(graph.run_start_us, 200);
  EXPECT_EQ(graph.run_finish_us, 300);
  EXPECT_EQ(graph.planned_tasks, 1);
  ASSERT_EQ(graph.tasks.size(), 1u);
}

TEST(FlightEdgeKindTest, NameRoundTrip) {
  for (int i = 0; i < static_cast<int>(FlightEdgeKind::kNumKinds); ++i) {
    const FlightEdgeKind kind = static_cast<FlightEdgeKind>(i);
    EXPECT_EQ(FlightEdgeKindFromName(FlightEdgeKindName(kind)), kind);
  }
  EXPECT_EQ(FlightEdgeKindFromName("no_such_kind"),
            FlightEdgeKind::kNumKinds);
  EXPECT_EQ(FlightEdgeKindFromName(nullptr), FlightEdgeKind::kNumKinds);
}

TEST(FlightDumpTest, HeaderCarriesWallClockAnchor) {
  FlightRecorder flight(64);
  flight.Record(Type::kRunStart, -1, -1, 0, 0, "real");
  const std::string json = flight.ToJson();
  EXPECT_NE(json.find("\"schema\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_epoch_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"steady_epoch_us\":"), std::string::npos);
  EXPECT_GT(flight.WallEpochMicros(), 0);
}

TEST(CriticalPathTest, HandCraftedChainHasKnownPath) {
  // Two tasks serialized on slot (0,0): task 0 runs [10,100] with 40 µs of
  // fetch wait, task 1 waits for the slot and runs [100,180]. 20 µs of
  // overhead tail to run_finish at 200.
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 2, 0, "real");
  flight.RecordAt(10, Type::kTaskStart, 0, 0, 0, 0, "t");
  flight.RecordEdgeAt(50, FlightEdgeKind::kFetchWait, 0, 0, 0, 40);
  flight.RecordAt(100, Type::kTaskFinish, 0, 0, 0, 90, "t");
  flight.RecordAt(100, Type::kTaskStart, 0, 0, 1, 0, "t");
  flight.RecordAt(180, Type::kTaskFinish, 0, 0, 1, 80, "t");
  flight.RecordAt(200, Type::kRunFinish, -1, -1, 2, 0, "real");

  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  const CriticalPathAnalysis analysis = AnalyzeCriticalPath(graph);
  EXPECT_EQ(analysis.wall_us, 200);
  ExpectHopsTileWall(analysis, 0, 200);
  ExpectComponentsSumToSpan(analysis);

  // Expected tiling: task 0 slot_wait [0,10] (ready at run start), fetch
  // [10,50], exec [50,100]; task 1 exec [100,180] (chained, no wait);
  // overhead [180,200].
  EXPECT_EQ(analysis.attribution_us.at("scheduling"), 10);
  EXPECT_EQ(analysis.attribution_us.at("shuffle"), 40);
  EXPECT_EQ(analysis.attribution_us.at("compute"), 50 + 80);
  EXPECT_EQ(analysis.attribution_us.at("overhead"), 20);
  EXPECT_EQ(analysis.bottleneck(), "compute");
  EXPECT_NEAR(analysis.bottleneck_fraction(), 130.0 / 200.0, 1e-12);

  // Fleet-wide blocked-time aggregates cover both tasks.
  EXPECT_EQ(analysis.aggregate_us.at("fetch_wait"), 40);
  EXPECT_EQ(analysis.aggregate_us.at("exec"), 50 + 80);
}

// Two tasks chained on slot (0,0): task 0 waits `fetch_us` on its inputs
// and computes 50 us, task 1 computes 80 us; then an aggregation barrier of
// `agg_us` (none when 0) and `tail_us` of unexplained overhead.
CriticalPathAnalysis ChainedRun(int64_t fetch_us, int64_t agg_us,
                                int64_t tail_us) {
  const int64_t t0_finish = 10 + fetch_us + 50;
  const int64_t t1_finish = t0_finish + 80;
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 2, 0, "real");
  flight.RecordAt(10, Type::kTaskStart, 0, 0, 0, 0, "t");
  flight.RecordEdgeAt(10 + fetch_us, FlightEdgeKind::kFetchWait, 0, 0, 0,
                      fetch_us);
  flight.RecordAt(t0_finish, Type::kTaskFinish, 0, 0, 0, t0_finish - 10, "t");
  flight.RecordAt(t0_finish, Type::kTaskStart, 0, 0, 1, 0, "t");
  flight.RecordAt(t1_finish, Type::kTaskFinish, 0, 0, 1, 80, "t");
  if (agg_us > 0) {
    flight.RecordAt(t1_finish, Type::kStageBegin, -1, -1, 0, 0, "aggregation");
    flight.RecordAt(t1_finish + agg_us, Type::kStageEnd, -1, -1, 0, 0,
                    "aggregation");
  }
  flight.RecordAt(t1_finish + agg_us + tail_us, Type::kRunFinish, -1, -1, 2,
                  0, "real");
  return AnalyzeCriticalPath(BuildCausalGraph(flight.Snapshot()));
}

TEST(CriticalPathTest, DiffOfTwoHandBuiltSchedules) {
  // Before: fetch 40, no barrier, 20 us overhead tail (wall 200). After:
  // fetch 100 and a 20 us aggregation barrier (wall 260).
  const CriticalPathAnalysis before = ChainedRun(40, 0, 20);
  const CriticalPathAnalysis after = ChainedRun(100, 20, 0);
  const CriticalPathDiff diff = DiffCriticalPaths(before, after);
  EXPECT_EQ(diff.wall_before_us, 200);
  EXPECT_EQ(diff.wall_after_us, 260);
  const std::map<std::string, int64_t> attribution = {
      {"compute", 0}, {"overhead", -20}, {"scheduling", 0}, {"shuffle", 80}};
  EXPECT_EQ(diff.attribution_delta_us, attribution);
  const std::map<std::string, int64_t> stages = {{"aggregation", 20}};
  EXPECT_EQ(diff.stage_delta_us, stages);
  // Compute (130 us) still outweighs shuffle (120 us).
  EXPECT_TRUE(diff.stable());
  EXPECT_EQ(diff.bottleneck_after, "compute");
  EXPECT_NEAR(diff.fraction_after, 130.0 / 260.0, 1e-12);
  EXPECT_EQ(diff.hops_entered, std::vector<std::string>{"stage aggregation"});
  EXPECT_EQ(diff.hops_left, std::vector<std::string>{"overhead"});
  EXPECT_NE(diff.ToText().find("[stable]"), std::string::npos);

  // A 150 us fetch makes the run shuffle-bound (170 us against 130 us).
  const CriticalPathDiff moved =
      DiffCriticalPaths(before, ChainedRun(150, 20, 0));
  EXPECT_FALSE(moved.stable());
  EXPECT_EQ(moved.bottleneck_before, "compute");
  EXPECT_EQ(moved.bottleneck_after, "shuffle");
  EXPECT_NE(moved.ToText().find("[CHANGED]"), std::string::npos);
}

TEST(CriticalPathTest, StageBarriersExplainTaskFreeIntervals) {
  // A sim-shaped run: repartition stage, multiply stage with one task, an
  // aggregation stage, and run bounds beyond the last stage. Task 1 has no
  // length and sits at the multiply barrier (a sub-µs sim task rounds to
  // one): it binds where it ends, so it explains nothing, and the walk must
  // still move on to the repartition barrier.
  FlightRecorder flight(128);
  flight.RecordAt(0, Type::kRunStart, -1, -1, 2, 0, "sim");
  flight.RecordAt(5, Type::kStageBegin, -1, -1, 0, 0, "repartition");
  flight.RecordAt(100, Type::kStageEnd, -1, -1, 0, 0, "repartition");
  flight.RecordAt(100, Type::kStageBegin, -1, -1, 0, 0, "multiply");
  flight.RecordAt(100, Type::kTaskStart, 0, 0, 0, 0, "sim");
  flight.RecordAt(100, Type::kTaskStart, 0, 1, 1, 0, "sim");
  flight.RecordAt(100, Type::kTaskFinish, 0, 1, 1, 0, "sim");
  flight.RecordAt(160, Type::kTaskFinish, 0, 0, 0, 60, "sim");
  flight.RecordAt(180, Type::kStageEnd, -1, -1, 0, 0, "multiply");
  flight.RecordAt(180, Type::kStageBegin, -1, -1, 0, 0, "aggregation");
  flight.RecordAt(230, Type::kStageEnd, -1, -1, 0, 0, "aggregation");
  flight.RecordAt(230, Type::kRunFinish, -1, -1, 2, 0, "sim");

  const CriticalPathAnalysis analysis =
      AnalyzeCriticalPath(BuildCausalGraph(flight.Snapshot()));
  ExpectHopsTileWall(analysis, 0, 230);
  ExpectComponentsSumToSpan(analysis);
  // Aggregation [180,230] and repartition [5,100] are shuffle barriers; the
  // multiply sync slack [160,180] is compute; [0,5] is overhead.
  EXPECT_EQ(analysis.attribution_us.at("shuffle"), 95 + 50);
  EXPECT_EQ(analysis.attribution_us.at("compute"), 60 + 20);
  EXPECT_EQ(analysis.attribution_us.at("overhead"), 5);
  EXPECT_EQ(analysis.stage_us.at("repartition"), 95);
  EXPECT_EQ(analysis.stage_us.at("multiply"), 80);
  EXPECT_EQ(analysis.stage_us.at("aggregation"), 50);
}

TEST(CriticalPathTest, SimTimelinePathMatchesReportedWall) {
  // The acceptance gate: a simulated run's critical-path length must land
  // within 5% of the run's measured (simulated) wall time. By construction
  // the path tiles the flight wall exactly, so the 5% bound absorbs only
  // µs rounding between the report's seconds and the emitted timeline.
  const ClusterConfig cluster = ClusterConfig::Paper();
  engine::SimExecutor executor(cluster);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(70000, 70000, 70000,
                                                     1000);
  p.a.sparsity = p.b.sparsity = 0.5;
  auto opt = mm::OptimizeCuboid(p, cluster);
  ASSERT_TRUE(opt.ok());
  mm::CuboidMethod method(opt->spec);

  FlightRecorder flight(4096);
  engine::SimOptions options;
  options.mode = engine::ComputeMode::kGpuStreaming;
  options.flight = &flight;
  options.flight_task_events = true;
  auto report = executor.Run(p, method, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->outcome.ok());

  const CausalGraph graph = BuildCausalGraph(flight.Snapshot());
  ASSERT_GT(graph.wall_us(), 0);
  EXPECT_GT(graph.tasks.size(), 0u) << "ring too small for task events?";
  const CriticalPathAnalysis analysis = AnalyzeCriticalPath(graph);
  ExpectHopsTileWall(analysis, graph.run_start_us, graph.run_finish_us);
  ExpectComponentsSumToSpan(analysis);

  const double path_s = static_cast<double>(analysis.path_us) * 1e-6;
  EXPECT_NEAR(path_s, report->elapsed_seconds,
              0.05 * report->elapsed_seconds)
      << "path " << path_s << "s vs wall " << report->elapsed_seconds << "s";
  // A simulated CuboidMM run is dominated by recorded causes, not overhead.
  EXPECT_NE(analysis.bottleneck(), "");
  EXPECT_GT(analysis.bottleneck_fraction(), 0.2);
}

TEST(CriticalPathTest, SessionExplainCarriesCriticalPath) {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(4);
  core::Session session(options);

  GeneratorOptions gen;
  gen.rows = 256;
  gen.cols = 256;
  gen.block_size = 64;
  gen.sparsity = 1.0;
  gen.seed = 7;
  auto a = session.Generate(gen);
  ASSERT_TRUE(a.ok());
  auto b = session.Generate(gen);
  ASSERT_TRUE(b.ok());
  auto c = session.Multiply(*a, *b);
  ASSERT_TRUE(c.ok());

  auto explain = session.ExplainLastRun();
  ASSERT_TRUE(explain.ok());
  ASSERT_TRUE(explain->has_critical_path);
  const CriticalPathAnalysis& analysis = explain->critical_path;
  EXPECT_GT(analysis.path_us, 0);
  EXPECT_EQ(analysis.path_us, analysis.wall_us);
  EXPECT_TRUE(analysis.run_ok);
  EXPECT_GT(analysis.tasks.size(), 0u);
  ExpectComponentsSumToSpan(analysis);
  // The real executor's wall time includes planning/partitioning around the
  // flight-bracketed run, so consistency is <= 1 but must stay meaningful.
  const double path_s = static_cast<double>(analysis.path_us) * 1e-6;
  EXPECT_LE(path_s, explain->elapsed_seconds * 1.05);

  // Both renderings surface the analysis.
  EXPECT_NE(explain->ToTable().find("critical path:"), std::string::npos);
  EXPECT_NE(explain->ToJson().find("\"critical_path\""), std::string::npos);
}

TEST(CriticalPathTest, AnalysisJsonFileIsWritten) {
  const std::string path =
      ::testing::TempDir() + "/distme_analysis_test.json";
  std::remove(path.c_str());
  {
    core::Session::Options options;
    options.cluster = ClusterConfig::Local(2);
    options.analysis_json_path = path;
    core::Session session(options);
    GeneratorOptions gen;
    gen.rows = 128;
    gen.cols = 128;
    gen.block_size = 64;
    gen.seed = 3;
    auto a = session.Generate(gen);
    ASSERT_TRUE(a.ok());
    auto c = session.Multiply(*a, *a);
    ASSERT_TRUE(c.ok());
  }
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "analysis JSON not written to " << path;
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_GT(n, 0u);
  EXPECT_NE(std::strstr(buf, "\"method\""), nullptr);
}

}  // namespace
}  // namespace distme::obs
