// google-benchmark microbenchmarks for the engine substrate: block
// serialization, the (P,Q,R) optimizer, plan enumeration, and the simulated
// executor itself.

#include <benchmark/benchmark.h>

#include <algorithm>

#include <chrono>
#include <cstdlib>
#include <string_view>

#include "bench_util.h"
#include "common/random.h"
#include "engine/real_executor.h"
#include "engine/sim_executor.h"
#include "gpu/device.h"
#include "gpumm/streaming.h"
#include "matrix/generator.h"
#include "matrix/serialize.h"
#include "mm/methods.h"
#include "mm/optimizer.h"
#include "obs/causal_graph.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_timeline.h"
#include "obs/metrics.h"

namespace distme {
namespace {

void BM_SerializeDenseBlock(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Block block = Block::Dense(DenseMatrix::Random(n, n, &rng));
  for (auto _ : state) {
    auto buffer = SerializeBlock(block);
    benchmark::DoNotOptimize(buffer);
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_SerializeDenseBlock)->Arg(256)->Arg(1000);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Block block = Block::Dense(DenseMatrix::Random(n, n, &rng));
  for (auto _ : state) {
    auto restored = DeserializeBlock(SerializeBlock(block));
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_SerializeRoundTrip)->Arg(256)->Arg(1000);

void BM_OptimizeCuboid(benchmark::State& state) {
  // The paper reports 0.3 s single-threaded for 100K x 100K x 100K inputs
  // (I = J = K = 100); our closed-form-R search is far below that.
  const int64_t n = state.range(0);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(n, n, n, 1000);
  p.a.sparsity = p.b.sparsity = 0.5;
  const ClusterConfig cluster = ClusterConfig::Paper();
  for (auto _ : state) {
    auto opt = mm::OptimizeCuboid(p, cluster);
    benchmark::DoNotOptimize(opt);
  }
}
BENCHMARK(BM_OptimizeCuboid)->Arg(100000)->Arg(500000);

void BM_OptimizeCuboidBruteForce(benchmark::State& state) {
  const int64_t n = state.range(0);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(n, n, n, 1000);
  const ClusterConfig cluster = ClusterConfig::Paper();
  for (auto _ : state) {
    auto opt = mm::OptimizeCuboidBruteForce(p, cluster);
    benchmark::DoNotOptimize(opt);
  }
}
BENCHMARK(BM_OptimizeCuboidBruteForce)->Arg(50000)->Arg(100000);

void BM_PlanEnumerationRmm(benchmark::State& state) {
  const int64_t n = state.range(0);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(n, n, n, 1000);
  const ClusterConfig cluster = ClusterConfig::Paper();
  mm::RmmMethod rmm;
  for (auto _ : state) {
    int64_t voxels = 0;
    Status st = rmm.ForEachTask(p, cluster, [&](const mm::LocalTask& t) {
      voxels += t.voxels.size();
      return Status::OK();
    });
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(voxels);
  }
}
BENCHMARK(BM_PlanEnumerationRmm)->Arg(50000)->Arg(100000);

void BM_SimExecutorCuboid(benchmark::State& state) {
  const int64_t n = state.range(0);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(n, n, n, 1000);
  p.a.sparsity = p.b.sparsity = 0.5;
  const ClusterConfig cluster = ClusterConfig::Paper();
  engine::SimExecutor executor(cluster);
  auto opt = mm::OptimizeCuboid(p, cluster);
  if (!opt.ok()) {
    state.SkipWithError("optimizer failed");
    return;
  }
  mm::CuboidMethod method(opt->spec);
  engine::SimOptions gpu;
  gpu.mode = engine::ComputeMode::kGpuStreaming;
  for (auto _ : state) {
    auto report = executor.Run(p, method, gpu);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SimExecutorCuboid)->Arg(70000)->Arg(100000);

// The same simulated run with a metrics registry wired — the default
// configuration of every executor. Comparing against BM_SimExecutorCuboid
// bounds the wired-sink overhead (<2%).
void BM_SimExecutorCuboidObsWiredOff(benchmark::State& state) {
  const int64_t n = state.range(0);
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(n, n, n, 1000);
  p.a.sparsity = p.b.sparsity = 0.5;
  const ClusterConfig cluster = ClusterConfig::Paper();
  engine::SimExecutor executor(cluster);
  auto opt = mm::OptimizeCuboid(p, cluster);
  if (!opt.ok()) {
    state.SkipWithError("optimizer failed");
    return;
  }
  mm::CuboidMethod method(opt->spec);
  obs::MetricsRegistry metrics;
  engine::SimOptions gpu;
  gpu.mode = engine::ComputeMode::kGpuStreaming;
  gpu.metrics = &metrics;
  for (auto _ : state) {
    auto report = executor.Run(p, method, gpu);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SimExecutorCuboidObsWiredOff)->Arg(70000)->Arg(100000);

// --- Observability hot-path costs (Section "Observability" in DESIGN.md).

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder flight(512);
  int64_t task = 0;
  for (auto _ : state) {
    flight.Record(obs::FlightEventType::kTaskStart, 0, 0, task++, 0);
  }
  benchmark::DoNotOptimize(flight.TotalRecorded());
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Add(1);
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("bench.histogram");
  double v = 1e-6;
  for (auto _ : state) {
    histogram->Observe(v);
    v = v < 1e3 ? v * 1.001 : 1e-6;
  }
  benchmark::DoNotOptimize(histogram->Count());
}
BENCHMARK(BM_HistogramObserve);

// Keeps the best (minimum) batch time of each side over kOverheadReps
// off/on pairs, alternating which side runs first (off/on, then on/off), so
// neither side always inherits the other's warm caches or a drift in the
// host's load. The minimum is the batch least disturbed by unrelated
// machine noise, so the ratio isolates the feature's own cost. More pairs
// of shorter batches make that minimum steadier: on a shared 4-vCPU host,
// 6 pairs of 0.2 s batches put a ratio above 1.05 in 8 of 22 runs, and 20
// pairs of 0.1 s batches in 3 of 29.
constexpr int kOverheadReps = 20;
constexpr double kOverheadBatchSeconds = 0.1;

template <typename RunBatch>
Status BestOffOn(RunBatch& run_batch, int64_t iters, double* best_off,
                 double* best_on) {
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const bool on_first = rep % 2 == 1;
    double seconds[2] = {0, 0};  // [off, on]
    for (const bool on : {on_first, !on_first}) {
      DISTME_ASSIGN_OR_RETURN(seconds[on ? 1 : 0], run_batch(iters, on));
    }
    if (rep == 0 || seconds[0] < *best_off) *best_off = seconds[0];
    if (rep == 0 || seconds[1] < *best_on) *best_on = seconds[1];
  }
  return Status::OK();
}

// Analyzer-overhead measurement, min-of-N in ABBA order (BestOffOn). The
// "on" side wires a flight ring into the real executor, which then emits
// the full causal timeline (task start/finish, fetch/gpu dependency edges,
// stage barriers) — the cost every real multiplication pays once the
// analyzer is enabled. The workload is a real CPU multiply (384x384,
// block 64, RMM on 3x2 slots) so the ratio
// compares emission against genuine task work, not against the simulator's
// microsecond-scale cost model. The snapshot + BuildCausalGraph +
// AnalyzeCriticalPath pass runs once per explain, off the per-task hot
// path, so it is validated after the timed region (the critical path must
// tile the run's wall time) but not timed. The bench baseline gates the
// recorded ratio at <= 1.03.
int RunAnalyzerOverheadOnly(bench::BenchObs* obs) {
  const ClusterConfig cluster = ClusterConfig::Local(3, 2);
  GeneratorOptions ga;
  ga.rows = ga.cols = 384;
  ga.block_size = 64;
  ga.sparsity = 1.0;
  ga.seed = 11;
  GeneratorOptions gb = ga;
  gb.seed = 12;
  engine::DistributedMatrix a =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(ga), 3);
  engine::DistributedMatrix b =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(gb), 3);
  mm::RmmMethod method;
  engine::RealExecutor executor(cluster);
  engine::RealOptions options;
  options.mode = engine::ComputeMode::kCpu;
  obs->Wire(&options);
  obs::FlightRecorder flight(2048);

  auto run_batch = [&](int64_t iters, bool analyzer) -> Result<double> {
    options.flight = analyzer ? &flight : nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      DISTME_ASSIGN_OR_RETURN(engine::RealRunResult result,
                              executor.Run(a, b, method, options));
      DISTME_RETURN_NOT_OK(result.report.outcome);
      benchmark::DoNotOptimize(result.report.num_tasks);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  int64_t iters = 1;
  for (;;) {
    auto elapsed = run_batch(iters, /*analyzer=*/false);
    if (!elapsed.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   elapsed.status().ToString().c_str());
      return 1;
    }
    if (*elapsed >= kOverheadBatchSeconds || iters >= (int64_t{1} << 20)) {
      break;
    }
    iters *= 2;
  }

  // Calibration only exercised the analyzer-off path; warm the analyzer-on
  // path too (ring pages, fetch-event branches) so rep 0 is not biased.
  if (auto warm = run_batch(iters, /*analyzer=*/true); !warm.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }

  double best_off = 0;
  double best_on = 0;
  if (!BestOffOn(run_batch, iters, &best_off, &best_on).ok()) return 1;

  // Sanity-check the analysis the timeline feeds: the last run in the ring
  // must yield a critical path that tiles its wall time.
  const obs::CausalGraph graph = obs::BuildCausalGraph(flight.Snapshot());
  const obs::CriticalPathAnalysis analysis = obs::AnalyzeCriticalPath(graph);
  if (analysis.path_us <= 0 || analysis.path_us != analysis.wall_us) {
    std::fprintf(stderr,
                 "analyzer self-check failed: path %lld us vs wall %lld us\n",
                 static_cast<long long>(analysis.path_us),
                 static_cast<long long>(analysis.wall_us));
    return 1;
  }

  // Real-executor wall times wobble a few percent with thread scheduling;
  // a measured ratio below 1.0 is that noise (emitting events cannot make
  // the run faster), so the recorded ratio is floored at 1.0 — the
  // baseline's one-sided question is only "did emission get expensive".
  const double raw_ratio = best_on / best_off;
  const double ratio = std::max(1.0, raw_ratio);
  std::printf("analyzer overhead: %lld iters x %d reps, best off %.3fs, "
              "best on %.3fs (ratio %.4f raw %.4f, path %lld us over "
              "%zu tasks)\n",
              static_cast<long long>(iters), kOverheadReps, best_off, best_on,
              ratio, raw_ratio, static_cast<long long>(analysis.path_us),
              analysis.tasks.size());
  obs->AddResult("analyzer_overhead_ratio", ratio);
  return 0;
}

// Prefetch-pipeline overlap: how much of the fleet's fetch-wait time does
// the async pipeline hide? Each measurement runs the analyzer workload
// (384x384, block 64, RMM on 3x2 slots, serialized transfers) with a fresh
// flight ring and reads the critical-path analyzer's fleet-wide
// aggregate_us["fetch_wait"] — at depth 0 that is every attempt's full
// synchronous fetch; pipelined (depth 4 by default, --prefetch-depth=<k>
// overrides) it is only the residual stall where a compute worker found
// the shared staging queue empty. The recorded key is the ratio
// depth-4 / depth-0 fetch-wait, floored at 0.35: the baseline gate (1.00
// relative tolerance on a 0.35 base) fails exactly when the ratio exceeds
// 0.70, i.e. when the pipeline stops hiding at least 30% of fetch waits.
// Outputs of the two modes are also checked bit-identical here, so the
// perf gate can never pass on a run that changed result bits.
int RunPipelineOverlapOnly(bench::BenchObs* obs, int prefetch_depth) {
  const ClusterConfig cluster = ClusterConfig::Local(3, 2);
  GeneratorOptions ga;
  ga.rows = ga.cols = 384;
  ga.block_size = 64;
  ga.sparsity = 1.0;
  ga.seed = 13;
  GeneratorOptions gb = ga;
  gb.seed = 14;
  engine::DistributedMatrix a =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(ga), 3);
  engine::DistributedMatrix b =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(gb), 3);
  mm::RmmMethod method;
  engine::RealExecutor executor(cluster);

  struct Measured {
    int64_t fetch_wait_us = 0;
    DenseMatrix dense;
  };
  auto run_once = [&](int depth) -> Result<Measured> {
    obs::FlightRecorder flight(4096);
    engine::RealOptions options;
    options.mode = engine::ComputeMode::kCpu;
    options.prefetch_depth = depth;
    obs->Wire(&options);
    options.flight = &flight;  // Wire installs the shared ring; this bench
                               // needs a fresh per-run ring to analyze
    DISTME_ASSIGN_OR_RETURN(engine::RealRunResult result,
                            executor.Run(a, b, method, options));
    DISTME_RETURN_NOT_OK(result.report.outcome);
    const obs::CausalGraph graph = obs::BuildCausalGraph(flight.Snapshot());
    const obs::CriticalPathAnalysis analysis =
        obs::AnalyzeCriticalPath(graph);
    if (analysis.path_us <= 0 || analysis.path_us != analysis.wall_us) {
      return Status::Internal("critical-path self-check failed");
    }
    Measured m;
    const auto it = analysis.aggregate_us.find("fetch_wait");
    m.fetch_wait_us = it == analysis.aggregate_us.end() ? 0 : it->second;
    m.dense = result.output->Collect().ToDense();
    return m;
  };

  // Warm both paths, then alternate reps and keep each side's best (the
  // fetch-wait floor): scheduling noise only ever adds stall time.
  constexpr int kReps = 5;
  int64_t best0 = 0;
  int64_t best4 = 0;
  for (int rep = -1; rep < kReps; ++rep) {
    auto m0 = run_once(/*depth=*/0);
    auto m4 = run_once(prefetch_depth);
    if (!m0.ok() || !m4.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   (!m0.ok() ? m0.status() : m4.status()).ToString().c_str());
      return 1;
    }
    if (m0->dense.rows() != m4->dense.rows() ||
        m0->dense.cols() != m4->dense.cols() ||
        DenseMatrix::MaxAbsDiff(m0->dense, m4->dense) != 0.0) {
      std::fprintf(stderr,
                   "pipeline self-check failed: depth-4 output differs from "
                   "depth-0\n");
      return 1;
    }
    if (rep < 0) continue;  // warm-up
    if (rep == 0 || m0->fetch_wait_us < best0) best0 = m0->fetch_wait_us;
    if (rep == 0 || m4->fetch_wait_us < best4) best4 = m4->fetch_wait_us;
  }
  if (best0 <= 0) {
    std::fprintf(stderr,
                 "pipeline self-check failed: depth-0 run recorded no "
                 "fetch-wait time\n");
    return 1;
  }

  const double raw_ratio =
      static_cast<double>(best4) / static_cast<double>(best0);
  const double ratio = std::max(0.35, raw_ratio);
  std::printf("pipeline overlap: %d reps, best fetch-wait depth0 %lld us, "
              "depth%d %lld us (ratio %.4f raw %.4f)\n",
              kReps, static_cast<long long>(best0), prefetch_depth,
              static_cast<long long>(best4), ratio, raw_ratio);
  obs->AddResult("pipeline_fetch_wait_ratio", ratio);
  return 0;
}

// GPU-observability overhead, min-of-N in ABBA order like the analyzer
// measurement. The workload is Algorithm 1 itself
// (RunCuboidOnGpu on a software device); the "on" side attaches a flight
// ring to the device so every H2D chunk, B-block copy, kernel launch, and
// D2H writeback emits a schema-3 begin/end interval pair — two relaxed ring
// slots per device op, the full instrumentation cost of the GPU timeline.
// Block size 32 is the smallest paper-representative tile: the per-op
// kernel body must carry real work or the ratio measures ring writes
// against an empty enqueue loop instead of against a run (at bs=8 the
// 1 KiB-block torture config reads ~1.06 from that effect alone). The
// bench baseline gates the recorded ratio at <= 1.05 (ISSUE: device
// interval emission must stay under 5% of a representative run).
int RunGpuObsOverheadOnly(bench::BenchObs* obs) {
  const int64_t bs = 32;
  GeneratorOptions ga;
  ga.rows = 128;
  ga.cols = 192;
  ga.block_size = bs;
  ga.sparsity = 1.0;
  ga.seed = 21;
  GeneratorOptions gb;
  gb.rows = 192;
  gb.cols = 128;
  gb.block_size = bs;
  gb.sparsity = 1.0;
  gb.seed = 22;
  const BlockGrid a = GenerateUniform(ga);
  const BlockGrid b = GenerateUniform(gb);
  gpumm::GridBlockSource source(&a, &b);
  gpu::Device device(GpuSpec{}, HardwareModel{});
  obs::FlightRecorder flight(4096);
  const auto box = mm::VoxelSet::Box(0, 4, 0, 4, 0, 6);

  auto run_batch = [&](int64_t iters, bool attached) -> Result<double> {
    device.AttachFlight(attached ? &flight : nullptr, 0, 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      DISTME_ASSIGN_OR_RETURN(
          gpumm::GpuCuboidResult result,
          gpumm::RunCuboidOnGpu(box, a.shape(), b.shape(), &source, &device,
                                4 * kMiB));
      benchmark::DoNotOptimize(result.stats.kernel_calls);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  int64_t iters = 1;
  for (;;) {
    auto elapsed = run_batch(iters, /*attached=*/false);
    if (!elapsed.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   elapsed.status().ToString().c_str());
      return 1;
    }
    if (*elapsed >= kOverheadBatchSeconds || iters >= (int64_t{1} << 20)) {
      break;
    }
    iters *= 2;
  }
  if (auto warm = run_batch(iters, /*attached=*/true); !warm.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }

  double best_off = 0;
  double best_on = 0;
  if (!BestOffOn(run_batch, iters, &best_off, &best_on).ok()) return 1;

  // Sanity-check what the instrumentation produced: the snapshot must yield
  // a non-empty per-device timeline whose four window buckets tile the
  // device-active window exactly (the overlap invariant the analysis
  // guarantees by construction).
  const obs::GpuTimelineAnalysis analysis =
      obs::AnalyzeGpuTimeline(flight.Snapshot(), HardwareModel{}.pcie_bandwidth);
  if (analysis.empty()) {
    std::fprintf(stderr, "gpu-obs self-check failed: no device intervals\n");
    return 1;
  }
  for (const obs::GpuDeviceTimeline& dev : analysis.devices) {
    const obs::OverlapReport& r = dev.report;
    if (r.kernel_bound_us + r.h2d_bound_us + r.d2h_bound_us + r.bubble_us !=
        r.window_us()) {
      std::fprintf(stderr, "gpu-obs self-check failed: buckets do not tile "
                           "the window\n");
      return 1;
    }
  }

  // Floored at 1.0 like the analyzer ratio: emission cannot speed up the
  // run, so a sub-1.0 measurement is scheduler noise.
  const double raw_ratio = best_on / best_off;
  const double ratio = std::max(1.0, raw_ratio);
  std::printf("gpu-obs overhead: %lld iters x %d reps, best off %.3fs, "
              "best on %.3fs (ratio %.4f raw %.4f, %zu devices)\n",
              static_cast<long long>(iters), kOverheadReps, best_off, best_on,
              ratio, raw_ratio, analysis.devices.size());
  obs->AddResult("gpu_obs_overhead_ratio", ratio);
  return 0;
}

// Runs one real GPU-streaming multiplication with the flight ring wired and
// dumps it to `path` — a deterministic dump carrying device interval
// events bracketed by run_start/run_finish, for CI to smoke
// distme_analyze --gpu / --timeline against.
int RunGpuFlightDump(const std::string& path) {
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  GeneratorOptions ga;
  ga.rows = ga.cols = 256;
  ga.block_size = 64;
  ga.sparsity = 1.0;
  ga.seed = 31;
  GeneratorOptions gb = ga;
  gb.seed = 32;
  engine::DistributedMatrix a =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(ga), 2);
  engine::DistributedMatrix b =
      engine::DistributedMatrix::FromGridHashed(GenerateUniform(gb), 2);
  // CuboidMM rather than RMM: cuboid tasks stream through RunCuboidOnGpu,
  // so the dump carries tagged per-cuboid intervals and occupancy marks.
  mm::CuboidMethod method(mm::CuboidSpec{2, 2, 2});
  engine::RealExecutor executor(cluster);
  engine::RealOptions options;
  options.mode = engine::ComputeMode::kGpuStreaming;
  obs::FlightRecorder flight(8192);
  options.flight = &flight;
  auto result = executor.Run(a, b, method, options);
  if (!result.ok()) {
    std::fprintf(stderr, "gpu run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!result->report.outcome.ok()) {
    std::fprintf(stderr, "gpu run failed: %s\n",
                 result->report.outcome.ToString().c_str());
    return 1;
  }
  const obs::GpuTimelineAnalysis analysis = obs::AnalyzeGpuTimeline(
      flight.Snapshot(), cluster.hw.pcie_bandwidth);
  if (analysis.empty()) {
    std::fprintf(stderr, "gpu dump has no device interval events\n");
    return 1;
  }
  const Status dumped = flight.DumpToFile(path);
  if (!dumped.ok()) {
    std::fprintf(stderr, "flight dump failed: %s\n",
                 dumped.ToString().c_str());
    return 1;
  }
  std::printf("gpu flight timeline (%lld tasks, %zu devices) dumped to %s\n",
              static_cast<long long>(result->report.num_tasks),
              analysis.devices.size(), path.c_str());
  return 0;
}

// Runs the simulated CuboidMM workload once with the per-task causal
// timeline enabled and dumps the flight ring to `path` — a deterministic
// dump for distme_analyze (CI smokes the analyzer against it).
int RunSimFlightDump(const std::string& path) {
  mm::MMProblem p = mm::MMProblem::DenseSquareBlocks(70000, 70000, 70000, 1000);
  p.a.sparsity = p.b.sparsity = 0.5;
  const ClusterConfig cluster = ClusterConfig::Paper();
  engine::SimExecutor executor(cluster);
  auto opt = mm::OptimizeCuboid(p, cluster);
  if (!opt.ok()) {
    std::fprintf(stderr, "optimizer failed: %s\n",
                 opt.status().ToString().c_str());
    return 1;
  }
  mm::CuboidMethod method(opt->spec);
  obs::FlightRecorder flight(4096);
  engine::SimOptions options;
  options.mode = engine::ComputeMode::kGpuStreaming;
  options.flight = &flight;
  options.flight_task_events = true;
  auto report = executor.Run(p, method, options);
  if (!report.ok()) {
    std::fprintf(stderr, "sim run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const Status dumped = flight.DumpToFile(path);
  if (!dumped.ok()) {
    std::fprintf(stderr, "flight dump failed: %s\n",
                 dumped.ToString().c_str());
    return 1;
  }
  std::printf("sim flight timeline (%lld tasks, %.3fs simulated) dumped "
              "to %s\n",
              static_cast<long long>(report->num_tasks),
              report->elapsed_seconds, path.c_str());
  return 0;
}

}  // namespace
}  // namespace distme

// BENCHMARK_MAIN with the shared --trace-out= flag stripped out before
// benchmark::Initialize (which rejects flags it does not recognize). The
// micro benches record nothing into the bench's flight ring; the flag still
// produces a valid (span-free) trace file so every bench binary accepts it.
//
// --analyzer-overhead-only / --gpu-obs-overhead-only /
// --pipeline-overlap-only bypass google-benchmark entirely and run the
// deterministic on/off comparisons (recorded via --bench-json=). The flags
// compose: one invocation records all ratios into the same bench-json
// results map. --prefetch-depth=<k> sets the pipelined depth the overlap
// comparison uses (default 4). --sim-flight-dump=<path> and
// --gpu-flight-dump=<path> (also google-benchmark-free) write
// deterministic flight dumps — the simulated
// causal timeline and a real GPU-streaming run with device interval
// events — for distme_analyze.
int main(int argc, char** argv) {
  distme::bench::BenchObs obs(argc, argv);
  std::vector<char*> args = distme::bench::BenchObs::StripFlags(argc, argv);
  bool analyzer_overhead_only = false;
  bool gpu_obs_overhead_only = false;
  bool pipeline_overlap_only = false;
  int prefetch_depth = 4;
  std::string sim_flight_dump;
  std::string gpu_flight_dump;
  constexpr std::string_view kDumpFlag = "--sim-flight-dump=";
  constexpr std::string_view kGpuDumpFlag = "--gpu-flight-dump=";
  constexpr std::string_view kDepthFlag = "--prefetch-depth=";
  for (auto it = args.begin(); it != args.end();) {
    if (*it != nullptr &&
        std::string_view(*it) == "--analyzer-overhead-only") {
      analyzer_overhead_only = true;
      it = args.erase(it);
    } else if (*it != nullptr &&
               std::string_view(*it) == "--gpu-obs-overhead-only") {
      gpu_obs_overhead_only = true;
      it = args.erase(it);
    } else if (*it != nullptr &&
               std::string_view(*it) == "--pipeline-overlap-only") {
      pipeline_overlap_only = true;
      it = args.erase(it);
    } else if (*it != nullptr &&
               std::string_view(*it).starts_with(kDepthFlag)) {
      prefetch_depth = std::atoi(*it + kDepthFlag.size());
      it = args.erase(it);
    } else if (*it != nullptr &&
               std::string_view(*it).starts_with(kDumpFlag)) {
      sim_flight_dump = std::string_view(*it).substr(kDumpFlag.size());
      it = args.erase(it);
    } else if (*it != nullptr &&
               std::string_view(*it).starts_with(kGpuDumpFlag)) {
      gpu_flight_dump = std::string_view(*it).substr(kGpuDumpFlag.size());
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (analyzer_overhead_only || gpu_obs_overhead_only ||
      pipeline_overlap_only || !sim_flight_dump.empty() ||
      !gpu_flight_dump.empty()) {
    int rc = 0;
    if (analyzer_overhead_only) rc |= distme::RunAnalyzerOverheadOnly(&obs);
    if (gpu_obs_overhead_only) rc |= distme::RunGpuObsOverheadOnly(&obs);
    if (pipeline_overlap_only) {
      rc |= distme::RunPipelineOverlapOnly(&obs, prefetch_depth);
    }
    if (!sim_flight_dump.empty()) {
      rc |= distme::RunSimFlightDump(sim_flight_dump);
    }
    if (!gpu_flight_dump.empty()) {
      rc |= distme::RunGpuFlightDump(gpu_flight_dump);
    }
    return rc;
  }
  int rest = static_cast<int>(args.size());
  benchmark::Initialize(&rest, args.data());
  if (benchmark::ReportUnrecognizedArguments(rest, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
