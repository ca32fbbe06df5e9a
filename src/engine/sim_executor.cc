#include "engine/sim_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "gpumm/subcuboid.h"
#include "sim/timeline.h"

namespace distme::engine {

double EstimateProductDensity(double sa, double sb, double inner) {
  const double p = sa * sb;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  // 1 - (1-p)^inner, computed stably.
  const double log1m = std::log1p(-p) * inner;
  if (log1m < -40.0) return 1.0;
  return -std::expm1(log1m);
}

namespace {

// Bytes to store `count` elements at `density` (dense vs CSR cutoff at the
// conventional 0.4 threshold).
double StorageBytes(double elements, double density) {
  if (density >= 0.4) return elements * kElementBytes;
  return elements * density * (kElementBytes + 8.0);
}

struct TaskQuantities {
  double a_in_bytes = 0;     // shipped A inputs
  double b_in_bytes = 0;     // shipped B inputs
  double c_out_bytes = 0;    // emitted (partial) C bytes
  double c_resident_bytes = 0;  // C working set held in task memory
  double flops = 0;
  int64_t voxels = 0;
  int64_t kernels = 0;  // kernel launches in block-level GPU mode
  bool is_box = false;
  bool streamed_inputs = false;  // inputs iterate; only one voxel resident
  int64_t i_cnt = 0, j_cnt = 0, k_cnt = 0;
};

// Emits the run as a synthetic flight timeline on the SIMULATED clock
// (RecordAt, µs since simulated run start): run bounds, the three stage
// barriers, and — when the ring can hold them — per-task start/finish
// events placed by replaying the wave schedule (greedy earliest-free-slot,
// the same policy as sim::WaveScheduler). This makes a sim dump feed the
// same causal-analysis path as a real run, with the critical path tiling
// the simulated wall time exactly.
void EmitSimFlightTimeline(obs::FlightRecorder* flight, int64_t num_tasks,
                           const MMReport& report,
                           const std::vector<double>& task_durations,
                           int total_slots, int num_nodes) {
  const auto to_us = [](double s) {
    return static_cast<int64_t>(std::llround(s * 1e6));
  };
  const double overhead_s = report.elapsed_seconds - report.steps.total();
  const double rep_begin_s = overhead_s;
  const double rep_end_s = rep_begin_s + report.steps.repartition_seconds;
  const double mult_end_s = rep_end_s + report.steps.multiply_seconds;
  const double agg_end_s = mult_end_s + report.steps.aggregation_seconds;
  const int64_t mult_begin_us = to_us(rep_end_s);
  const int64_t mult_end_us = to_us(mult_end_s);
  const int64_t run_end_us =
      std::max(to_us(agg_end_s), to_us(report.elapsed_seconds));

  using Type = obs::FlightEventType;
  flight->RecordAt(0, Type::kRunStart, /*node=*/-1, /*slot=*/-1, num_tasks,
                   /*b=*/0, "sim");
  flight->RecordAt(to_us(rep_begin_s), Type::kStageBegin, -1, -1, 0, 0,
                   "repartition");
  flight->RecordAt(mult_begin_us, Type::kStageEnd, -1, -1, 0, 0,
                   "repartition");
  flight->RecordAt(mult_begin_us, Type::kStageBegin, -1, -1, 0, 0,
                   "multiply");
  if (2 * task_durations.size() + 10 <= flight->capacity() &&
      total_slots > 0) {
    // Greedy replay: each task takes the earliest-free slot (ties to the
    // lowest slot index). Event timestamps are clamped into the multiply
    // stage so per-task µs rounding can never leak past the barrier.
    using SlotFree = std::pair<double, int>;  // (free time s, slot index)
    std::priority_queue<SlotFree, std::vector<SlotFree>,
                        std::greater<SlotFree>>
        slots;
    for (int s = 0; s < total_slots; ++s) slots.push({0.0, s});
    for (size_t i = 0; i < task_durations.size(); ++i) {
      const auto [free_s, slot] = slots.top();
      slots.pop();
      const double start_s = rep_end_s + free_s;
      const double finish_s = start_s + task_durations[i];
      const int64_t start_us =
          std::clamp(to_us(start_s), mult_begin_us, mult_end_us);
      const int64_t finish_us =
          std::clamp(to_us(finish_s), start_us, mult_end_us);
      const int node = num_nodes > 0 ? slot % num_nodes : -1;
      flight->RecordAt(start_us, Type::kTaskStart, node, slot,
                       static_cast<int64_t>(i), /*b=*/0, "sim");
      flight->RecordAt(finish_us, Type::kTaskFinish, node, slot,
                       static_cast<int64_t>(i), finish_us - start_us, "sim");
      slots.push({free_s + task_durations[i], slot});
    }
  }
  flight->RecordAt(mult_end_us, Type::kStageEnd, -1, -1, 0, 0, "multiply");
  if (report.steps.aggregation_seconds > 0) {
    flight->RecordAt(mult_end_us, Type::kStageBegin, -1, -1, 0, 0,
                     "aggregation");
    flight->RecordAt(to_us(agg_end_s), Type::kStageEnd, -1, -1, 0, 0,
                     "aggregation");
  }
  flight->RecordAt(run_end_us, Type::kRunFinish, -1, -1, num_tasks,
                   report.outcome.ok() ? 0 : 1, "sim");
}

}  // namespace

Result<MMReport> SimExecutor::Run(const mm::MMProblem& problem,
                                  const mm::Method& method,
                                  const SimOptions& options) const {
  DISTME_RETURN_NOT_OK(problem.Validate());
  DISTME_ASSIGN_OR_RETURN(const int64_t num_tasks,
                          method.NumTasks(problem, config_));

  const HardwareModel& hw = config_.hw;
  const double bs = static_cast<double>(problem.a.shape.block_size);
  const double sa = problem.a.sparsity;
  const double sb = problem.b.sparsity;
  const bool sparse_kernel = !problem.a.stored_dense || !problem.b.stored_dense;

  // Effective compute mode: RMM (and any non-box plan) degrades cuboid-level
  // streaming to block-level GPU computation (Section 6.2).
  ComputeMode mode = options.mode;
  if (mode == ComputeMode::kGpuStreaming && !method.SupportsGpuStreaming()) {
    mode = ComputeMode::kGpuBlock;
  }
  if (!config_.has_gpu && mode != ComputeMode::kCpu) {
    return Status::Invalid("cluster has no GPU but a GPU mode was requested");
  }

  MMReport report;
  report.outcome = Status::OK();
  report.method_name = method.name();
  report.mode = mode;
  report.num_tasks = num_tasks;

  // With flight_task_events the whole run is emitted at the end on the
  // simulated clock (EmitSimFlightTimeline); mixing a real-time run_start
  // with simulated-time task events would corrupt the causal graph.
  const bool sim_timeline =
      options.flight != nullptr && options.flight_task_events;
  if (options.flight != nullptr && !sim_timeline) {
    options.flight->Record(obs::FlightEventType::kRunStart, /*node=*/-1,
                           /*slot=*/-1, num_tasks, /*b=*/0, "sim");
  }

  // Density of one voxel's product block and of a task-local aggregation.
  const double a_block_bytes = problem.a.BytesPerBlock();
  const double b_block_bytes = problem.b.BytesPerBlock();
  const double voxel_flops = 2.0 * bs * bs * bs * sa * sb;
  const double voxel_c_density = EstimateProductDensity(sa, sb, bs);
  const double voxel_c_bytes = StorageBytes(bs * bs, voxel_c_density);

  // Concurrency: how many tasks actually share one node (and its GPU).
  const int64_t concurrent_total =
      std::min<int64_t>(num_tasks, config_.total_slots());
  const double tasks_per_node = std::max<double>(
      1.0, static_cast<double>(concurrent_total) / config_.num_nodes);

  // GPU sharing factor: MPS divides each device among the concurrent tasks
  // assigned to it; multiple devices per node split the task population.
  const double devices =
      std::max(1, config_.gpu.devices_per_node);
  const double gpu_share = std::max(1.0, tasks_per_node / devices);

  // Wave-based local-multiplication scheduling. Durations are collected so
  // they can optionally be dispatched longest-first (LPT).
  std::vector<double> task_durations;

  obs::CommMatrixSnapshot comm_base;
  if (options.comm != nullptr) comm_base = options.comm->Snapshot();

  double repartition_bytes = method.ExtraRepartitionBytes(problem);
  // Layout-conversion repartition (ExtraRepartitionBytes) is an all-to-all
  // re-shuffle: spread it evenly over every (src, dst) pair.
  if (options.comm != nullptr && repartition_bytes > 0) {
    const int n = config_.num_nodes;
    const int64_t per_pair = std::llround(
        repartition_bytes / (static_cast<double>(n) * static_cast<double>(n)));
    for (int src = 0; src < n; ++src) {
      for (int dst = 0; dst < n; ++dst) {
        options.comm->Record(obs::CommStage::kRepartition, src, dst, per_pair);
      }
    }
  }
  double aggregation_bytes = 0;
  double broadcast_bytes_per_node = 0;  // node-shared broadcast residency
  double peak_task_memory = 0;
  double peak_nonbroadcast_memory = 0;
  double total_flops = 0;
  double pcie_bytes = 0;
  double gpu_kernel_seconds = 0;  // kernel-resident time across tasks
  double gpu_window_seconds = 0;  // total device wall time across tasks

  // Memoized subcuboid optimization per distinct cuboid shape.
  std::map<std::tuple<int64_t, int64_t, int64_t>,
           Result<gpumm::OptimizedSubcuboid>>
      subcuboid_cache;

  Status failure = Status::OK();

  auto process_task = [&](const mm::LocalTask& task) -> Status {
    TaskQuantities q;
    q.is_box = task.voxels.is_box();
    if (q.is_box) {
      q.i_cnt = task.voxels.i_count();
      q.j_cnt = task.voxels.j_count();
      q.k_cnt = task.voxels.k_count();
      q.voxels = task.voxels.size();
      q.a_in_bytes = static_cast<double>(q.i_cnt) * q.k_cnt * a_block_bytes;
      q.b_in_bytes = static_cast<double>(q.k_cnt) * q.j_cnt * b_block_bytes;
      const double task_c_density =
          EstimateProductDensity(sa, sb, static_cast<double>(q.k_cnt) * bs);
      q.c_out_bytes = static_cast<double>(q.i_cnt) * q.j_cnt *
                      StorageBytes(bs * bs, task_c_density);
      // Spill-aware working set: a task accumulating over k > 1 holds its
      // C cuboid face; single-k tasks stream each product block straight to
      // the shuffle (one block resident).
      q.c_resident_bytes =
          (task.aggregate_local && q.k_cnt > 1) || options.materialize_map_outputs
              ? q.c_out_bytes
              : StorageBytes(bs * bs, voxel_c_density);
      q.kernels = q.voxels;
    } else {
      q.voxels = task.voxels.size();
      // Hash-partitioned voxels: inputs shipped per voxel, one intermediate
      // block emitted per voxel.
      q.a_in_bytes = static_cast<double>(q.voxels) * a_block_bytes;
      q.b_in_bytes = static_cast<double>(q.voxels) * b_block_bytes;
      q.c_out_bytes = static_cast<double>(q.voxels) * voxel_c_bytes;
      q.c_resident_bytes = options.materialize_map_outputs
                               ? q.c_out_bytes
                               : voxel_c_bytes;
      q.kernels = q.voxels;
      // Voxel-keyed tasks stream: Spark's cogroup iterator feeds one
      // (A block, B block) pair at a time and each product spills straight
      // to the shuffle — this is why RMM never runs out of memory
      // (Section 2.2.3).
      q.streamed_inputs = !options.materialize_map_outputs;
    }
    q.flops = static_cast<double>(q.voxels) * voxel_flops;
    total_flops += q.flops;

    // ---- Communication accounting (matrix repartition step). ----
    // Broadcast sides still cross the network per task (Table 2's T·|B|),
    // but reside once per node.
    repartition_bytes +=
        (q.a_in_bytes + q.b_in_bytes) * options.repartition_factor;
    if (task.b_broadcast) broadcast_bytes_per_node = q.b_in_bytes;
    if (task.a_broadcast) broadcast_bytes_per_node = q.a_in_bytes;
    if (options.comm != nullptr) {
      // Inputs converge on the task's node from uniform-hash block homes;
      // aggregation output fans out toward the hash-partitioned reducers.
      const int n = config_.num_nodes;
      const int task_node = static_cast<int>(task.id % n);
      const int64_t in_per_src = std::llround(
          (q.a_in_bytes + q.b_in_bytes) * options.repartition_factor /
          static_cast<double>(n));
      for (int src = 0; src < n; ++src) {
        options.comm->Record(obs::CommStage::kRepartition, src, task_node,
                             in_per_src);
      }
      if (method.NeedsAggregation(problem)) {
        const int64_t out_per_dst =
            std::llround(q.c_out_bytes / static_cast<double>(n));
        for (int dst = 0; dst < n; ++dst) {
          options.comm->Record(obs::CommStage::kAggregation, task_node, dst,
                               out_per_dst);
        }
      }
    }

    // ---- Memory accounting. ----
    double task_memory;
    double nonbroadcast_memory;
    if (method.ResidentLocalMatrices()) {
      // MPI-style processes own contiguous local arrays of A, B and C,
      // block-cyclic over every launched process (not just the ones the
      // block grid gives work to).
      task_memory = (problem.a.StoredBytes() + problem.b.StoredBytes() +
                     problem.C().StoredBytes()) /
                    static_cast<double>(config_.total_slots()) *
                    options.resident_memory_factor;
      nonbroadcast_memory = task_memory;
    } else if (q.streamed_inputs) {
      // One voxel's working set at a time.
      task_memory = a_block_bytes + b_block_bytes + q.c_resident_bytes;
      nonbroadcast_memory = task_memory;
    } else {
      task_memory = q.a_in_bytes + q.b_in_bytes + q.c_resident_bytes;
      nonbroadcast_memory = task_memory;
      if (task.a_broadcast) nonbroadcast_memory -= q.a_in_bytes;
      if (task.b_broadcast) nonbroadcast_memory -= q.b_in_bytes;
    }
    peak_task_memory = std::max(peak_task_memory, task_memory);
    peak_nonbroadcast_memory =
        std::max(peak_nonbroadcast_memory, nonbroadcast_memory);

    const double theta_t =
        static_cast<double>(config_.task_memory_bytes) * options.memory_slack;
    if (failure.ok()) {
      if (method.ResidentLocalMatrices()) {
        if (task_memory > static_cast<double>(config_.task_memory_bytes)) {
          failure = Status::OutOfMemory(
              method.name() + ": resident local arrays exceed task memory");
        }
      } else {
        // Broadcast data is shared at node granularity; everything else is
        // per task.
        if (nonbroadcast_memory > theta_t) {
          failure = Status::OutOfMemory(method.name() +
                                        ": task working set exceeds θt");
        } else if (broadcast_bytes_per_node +
                       tasks_per_node * nonbroadcast_memory >
                   0.9 * static_cast<double>(config_.node_memory_bytes)) {
          failure = Status::OutOfMemory(
              method.name() + ": broadcast + concurrent tasks exceed node memory");
        }
      }
    }

    // ---- Aggregation output. ----
    if (method.NeedsAggregation(problem)) {
      aggregation_bytes += q.c_out_bytes;
    }

    // ---- Compute time. ----
    double duration = hw.task_launch_overhead;
    switch (mode) {
      case ComputeMode::kCpu: {
        const double rate =
            sparse_kernel ? hw.cpu_sparse_flops : hw.cpu_gemm_flops;
        // Each voxel streams its operand blocks through the core's memory
        // hierarchy; very sparse kernels are bandwidth-bound.
        const double touched_bytes =
            static_cast<double>(q.voxels) * (a_block_bytes + b_block_bytes);
        duration += std::max(q.flops / rate,
                             touched_bytes / hw.cpu_memory_bandwidth) *
                    options.compute_overhead;
        break;
      }
      case ComputeMode::kGpuStreaming: {
        gpumm::SubcuboidProblem sp;
        sp.i_blocks = q.i_cnt;
        sp.j_blocks = q.j_cnt;
        sp.k_blocks = q.k_cnt;
        sp.a_bytes = q.a_in_bytes;
        sp.b_bytes = q.b_in_bytes;
        sp.c_bytes = static_cast<double>(q.i_cnt) * q.j_cnt * bs * bs *
                     kElementBytes;  // worst-case dense, as the planner does
        sp.flops = q.flops;
        const auto key = std::make_tuple(q.i_cnt, q.j_cnt, q.k_cnt);
        auto it = subcuboid_cache.find(key);
        if (it == subcuboid_cache.end()) {
          it = subcuboid_cache
                   .emplace(key, gpumm::OptimizeSubcuboid(
                                     sp, config_.gpu_task_memory_bytes))
                   .first;
        }
        if (!it->second.ok()) {
          if (failure.ok()) failure = it->second.status();
          return Status::OK();
        }
        const gpumm::GpuTaskTime t = gpumm::EstimateStreamingTime(
            sp, *it->second, hw, sparse_kernel, gpu_share,
            /*pcie_sharing_factor=*/tasks_per_node);
        duration += t.elapsed_seconds * options.compute_overhead;
        pcie_bytes += it->second->pcie_bytes;
        gpu_kernel_seconds += t.kernel_seconds;
        gpu_window_seconds += t.elapsed_seconds;
        break;
      }
      case ComputeMode::kGpuBlock: {
        const gpumm::GpuTaskTime t = gpumm::EstimateBlockLevelTime(
            q.voxels, a_block_bytes, b_block_bytes, voxel_c_bytes, q.flops,
            hw, sparse_kernel, gpu_share,
            /*pcie_sharing_factor=*/tasks_per_node);
        duration += t.elapsed_seconds * options.compute_overhead;
        pcie_bytes += static_cast<double>(q.voxels) *
                          (a_block_bytes + b_block_bytes) +
                      static_cast<double>(q.voxels) * voxel_c_bytes;
        gpu_kernel_seconds += t.kernel_seconds;
        gpu_window_seconds += t.elapsed_seconds;
        break;
      }
    }
    task_durations.push_back(duration);
    return Status::OK();
  };

  DISTME_RETURN_NOT_OK(method.ForEachTask(problem, config_, process_task));

  if (options.lpt_scheduling) {
    std::sort(task_durations.begin(), task_durations.end(),
              std::greater<double>());
  }
  sim::WaveScheduler waves(static_cast<int>(config_.total_slots()));
  for (double d : task_durations) waves.Add(d);

  // ---- Assemble the three steps. ----
  report.steps.repartition_seconds =
      sim::ShuffleSeconds(repartition_bytes, config_.num_nodes,
                          hw.nic_bandwidth, hw.serialization_bandwidth,
                          hw.serialization_overhead);
  // The driver dispatches tasks serially; with huge task counts (RMM) this
  // dominates the wave makespan.
  const double dispatch_seconds =
      static_cast<double>(num_tasks) * hw.driver_dispatch_overhead;
  report.steps.multiply_seconds =
      std::max(waves.Makespan(), dispatch_seconds) +
      static_cast<double>(method.SyncSteps(problem)) * hw.task_launch_overhead;
  if (options.fetch_overlap > 0.0) {
    // Prefetch pipeline: a fetch_overlap fraction of the repartition step
    // hides behind the multiply waves — but never more than the multiply
    // step provides cover for. Bytes stay untouched.
    const double overlap = std::min(1.0, options.fetch_overlap);
    const double hidden = std::min(report.steps.repartition_seconds * overlap,
                                   report.steps.multiply_seconds);
    report.steps.repartition_seconds -= hidden;
  }

  if (method.NeedsAggregation(problem)) {
    // reduceByKey inherits the parent partition count, capped by the number
    // of distinct (i, j) keys.
    const double reduce_partitions = std::min<double>(
        static_cast<double>(num_tasks),
        static_cast<double>(problem.I()) * static_cast<double>(problem.J()));
    const double reduce_parallelism = std::min<double>(
        static_cast<double>(config_.total_slots()), reduce_partitions);
    const double reduce_flops = aggregation_bytes / kElementBytes;
    report.steps.aggregation_seconds =
        sim::ShuffleSeconds(aggregation_bytes, config_.num_nodes,
                            hw.nic_bandwidth, hw.serialization_bandwidth,
                            hw.serialization_overhead) +
        reduce_flops /
            (reduce_parallelism * hw.cpu_gemm_flops);
    // Reduce-side memory: each reducer owns |C|/partitions plus one incoming
    // partial block.
    const double reducer_memory =
        problem.C().StoredBytes() / reduce_partitions + voxel_c_bytes;
    if (failure.ok() &&
        reducer_memory > static_cast<double>(config_.task_memory_bytes)) {
      failure = Status::OutOfMemory(method.name() +
                                    ": reduce-side C partition exceeds θt");
    }
  }

  report.repartition_bytes = repartition_bytes;
  report.aggregation_bytes = aggregation_bytes;
  report.total_flops = total_flops;
  report.pcie_bytes = pcie_bytes;
  report.peak_task_memory_bytes = peak_task_memory;
  report.elapsed_seconds =
      hw.job_overhead * options.job_overhead_factor + report.steps.total();

  if (mode != ComputeMode::kCpu && gpu_window_seconds > 0) {
    // The nvidia-smi-style metric: fraction of the device window in which
    // kernels are resident (streaming keeps it near 1; block-level execution
    // idles the device during staging and per-block copies).
    report.gpu_utilization =
        std::min(1.0, gpu_kernel_seconds / gpu_window_seconds);
  }

  // ---- Failure outcomes, in the order the paper's runs hit them. ----
  if (!failure.ok()) {
    report.outcome = failure;
  } else if (report.total_shuffle_bytes() * hw.serialization_overhead >
             static_cast<double>(config_.total_disk_bytes)) {
    report.outcome = Status::ExceedsDiskCapacity(
        method.name() + ": shuffle data exceeds cluster disk capacity");
  } else if (report.elapsed_seconds > config_.timeout_seconds) {
    report.outcome =
        Status::Timeout(method.name() + ": exceeded the wall-clock limit");
  }

  if (options.metrics != nullptr) {
    obs::MetricsRegistry* m = options.metrics;
    m->GetCounter("distme.sim.runs")->Add(1);
    m->GetCounter("distme.sim.tasks")->Add(num_tasks);
    m->GetCounter("distme.sim.repartition_bytes")
        ->Add(static_cast<int64_t>(report.repartition_bytes));
    m->GetCounter("distme.sim.aggregation_bytes")
        ->Add(static_cast<int64_t>(report.aggregation_bytes));
    if (!report.outcome.ok()) {
      m->GetCounter("distme.sim.failed_runs",
                    {{"outcome", report.OutcomeLabel()}})
          ->Add(1);
    }
    obs::Histogram* h = m->GetHistogram("distme.sim.task_seconds");
    for (double d : task_durations) h->Observe(d);
    if (options.comm != nullptr) {
      const obs::CommMatrixSnapshot comm_delta =
          options.comm->Snapshot().Delta(comm_base);
      m->GetGauge("distme.comm.max_link_bytes")
          ->Set(comm_delta.MaxLinkBytes());
      m->GetGauge("distme.comm.skew_permille")
          ->Set(static_cast<int64_t>(comm_delta.SkewRatio() * 1000.0));
      m->GetGauge("distme.comm.active_links")->Set(comm_delta.ActiveLinks());
    }
  }
  if (sim_timeline) {
    EmitSimFlightTimeline(options.flight, num_tasks, report, task_durations,
                          static_cast<int>(config_.total_slots()),
                          config_.num_nodes);
  } else if (options.flight != nullptr) {
    options.flight->Record(obs::FlightEventType::kRunFinish, /*node=*/-1,
                           /*slot=*/-1, num_tasks,
                           report.outcome.ok() ? 0 : 1, "sim");
  }
  return report;
}

}  // namespace distme::engine
