#include "engine/real_executor.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blas/block_ops.h"
#include "cluster/memory_tracker.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/pipeline.h"
#include "gpu/device.h"
#include "gpumm/streaming.h"
#include "matrix/serialize.h"
#include "obs/metrics.h"

namespace distme::engine {

namespace {

// One buffered output block of a task attempt, held until the commit point.
// `k_origin` is the k coordinate the partial came from (a box task's k0, a
// strided task's voxel k): aggregation merges partials for an output block
// in ascending k_origin, so the floating-point reduction order — and hence
// the result bits — is independent of worker count, prefetch depth, and
// arrival order.
struct PendingEmit {
  BlockIndex idx;
  Block block;
  int64_t k_origin = 0;
};

// One attempt's fetched inputs. At depth k > 0 a fetch thread stages a
// task's first attempt and the StagedTask moves through the shared
// BoundedQueue, so exactly one thread owns it at any instant. `tracker` is
// set only when the run enforces the task memory budget. A failed fetch
// carries null `inputs` and `tracker` plus the error in `fetch_status`; the
// attempt fails and the task retries.
struct StagedTask {
  int64_t index = -1;  // into the materialized task list
  std::unique_ptr<gpumm::StagedBlockSource> inputs;
  std::unique_ptr<MemoryTracker> tracker;
  Status fetch_status = Status::OK();
  bool injected = false;     // fetch_status is an injected mid-prefetch crash
  int64_t staged_bytes = 0;  // charged against the node's PrefetchGate
};

// Deterministic per-(task, attempt) crash decision — a pure function, so
// retry counts are identical across fault points, prefetch depths, and
// worker counts (a fetch thread and the worker that later runs the attempt
// both evaluate it and agree).
bool CrashDecision(int64_t task_id, int attempt, double rate) {
  if (rate <= 0.0) return false;
  uint64_t h = static_cast<uint64_t>(task_id) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(attempt) * 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 29;
  return static_cast<double>(h >> 11) * 0x1.0p-53 < rate;
}

// Label for the distme.task.retries{reason} counter. Returns string
// literals so the flight recorder can keep the pointer without copying.
const char* RetryReason(const Status& status, bool injected) {
  if (injected) return "injected_crash";
  switch (status.code()) {
    case StatusCode::kOutOfMemory:
      return "out_of_memory";
    case StatusCode::kTimeout:
      return "timeout";
    default:
      return "error";
  }
}

// The registry counters a run adds its tally to when it ends, in the order
// RunTally::Finish lists their values.
constexpr const char* kTallyCounterNames[] = {
    "distme.shuffle.repartition_bytes", "distme.shuffle.aggregation_bytes",
    "distme.step.repartition_nanos",    "distme.step.multiply_nanos",
    "distme.step.aggregation_nanos",    "distme.pipeline.prefetch_hits",
    "distme.pipeline.prefetch_stalls",  "distme.pipeline.stall_nanos",
    "distme.pipeline.backpressure_waits",
};

// What one run counts for its own report, in instruments the run owns, so
// concurrent runs sharing a registry never read each other's traffic. The
// caller's registry receives the totals once, when the run ends.
struct RunTally {
  // Registers the registry instruments Finish() adds to when the run
  // starts, as the run's other instruments are, so the registry lists them
  // from the first run on.
  RunTally(int num_nodes, obs::MetricsRegistry* metrics)
      : comm(num_nodes),
        peak_memory_sink(metrics->GetGauge("distme.task.peak_memory_bytes")) {
    for (size_t i = 0; i < counter_sinks.size(); ++i) {
      counter_sinks[i] = metrics->GetCounter(kTallyCounterNames[i]);
    }
  }

  // Builds the report's counted fields and adds them to the registry.
  void Finish(MMReport* report, obs::MetricsRegistry* metrics) const {
    report->comm = comm.Snapshot();
    const int64_t repartition =
        report->comm.TotalBytes(obs::CommStage::kRepartition);
    const int64_t aggregation =
        report->comm.TotalBytes(obs::CommStage::kAggregation);
    report->repartition_bytes = static_cast<double>(repartition);
    report->aggregation_bytes = static_cast<double>(aggregation);
    report->steps.repartition_seconds =
        1e-9 * static_cast<double>(repartition_nanos.Value());
    report->steps.multiply_seconds =
        1e-9 * static_cast<double>(multiply_nanos.Value());
    report->steps.aggregation_seconds =
        1e-9 * static_cast<double>(aggregation_nanos.Value());
    report->task_retries = retries.Value();
    report->peak_task_memory_bytes = static_cast<double>(peak_memory.Value());
    report->pipeline.prefetch_hits = prefetch_hits.Value();
    report->pipeline.prefetch_stalls = prefetch_stalls.Value();
    report->pipeline.stall_seconds =
        1e-9 * static_cast<double>(stall_nanos.Value());
    report->pipeline.backpressure_waits = backpressure_waits.Value();

    const int64_t counted[] = {
        repartition,
        aggregation,
        repartition_nanos.Value(),
        multiply_nanos.Value(),
        aggregation_nanos.Value(),
        prefetch_hits.Value(),
        prefetch_stalls.Value(),
        stall_nanos.Value(),
        backpressure_waits.Value(),
    };
    static_assert(sizeof(counted) / sizeof(counted[0]) ==
                  std::size(kTallyCounterNames));
    for (size_t i = 0; i < counter_sinks.size(); ++i) {
      counter_sinks[i]->Add(counted[i]);
    }
    peak_memory_sink->Set(peak_memory.Value());
    SetCommGauges(report->comm, metrics);
  }

  obs::CommMatrix comm;
  obs::Counter repartition_nanos;
  obs::Counter multiply_nanos;
  obs::Counter aggregation_nanos;
  obs::Counter retries;
  obs::Counter prefetch_hits;
  obs::Counter prefetch_stalls;
  obs::Counter stall_nanos;
  obs::Counter backpressure_waits;
  obs::Gauge peak_memory;  // largest single-task footprint
  std::array<obs::Counter*, std::size(kTallyCounterNames)> counter_sinks{};
  obs::Gauge* peak_memory_sink;
};

}  // namespace

class RealExecutor::Impl {
 public:
  explicit Impl(ClusterConfig config) : config_(std::move(config)) {
    if (config_.has_gpu) {
      const int per_node = std::max(1, config_.gpu.devices_per_node);
      devices_.resize(static_cast<size_t>(config_.num_nodes));
      for (int n = 0; n < config_.num_nodes; ++n) {
        for (int d = 0; d < per_node; ++d) {
          devices_[static_cast<size_t>(n)].push_back(
              std::make_unique<gpu::Device>(config_.gpu, config_.hw));
        }
      }
    }
  }

  // Round-robin device assignment for a task on `node`.
  gpu::Device* DeviceFor(int node, int64_t task_id) {
    auto& node_devices = devices_[static_cast<size_t>(node)];
    return node_devices[static_cast<size_t>(
                            task_id % static_cast<int64_t>(
                                          node_devices.size()))]
        .get();
  }

  Result<RealRunResult> Run(const DistributedMatrix& a,
                            const DistributedMatrix& b,
                            const mm::Method& method,
                            const RealOptions& options) {
    mm::MMProblem problem{a.Descriptor(), b.Descriptor()};
    DISTME_RETURN_NOT_OK(problem.Validate());
    if (options.mode != ComputeMode::kCpu && !config_.has_gpu) {
      return Status::Invalid("GPU mode requested on a GPU-less cluster");
    }
    if (options.prefetch_depth < 0) {
      return Status::Invalid("prefetch_depth must be >= 0");
    }

    ComputeMode mode = options.mode;
    if (mode == ComputeMode::kGpuStreaming && !method.SupportsGpuStreaming()) {
      mode = ComputeMode::kGpuBlock;
    }

    // Observability: the run counts what its report reads in `tally`, and
    // adds those totals to the caller's registry (or a private one) when it
    // ends. The registry's other instruments are updated as the run goes.
    obs::MetricsRegistry run_metrics;
    obs::MetricsRegistry* metrics =
        options.metrics != nullptr ? options.metrics : &run_metrics;
    RunTally tally(config_.num_nodes, metrics);
    obs::FlightRecorder* flight = options.flight;

    obs::Counter* remote_fetches =
        metrics->GetCounter("distme.shuffle.remote_fetches");
    obs::Counter* serialize_roundtrips =
        metrics->GetCounter("distme.shuffle.serialize_roundtrips");
    obs::Counter* task_attempts = metrics->GetCounter("distme.task.attempts");
    obs::Histogram* task_seconds =
        metrics->GetHistogram("distme.task.seconds");
    obs::Gauge* used_memory =
        metrics->GetGauge("distme.memory.task_used_bytes");
    obs::Counter* oom_rejections =
        metrics->GetCounter("distme.memory.oom_rejections");
    metrics->GetGauge("distme.pipeline.prefetch_depth")
        ->Set(options.prefetch_depth);

    // Materialize the plan (the scheduler decision: task order + placement).
    std::vector<mm::LocalTask> tasks;
    DISTME_RETURN_NOT_OK(method.ForEachTask(
        problem, config_, [&tasks](const mm::LocalTask& t) {
          tasks.push_back(t);
          return Status::OK();
        }));
    if (options.lpt_scheduling) {
      std::stable_sort(tasks.begin(), tasks.end(),
                       [](const mm::LocalTask& l, const mm::LocalTask& r) {
                         return l.voxels.size() > r.voxels.size();
                       });
    }
    // Attach (or detach) the run's recorder to every device before any task
    // touches one: interval events carry the device's (node, ordinal)
    // identity.
    if (config_.has_gpu) {
      for (size_t n = 0; n < devices_.size(); ++n) {
        for (size_t d = 0; d < devices_[n].size(); ++d) {
          devices_[n][d]->AttachFlight(flight, static_cast<int32_t>(n),
                                       static_cast<int32_t>(d));
        }
      }
    }
    if (flight != nullptr) {
      flight->Record(obs::FlightEventType::kRunStart, /*node=*/-1,
                     /*slot=*/-1, static_cast<int64_t>(tasks.size()));
    }

    const bool needs_agg = method.NeedsAggregation(problem);
    auto output = std::make_shared<DistributedMatrix>(
        BlockedShape{a.shape().rows, b.shape().cols, a.shape().block_size},
        config_.num_nodes, Partitioner::Hash(config_.num_nodes));

    // Aggregation state: partial C blocks keyed by (i, j), each holding its
    // contributions keyed by k_origin. The finalize step merges every
    // block's partials in ascending k_origin, making the reduction order —
    // and the result bits — deterministic no matter which worker or
    // attempt delivered each partial first.
    constexpr size_t kShards = 64;
    std::array<std::mutex, kShards> agg_mutexes;
    std::array<
        std::unordered_map<BlockIndex, std::map<int64_t, Block>, BlockIndexHash>,
        kShards>
        agg_partials;

    std::atomic<int64_t> next_task{0};
    std::mutex failure_mutex;
    Status failure = Status::OK();

    Stopwatch total_clock;

    auto record_failure = [&](Status st) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (failure.ok()) failure = std::move(st);
    };
    auto run_failed = [&]() {
      std::lock_guard<std::mutex> lock(failure_mutex);
      return !failure.ok();
    };

    auto fetch = [&](const DistributedMatrix& m, BlockIndex idx, int node,
                     MemoryTracker* tracker) -> Result<Block> {
      bool crossed = false;
      DISTME_ASSIGN_OR_RETURN(Block blk, m.Get(idx, node, &crossed));
      if (crossed) {
        tally.comm.Record(obs::CommStage::kRepartition, m.NodeOf(idx), node,
                          SerializedBlockBytes(blk));
        remote_fetches->Add(1);
        if (options.serialize_transfers) {
          // Round-trip through the wire format, as a real shuffle would.
          serialize_roundtrips->Add(1);
          DISTME_ASSIGN_OR_RETURN(blk, DeserializeBlock(SerializeBlock(blk)));
        }
      }
      if (tracker != nullptr) {
        DISTME_RETURN_NOT_OK(tracker->Allocate(blk.SizeBytes()));
      }
      return blk;
    };

    // Fetches the inputs of one attempt of `task` into a fresh StagedTask.
    // Box tasks fetch each distinct block once (communication sharing);
    // strided tasks fetch per voxel. When `crash` and the fault point is
    // kMidPrefetch, the injected crash strikes right after the first block
    // lands. A failed fetch releases its blocks and reservations before it
    // returns — the lineage contract at the pipeline boundary.
    auto stage = [&](const mm::LocalTask& task, bool crash) {
      const int node = static_cast<int>(task.id % config_.num_nodes);
      StagedTask staged;
      staged.inputs = std::make_unique<gpumm::StagedBlockSource>();
      if (options.enforce_task_memory) {
        staged.tracker = std::make_unique<MemoryTracker>(
            "task " + std::to_string(task.id), config_.task_memory_bytes);
        staged.tracker->AttachMetrics(used_memory, &tally.peak_memory,
                                      oom_rejections);
      }
      MemoryTracker* tracker_ptr = staged.tracker.get();
      gpumm::StagedBlockSource& inputs = *staged.inputs;
      Stopwatch fetch_clock;
      auto need_a = [&](int64_t i, int64_t k) -> Status {
        if (task.inputs_shared && inputs.HasA(i, k)) return Status::OK();
        DISTME_ASSIGN_OR_RETURN(Block blk,
                                fetch(a, BlockIndex{i, k}, node, tracker_ptr));
        staged.staged_bytes += blk.SizeBytes();
        inputs.StageA(i, k, std::move(blk));
        return Status::OK();
      };
      auto need_b = [&](int64_t k, int64_t j) -> Status {
        if (task.inputs_shared && inputs.HasB(k, j)) return Status::OK();
        DISTME_ASSIGN_OR_RETURN(Block blk,
                                fetch(b, BlockIndex{k, j}, node, tracker_ptr));
        staged.staged_bytes += blk.SizeBytes();
        inputs.StageB(k, j, std::move(blk));
        return Status::OK();
      };
      task.voxels.ForEach([&](mm::Voxel v) {
        if (!staged.fetch_status.ok()) return;
        Status st = need_a(v.i, v.k);
        if (st.ok() && crash &&
            options.fault_point == FaultPoint::kMidPrefetch) {
          // The attempt dies holding its first in-flight prefetched block.
          staged.injected = true;
          st = Status::Internal("injected task crash");
        }
        if (st.ok()) st = need_b(v.k, v.j);
        if (!st.ok()) staged.fetch_status = std::move(st);
      });
      tally.repartition_nanos.Add(
          static_cast<int64_t>(fetch_clock.ElapsedSeconds() * 1e9));
      if (!staged.fetch_status.ok()) {
        staged.inputs.reset();
        staged.tracker.reset();
        staged.staged_bytes = 0;
      }
      return staged;
    };

    auto emit = [&](BlockIndex idx, Block block, int64_t k_origin,
                    int producer_node) -> Status {
      if (!needs_agg) {
        // Final block — write in place (output writes are not part of the
        // shuffle cost, matching Table 2's zero aggregation for BMM).
        if (block.nnz() == 0) return Status::OK();
        return output->Put(idx, std::move(block));
      }
      const int reducer_node = output->NodeOf(idx);
      if (reducer_node != producer_node) {
        tally.comm.Record(obs::CommStage::kAggregation, producer_node,
                          reducer_node, SerializedBlockBytes(block));
        if (options.serialize_transfers) {
          serialize_roundtrips->Add(1);
          DISTME_ASSIGN_OR_RETURN(block,
                                  DeserializeBlock(SerializeBlock(block)));
        }
      }
      const size_t shard = BlockIndexHash()(idx) % kShards;
      std::lock_guard<std::mutex> lock(agg_mutexes[shard]);
      auto& by_k = agg_partials[shard][idx];
      auto it = by_k.find(k_origin);
      if (it == by_k.end()) {
        by_k.emplace(k_origin, std::move(block));
        return Status::OK();
      }
      // Same (block, k_origin) twice — not produced by any current method,
      // but reduce defensively rather than dropping a partial.
      DISTME_ASSIGN_OR_RETURN(Block summed,
                              blas::AddBlocks(it->second, block));
      it->second = std::move(summed);
      return Status::OK();
    };

    // Compute phase of one attempt: consumes the staged inputs, buffers the
    // attempt's output partials into `outputs`. Side-effect free w.r.t. the
    // output matrix — everything before the commit is replayable.
    auto compute_task = [&](const mm::LocalTask& task, int node, int slot,
                            gpumm::StagedBlockSource& inputs,
                            MemoryTracker* tracker_ptr,
                            std::vector<PendingEmit>* outputs) -> Status {
      Stopwatch compute_clock;
      double gpu_seconds = 0;  // time this attempt spent bound on the GPU
      if (mode == ComputeMode::kGpuStreaming && task.voxels.is_box()) {
        gpu::Device* device = DeviceFor(node, task.id);
        Stopwatch gpu_clock;
        DISTME_ASSIGN_OR_RETURN(
            gpumm::GpuCuboidResult gpu_result,
            gpumm::RunCuboidOnGpu(task.voxels, a.shape(), b.shape(), &inputs,
                                  device, config_.gpu_task_memory_bytes));
        gpu_seconds += gpu_clock.ElapsedSeconds();
        for (auto& [key, dense] : gpu_result.c_blocks) {
          outputs->push_back(PendingEmit{BlockIndex{key.first, key.second},
                                         Block::Dense(std::move(dense)),
                                         task.voxels.k0()});
        }
      } else if (task.aggregate_local && task.voxels.is_box()) {
        // Accumulate over the task's k range; emit one block per (i, j).
        const auto& box = task.voxels;
        for (int64_t i = box.i0(); i < box.i1(); ++i) {
          for (int64_t j = box.j0(); j < box.j1(); ++j) {
            DenseMatrix acc(a.shape().BlockRowsAt(i),
                            b.shape().BlockColsAt(j));
            if (tracker_ptr != nullptr) {
              DISTME_RETURN_NOT_OK(tracker_ptr->Allocate(acc.SizeBytes()));
            }
            for (int64_t k = box.k0(); k < box.k1(); ++k) {
              const Block& ab = inputs.A(i, k);
              const Block& bb = inputs.B(k, j);
              if (ab.nnz() == 0 || bb.nnz() == 0) continue;
              if (mode == ComputeMode::kGpuBlock) {
                DISTME_RETURN_NOT_OK(
                    RunBlockKernel(node, task.id, ab, bb, &acc, &gpu_seconds));
              } else {
                DISTME_RETURN_NOT_OK(blas::MultiplyAccumulate(ab, bb, &acc));
              }
            }
            if (acc.CountNonZeros() > 0) {
              outputs->push_back(PendingEmit{BlockIndex{i, j},
                                             Block::Dense(std::move(acc)),
                                             box.k0()});
            }
            if (tracker_ptr != nullptr) {
              tracker_ptr->Free(0);  // acc ownership moved to the shuffle
            }
          }
        }
      } else {
        // Per-voxel products (RMM): one intermediate block per voxel.
        Status voxel_status = Status::OK();
        task.voxels.ForEach([&](mm::Voxel v) {
          if (!voxel_status.ok()) return;
          const Block& ab = inputs.A(v.i, v.k);
          const Block& bb = inputs.B(v.k, v.j);
          if (ab.nnz() == 0 || bb.nnz() == 0) return;
          DenseMatrix acc(a.shape().BlockRowsAt(v.i),
                          b.shape().BlockColsAt(v.j));
          Status st =
              mode == ComputeMode::kGpuBlock
                  ? RunBlockKernel(node, task.id, ab, bb, &acc, &gpu_seconds)
                  : blas::MultiplyAccumulate(ab, bb, &acc);
          if (st.ok() && acc.CountNonZeros() > 0) {
            outputs->push_back(PendingEmit{BlockIndex{v.i, v.j},
                                           Block::Dense(std::move(acc)),
                                           v.k});
          }
          if (!st.ok()) voxel_status = std::move(st);
        });
        DISTME_RETURN_NOT_OK(voxel_status);
      }
      tally.multiply_nanos.Add(
          static_cast<int64_t>(compute_clock.ElapsedSeconds() * 1e9));
      if (flight != nullptr && gpu_seconds > 0) {
        flight->Record(obs::FlightEventType::kGpuWait, node, slot, task.id,
                       static_cast<int64_t>(gpu_seconds * 1e6));
      }
      return Status::OK();
    };

    // The attempt loop for one task on compute slot `slot`. When
    // `prefetched` is non-null (depth > 0) attempt 0 consumes those staged
    // inputs: it began at flight time `wait_begin_us`, when the worker
    // started waiting on the staging queue, and its fetch_wait is the pop
    // stall — only the wait prefetch failed to hide, which is what the
    // critical-path analyzer should see. Every other attempt stages its
    // inputs inline and waits for the whole fetch. A successful attempt
    // commits its outputs inline; commit errors are run-fatal — a partially
    // applied commit is never replayed, so reducer blocks cannot be
    // double-counted.
    auto execute_task = [&](const mm::LocalTask& task, int slot,
                            StagedTask* prefetched, int64_t wait_begin_us,
                            double pop_stall_seconds) -> Status {
      const int node = static_cast<int>(task.id % config_.num_nodes);
      Status st = Status::OK();
      for (int attempt = 0; attempt < options.max_task_attempts; ++attempt) {
        const bool crash =
            CrashDecision(task.id, attempt, options.task_failure_rate);
        const bool pipelined = prefetched != nullptr && attempt == 0;
        task_attempts->Add(1);
        if (flight != nullptr) {
          // A prefetched attempt is stamped at the start of its pop wait, so
          // the stall edge below lands inside its [start, finish] span.
          flight->RecordAt(pipelined ? wait_begin_us : flight->NowMicros(),
                           obs::FlightEventType::kTaskStart, node, slot,
                           task.id, attempt);
        }
        Stopwatch attempt_clock;
        Stopwatch fetch_clock;
        StagedTask staged =
            pipelined ? std::move(*prefetched) : stage(task, crash);
        const double fetch_wait_seconds =
            pipelined ? pop_stall_seconds : fetch_clock.ElapsedSeconds();
        if (flight != nullptr) {
          flight->Record(obs::FlightEventType::kFetchWait, node, slot,
                         task.id,
                         static_cast<int64_t>(fetch_wait_seconds * 1e6));
        }
        st = staged.fetch_status;
        bool injected = staged.injected;
        if (st.ok() && crash &&
            options.fault_point == FaultPoint::kBeforeCompute) {
          // The fetched inputs (and their reservations) die with the attempt.
          injected = true;
          st = Status::Internal("injected task crash");
        }
        std::vector<PendingEmit> outputs;
        if (st.ok()) {
          st = compute_task(task, node, slot, *staged.inputs,
                            staged.tracker.get(), &outputs);
        }
        if (st.ok() && crash &&
            options.fault_point == FaultPoint::kBeforeCommit) {
          // Injected fault: the attempt dies holding its uncommitted outputs.
          injected = true;
          outputs.clear();
          st = Status::Internal("injected task crash");
        }
        // The attempt is done with its inputs either way; a crashed attempt
        // releases its staged blocks and memory reservations here.
        staged = StagedTask();
        bool commit_failed = false;
        for (size_t i = 0; st.ok() && i < outputs.size(); ++i) {
          PendingEmit& pe = outputs[i];
          st = emit(pe.idx, std::move(pe.block), pe.k_origin, node);
          commit_failed = !st.ok();
        }
        const double attempt_seconds =
            (pipelined ? pop_stall_seconds : 0.0) +
            attempt_clock.ElapsedSeconds();
        task_seconds->Observe(attempt_seconds);
        if (flight != nullptr) {
          flight->Record(obs::FlightEventType::kTaskFinish, node, slot,
                         task.id,
                         static_cast<int64_t>(attempt_seconds * 1e6));
        }
        if (st.ok()) break;
        if (commit_failed) break;  // a partial commit must never be retried
        const char* reason = RetryReason(st, injected);
        if (flight != nullptr) {
          flight->Record(obs::FlightEventType::kTaskRetry, node, slot,
                         task.id, attempt, reason);
        }
        DISTME_LOG(Warning) << "task " << task.id << " attempt " << attempt
                            << " failed (" << reason << "): "
                            << st.ToString();
        metrics->GetCounter("distme.task.retries", {{"reason", reason}})
            ->Add(1);
        tally.retries.Add(1);
      }
      return st;
    };

    // Worker pool: one compute thread per task slot. At depth 0 a worker
    // claims tasks from the shared cursor and stages each attempt inline.
    // At depth k > 0 each worker also gets a fetch thread: fetch threads
    // claim tasks from the cursor, stage their first attempts (throttled
    // per node by a PrefetchGate), and push them into one shared queue of
    // k × workers entries that any idle worker pops — so no worker hoards
    // staged tasks while another slot sits idle.
    const int num_workers = static_cast<int>(
        std::min<int64_t>(config_.total_slots(),
                          static_cast<int64_t>(tasks.size())));
    const int pool = std::max(num_workers, 1);
    const bool pipelined_run = options.prefetch_depth > 0;

    const int64_t staging_budget = options.prefetch_staging_bytes > 0
                                       ? options.prefetch_staging_bytes
                                       : config_.node_memory_bytes;
    std::vector<std::unique_ptr<PrefetchGate>> gates;
    for (int n = 0; n < config_.num_nodes; ++n) {
      gates.push_back(std::make_unique<PrefetchGate>(staging_budget));
    }
    const auto depth = static_cast<size_t>(options.prefetch_depth);
    BoundedQueue<StagedTask> staging(depth * static_cast<size_t>(pool));
    auto gate_of = [&](const StagedTask& staged) -> PrefetchGate& {
      const mm::LocalTask& task = tasks[static_cast<size_t>(staged.index)];
      return *gates[static_cast<size_t>(task.id % config_.num_nodes)];
    };

    std::vector<std::thread> fetchers;
    std::vector<std::thread> workers;
    for (int w = 0; pipelined_run && w < pool; ++w) {
      fetchers.emplace_back([&]() {
        while (true) {
          const int64_t t = next_task.fetch_add(1, std::memory_order_relaxed);
          if (t >= static_cast<int64_t>(tasks.size())) break;
          if (run_failed()) break;
          const mm::LocalTask& task = tasks[static_cast<size_t>(t)];
          const int node = static_cast<int>(task.id % config_.num_nodes);
          PrefetchGate& gate = *gates[static_cast<size_t>(node)];
          if (gate.WaitForHeadroom()) tally.backpressure_waits.Add(1);
          StagedTask staged = stage(
              task,
              CrashDecision(task.id, /*attempt=*/0, options.task_failure_rate));
          staged.index = t;
          const int64_t charged = staged.staged_bytes;
          gate.Charge(charged);
          if (!staging.Push(std::move(staged))) {
            gate.Release(charged);  // a worker closed the queue on failure
            break;
          }
        }
      });
    }
    for (int w = 0; w < pool; ++w) {
      workers.emplace_back([&, w]() {
        while (true) {
          StagedTask prefetched;
          int64_t wait_begin_us = 0;
          double stall_seconds = 0;
          int64_t t = 0;
          if (pipelined_run) {
            Stopwatch pop_clock;
            wait_begin_us = flight != nullptr ? flight->NowMicros() : 0;
            bool stalled = false;
            std::optional<StagedTask> popped = staging.Pop(&stalled);
            if (!popped.has_value()) break;  // closed and fully drained
            prefetched = std::move(*popped);
            t = prefetched.index;
            // The staged bytes leave the prefetch window the moment compute
            // takes ownership.
            gate_of(prefetched).Release(prefetched.staged_bytes);
            if (stalled) {
              stall_seconds = pop_clock.ElapsedSeconds();
              tally.prefetch_stalls.Add(1);
              tally.stall_nanos.Add(static_cast<int64_t>(stall_seconds * 1e9));
            } else {
              tally.prefetch_hits.Add(1);
            }
          } else {
            t = next_task.fetch_add(1, std::memory_order_relaxed);
            if (t >= static_cast<int64_t>(tasks.size())) break;
          }
          if (run_failed()) break;  // `prefetched` dtor releases its state
          const mm::LocalTask& task = tasks[static_cast<size_t>(t)];
          Status st = execute_task(task, w,
                                   pipelined_run ? &prefetched : nullptr,
                                   wait_begin_us, stall_seconds);
          if (!st.ok()) record_failure(std::move(st));
        }
        // Stop the fetch threads and return the gate charges of anything
        // still staged (a no-op once the queue has drained, and at depth 0).
        staging.Close();
        while (std::optional<StagedTask> rest = staging.Pop()) {
          gate_of(*rest).Release(rest->staged_bytes);
        }
      });
    }
    // Every task is staged once the fetch threads exit; closing the queue
    // then lets the workers drain it and finish.
    for (auto& th : fetchers) th.join();
    staging.Close();
    for (auto& th : workers) th.join();

    RealRunResult result;
    result.report.method_name = method.name();
    result.report.mode = mode;
    result.report.num_tasks = static_cast<int64_t>(tasks.size());
    if (pipelined_run) {
      result.report.pipeline.prefetch_depth = options.prefetch_depth;
      result.report.pipeline.queue_high_water =
          static_cast<int64_t>(staging.high_water());
      metrics->GetGauge("distme.pipeline.queue_high_water")
          ->Set(result.report.pipeline.queue_high_water);
    }

    if (!failure.ok()) {
      result.report.outcome = failure;
      tally.Finish(&result.report, metrics);
      if (flight != nullptr) {
        flight->Record(obs::FlightEventType::kRunFinish, /*node=*/-1,
                       /*slot=*/-1, static_cast<int64_t>(tasks.size()),
                       /*b=*/1, "run failed");
        // Post-mortem: the run is about to surface an error Status; leave
        // the event trail on disk before the caller decides what to do.
        if (!options.flight_dump_path.empty()) {
          const Status dumped = flight->DumpToFile(options.flight_dump_path);
          if (dumped.ok()) {
            DISTME_LOG(Info) << "run failed; flight recorder dumped to "
                             << options.flight_dump_path;
          } else {
            DISTME_LOG(Warning) << "flight-recorder dump failed: "
                                << dumped.ToString();
          }
        }
      }
      result.output = std::move(output);
      return result;
    }

    // Aggregation finalize: merge every output block's partials in
    // ascending k_origin (deterministic reduction order), then move the
    // reduced blocks into the output matrix.
    Stopwatch agg_clock;
    if (flight != nullptr && needs_agg) {
      flight->Record(obs::FlightEventType::kStageBegin, /*node=*/-1,
                     /*slot=*/-1, 0, 0, "aggregation");
    }
    for (size_t shard = 0; needs_agg && shard < kShards; ++shard) {
      for (auto& [idx, by_k] : agg_partials[shard]) {
        auto it = by_k.begin();
        Block total = std::move(it->second);
        for (++it; it != by_k.end(); ++it) {
          DISTME_ASSIGN_OR_RETURN(total, blas::AddBlocks(total, it->second));
        }
        if (total.nnz() == 0) continue;
        DISTME_RETURN_NOT_OK(output->Put(idx, std::move(total)));
      }
      agg_partials[shard].clear();
    }
    if (flight != nullptr && needs_agg) {
      flight->Record(obs::FlightEventType::kStageEnd, /*node=*/-1,
                     /*slot=*/-1, 0, 0, "aggregation");
    }
    tally.aggregation_nanos.Add(
        static_cast<int64_t>(agg_clock.ElapsedSeconds() * 1e9));
    tally.Finish(&result.report, metrics);
    result.report.elapsed_seconds = total_clock.ElapsedSeconds();
    if (config_.has_gpu && mode != ComputeMode::kCpu) {
      double pcie = 0;
      double kernel_busy = 0;
      double device_elapsed = 0;
      int num_devices = 0;
      for (auto& node_devices : devices_) {
        for (auto& device : node_devices) {
          pcie += static_cast<double>(device->stats().h2d_bytes +
                                      device->stats().d2h_bytes);
          kernel_busy += device->stats().kernel_seconds;
          device_elapsed = std::max(device_elapsed, device->Synchronize());
          ++num_devices;
        }
      }
      result.report.pcie_bytes = pcie;
      if (device_elapsed > 0 && num_devices > 0) {
        result.report.gpu_utilization = std::min(
            1.0,
            kernel_busy / (device_elapsed * static_cast<double>(num_devices)));
      }
      metrics->GetGauge("distme.gpu.pcie_bytes")
          ->Set(static_cast<int64_t>(pcie));
      metrics->GetGauge("distme.gpu.utilization_permille")
          ->Set(static_cast<int64_t>(result.report.gpu_utilization * 1000.0));
    }
    if (flight != nullptr) {
      flight->Record(obs::FlightEventType::kRunFinish, /*node=*/-1,
                     /*slot=*/-1, static_cast<int64_t>(tasks.size()));
    }
    result.output = std::move(output);
    return result;
  }

 private:
  // Block-level GPU multiply: per-voxel H2D copies, one kernel, no reuse.
  // Wall time spent here accumulates into *gpu_seconds (the task's
  // gpu_wait blocked-time edge).
  Status RunBlockKernel(int node, int64_t task_id, const Block& a_blk,
                        const Block& b_blk, DenseMatrix* acc,
                        double* gpu_seconds) {
    Stopwatch gpu_clock;
    Status st = [&]() -> Status {
      gpu::Device* device = DeviceFor(node, task_id);
      const gpu::StreamId stream = device->CreateStream();
      DISTME_RETURN_NOT_OK(device->EnqueueH2D(stream, a_blk.SizeBytes()));
      DISTME_RETURN_NOT_OK(device->EnqueueH2D(stream, b_blk.SizeBytes()));
      const bool sparse = a_blk.IsSparse() || b_blk.IsSparse();
      const int64_t flops =
          blas::MultiplyFlops(a_blk.rows(), a_blk.cols(), b_blk.cols());
      Status kernel_status = Status::OK();
      DISTME_RETURN_NOT_OK(device->EnqueueKernel(
          stream, flops,
          [&]() {
            kernel_status = blas::MultiplyAccumulate(a_blk, b_blk, acc);
          },
          sparse));
      DISTME_RETURN_NOT_OK(kernel_status);
      return device->EnqueueD2H(stream, acc->SizeBytes());
    }();
    *gpu_seconds += gpu_clock.ElapsedSeconds();
    return st;
  }

  ClusterConfig config_;
  // devices_[node][device_on_node]
  std::vector<std::vector<std::unique_ptr<gpu::Device>>> devices_;
};

RealExecutor::RealExecutor(ClusterConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

RealExecutor::~RealExecutor() = default;

Result<RealRunResult> RealExecutor::Run(const DistributedMatrix& a,
                                        const DistributedMatrix& b,
                                        const mm::Method& method,
                                        const RealOptions& options) {
  return impl_->Run(a, b, method, options);
}

}  // namespace distme::engine
