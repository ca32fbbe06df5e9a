// Concurrency stress suite: hammers every shared-state component from many
// threads at once. The assertions here are deliberately coarse (totals add
// up, nothing crashes) — the real assertions are the ones ThreadSanitizer
// makes when scripts/ci.sh --sanitize runs this binary under
// -DDISTME_SANITIZE=thread: any data race in MetricsRegistry, CommMatrix,
// the logging sink, or the RealExecutor task slots fails the build.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/session.h"
#include "engine/real_executor.h"
#include "gpu/device.h"
#include "matrix/generator.h"
#include "obs/comm_matrix.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace distme {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 2000;

/// Runs `fn(thread_index)` on kThreads threads and joins them.
void RunOnThreads(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

/// One reader thread that snapshots a registry, a comm matrix and a flight
/// ring in a loop until Stop() (at least once), so TSan sees the writers
/// race concurrent reads of all three. Counters never read negative, and
/// every flight snapshot comes out in sequence order and within the ring's
/// capacity: the seqlock never surfaces a torn or reordered event.
class SnapshotReader {
 public:
  SnapshotReader(const obs::MetricsRegistry& registry,
                 const obs::CommMatrix& comm,
                 const obs::FlightRecorder& flight)
      : thread_([this, &registry, &comm, &flight] {
          do {
            for (const obs::MetricPoint& p : registry.Snapshot().points) {
              if (p.kind == obs::MetricKind::kCounter) {
                EXPECT_GE(p.value, 0);
              }
            }
            EXPECT_GE(comm.Snapshot().TotalBytes(), 0);
            const std::vector<obs::FlightEvent> events = flight.Snapshot();
            for (size_t i = 1; i < events.size(); ++i) {
              EXPECT_LT(events[i - 1].seq, events[i].seq);
            }
            EXPECT_LE(events.size(), flight.capacity());
          } while (!stop_.load(std::memory_order_acquire));
        }) {}

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  ~SnapshotReader() {
    if (thread_.joinable()) Stop();
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- MetricsRegistry --------------------------------------------------------

// Writers update counters/gauges/histograms (including racing registration of
// the *same* named instruments) while a reader thread snapshots continuously.
TEST(StressConcurrencyTest, MetricsRegistryHammer) {
  obs::MetricsRegistry registry;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    int64_t snapshots = 0;
    while (!stop.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      // Totals may lag the writers but can never be negative or shrink the
      // point list mid-iteration.
      EXPECT_GE(snap.TotalValue("stress.counter"), 0);
      ++snapshots;
    }
    EXPECT_GT(snapshots, 0);
  });

  RunOnThreads([&](int t) {
    const obs::LabelSet labels = {{"thread", std::to_string(t % 4)}};
    for (int i = 0; i < kItersPerThread; ++i) {
      registry.GetCounter("stress.counter", labels)->Add(1);
      registry.GetGauge("stress.gauge")->SetMax(i);
      registry.GetHistogram("stress.histo")->Observe(static_cast<double>(i));
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.TotalValue("stress.counter"),
            int64_t{kThreads} * kItersPerThread);
  const obs::MetricPoint* histo = snap.Find("stress.histo");
  ASSERT_NE(histo, nullptr);
  EXPECT_EQ(histo->value, int64_t{kThreads} * kItersPerThread);
}

// Reset racing with writers must not lose the registry's instruments (only
// their values) and must not trip TSan.
TEST(StressConcurrencyTest, MetricsRegistryResetRace) {
  obs::MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) registry.Reset();
  });
  RunOnThreads([&](int) {
    for (int i = 0; i < kItersPerThread; ++i) {
      registry.GetCounter("stress.reset.counter")->Add(1);
    }
  });
  stop.store(true, std::memory_order_release);
  resetter.join();
  EXPECT_NE(registry.Snapshot().Find("stress.reset.counter"), nullptr);
}

// --- CommMatrix -------------------------------------------------------------

// Concurrent Record() on overlapping links, with a concurrent snapshotter;
// the final snapshot must account for every byte exactly once.
TEST(StressConcurrencyTest, CommMatrixHammer) {
  obs::CommMatrix comm;
  std::atomic<bool> stop{false};

  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      obs::CommMatrixSnapshot snap = comm.Snapshot();
      EXPECT_GE(snap.TotalBytes(), 0);
      EXPECT_GE(snap.SkewRatio(), 0.0);
    }
  });

  RunOnThreads([&](int t) {
    for (int i = 0; i < kItersPerThread; ++i) {
      const int src = t % 4;
      const int dst = (t + 1 + i) % 4;
      comm.Record(i % 2 == 0 ? obs::CommStage::kRepartition
                             : obs::CommStage::kAggregation,
                  src, dst, 8);
    }
  });
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_EQ(comm.Snapshot().TotalBytes(),
            int64_t{8} * kThreads * kItersPerThread);
}

// --- Logging ----------------------------------------------------------------

// Concurrent emission at every level while another thread flips the global
// level: exercises the g_min_level atomic and the line-buffered sink.
TEST(StressConcurrencyTest, LoggingHammer) {
  const LogLevel saved = GetLogLevel();
  std::atomic<bool> stop{false};
  std::thread leveler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      SetLogLevel(LogLevel::kError);
      SetLogLevel(LogLevel::kWarning);
    }
  });
  RunOnThreads([&](int t) {
    for (int i = 0; i < kItersPerThread / 4; ++i) {
      DISTME_LOG(Debug) << "stress debug t=" << t << " i=" << i;
      DISTME_LOG(Error) << "";  // enabled at any level: exercises the sink
      EXPECT_GE(LogThreadId(), 0);
    }
  });
  stop.store(true, std::memory_order_release);
  leveler.join();
  SetLogLevel(saved);
}

// --- FlightRecorder ---------------------------------------------------------

// Writers hammer the lock-free event ring (forcing constant wraparound), a
// registry counter and the comm matrix while one reader thread snapshots
// all three.
TEST(StressConcurrencyTest, FlightRecorderReaderHammer) {
  obs::MetricsRegistry registry;
  obs::CommMatrix comm;
  obs::FlightRecorder flight(256);
  SnapshotReader reader(registry, comm, flight);

  RunOnThreads([&](int t) {
    obs::Counter* counter = registry.GetCounter("stress.flight.events");
    for (int i = 0; i < kItersPerThread; ++i) {
      flight.Record(obs::FlightEventType::kTaskStart, t, i % 4, i, t,
                    "stress");
      counter->Add(1);
      comm.Record(obs::CommStage::kRepartition, t % 4, i % 4, 8);
    }
  });
  reader.Stop();

  EXPECT_EQ(flight.TotalRecorded(),
            uint64_t{kThreads} * static_cast<uint64_t>(kItersPerThread));
  EXPECT_EQ(registry.Snapshot().TotalValue("stress.flight.events"),
            int64_t{kThreads} * kItersPerThread);
}

// --- GpuDevice --------------------------------------------------------------

// The lock-discipline sweep found Device::stats() and memory_used() returning
// unguarded state while enqueue threads mutate it; both now copy under the
// device mutex. This hammer races enqueuers + allocators against continuous
// readers — under -DDISTME_SANITIZE=thread it is the regression test for
// that fix.
TEST(StressConcurrencyTest, GpuDeviceStatsReaderHammer) {
  GpuSpec spec;
  spec.memory_bytes = 1 << 20;
  gpu::Device device(spec, HardwareModel{});
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // Read used before stats: the two getters lock separately, and an
      // allocation between them can push used past an earlier peak
      // snapshot. Peak is monotone, so peak-read-later >= used-read-earlier.
      const int64_t used = device.memory_used();
      const gpu::DeviceStats stats = device.stats();
      EXPECT_GE(stats.h2d_bytes, 0);
      EXPECT_GE(stats.kernel_calls, 0);
      EXPECT_GE(stats.peak_memory_bytes, used);
      EXPECT_GE(device.Synchronize(), 0.0);
    }
  });

  RunOnThreads([&](int t) {
    const gpu::StreamId stream = device.CreateStream();
    for (int i = 0; i < kItersPerThread / 4; ++i) {
      ASSERT_TRUE(device.EnqueueH2D(stream, 256).ok());
      ASSERT_TRUE(device.EnqueueKernel(stream, 1024, {}).ok());
      ASSERT_TRUE(device.EnqueueD2H(stream, 128).ok());
      auto buffer = device.Allocate(64, "stress");
      if (buffer.ok()) {
        EXPECT_TRUE(device.Free(*buffer).ok());
      }
      (void)t;
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  const gpu::DeviceStats stats = device.stats();
  const int64_t per_thread = kItersPerThread / 4;
  EXPECT_EQ(stats.h2d_copies, int64_t{kThreads} * per_thread);
  EXPECT_EQ(stats.d2h_copies, int64_t{kThreads} * per_thread);
  EXPECT_EQ(stats.kernel_calls, int64_t{kThreads} * per_thread);
  EXPECT_EQ(device.memory_used(), 0);
}

// --- RealExecutor / Session -------------------------------------------------

// Whole-engine stress: several sessions run real multiplies concurrently,
// each spinning up its own RealExecutor task slots, per-node stores, metrics
// registry, flight ring, and comm matrix, and each exports its ring as a
// Chrome trace after every multiply while its own reader thread snapshots
// all three. Catches races between executor internals, the trace export,
// concurrent readers, and the shared process state (logging ids, etc.).
TEST(StressConcurrencyTest, MultiSessionMultiplyHammer) {
  constexpr int kSessions = 8;
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  std::atomic<int> failures{0};

  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([s, &failures] {
      core::Session::Options options;
      options.cluster = ClusterConfig::Local(3, 2);
      options.planner = std::make_shared<core::DistmePlanner>(
          mm::OptimizerOptions{.enforce_parallelism = false});
      core::Session session(options);
      SnapshotReader reader(session.metrics(), session.comm(),
                            session.flight());
      const std::string trace =
          testing::TempDir() + "/hammer_trace_" + std::to_string(s) + ".json";

      for (int round = 0; round < 3; ++round) {
        GeneratorOptions ga;
        ga.rows = 32;
        ga.cols = 24;
        ga.block_size = 8;
        ga.sparsity = 1.0;
        ga.seed = static_cast<uint64_t>(100 + s * 10 + round);
        GeneratorOptions gb = ga;
        gb.rows = 24;
        gb.cols = 16;
        gb.seed = ga.seed + 1;

        auto a = session.Generate(ga);
        auto b = session.Generate(gb);
        if (!a.ok() || !b.ok()) {
          failures.fetch_add(1);
          break;
        }
        auto c = session.Multiply(*a, *b);
        if (!c.ok() || c->rows() != 32 || c->cols() != 16 ||
            !session.WriteTrace(trace).ok()) {
          failures.fetch_add(1);
          break;
        }
        DISTME_IGNORE_ERROR(session.Sum(*c));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Prefetch pipeline ------------------------------------------------------

// Pipeline hammer: concurrent pipelined runs on an 8-slot cluster (4 nodes ×
// 2 slots), prefetch depth 4 — so every run spins up 8 fetch + 8 compute
// threads crossing its shared staging queue and prefetch gates — while one
// reader thread snapshots the shared registry, comm matrix and flight ring
// the executors record into. Under TSan this is the regression test for
// the fetch-to-worker handoff; functionally every pipelined result must
// match the depth-0 bits.
TEST(StressConcurrencyTest, PipelinedMultiplyHammer) {
  constexpr int kRunners = 4;
  obs::MetricsRegistry registry;
  obs::CommMatrix comm;
  obs::FlightRecorder flight(4096);
  SnapshotReader reader(registry, comm, flight);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kRunners);
  for (int r = 0; r < kRunners; ++r) {
    threads.emplace_back([r, &registry, &comm, &flight, &failures] {
      GeneratorOptions ga;
      ga.rows = 48;
      ga.cols = 32;
      ga.block_size = 8;
      ga.sparsity = 1.0;
      ga.seed = static_cast<uint64_t>(900 + r);
      GeneratorOptions gb = ga;
      gb.rows = 32;
      gb.cols = 40;
      gb.seed = ga.seed + 1;
      const BlockGrid grid_a = GenerateUniform(ga);
      const BlockGrid grid_b = GenerateUniform(gb);

      const ClusterConfig cluster = ClusterConfig::Local(4, 2);
      engine::DistributedMatrix a =
          engine::DistributedMatrix::FromGridHashed(grid_a, 4);
      engine::DistributedMatrix b =
          engine::DistributedMatrix::FromGridHashed(grid_b, 4);
      engine::RealExecutor executor(cluster);
      mm::RmmMethod method;

      engine::RealOptions legacy;
      auto run0 = executor.Run(a, b, method, legacy);
      if (!run0.ok() || !run0->report.outcome.ok()) {
        failures.fetch_add(1);
        return;
      }
      const DenseMatrix d0 = run0->output->Collect().ToDense();

      for (int round = 0; round < 3; ++round) {
        engine::RealOptions pipelined;
        pipelined.prefetch_depth = 4;
        pipelined.metrics = &registry;
        pipelined.comm = &comm;
        pipelined.flight = &flight;
        auto run = executor.Run(a, b, method, pipelined);
        if (!run.ok() || !run->report.outcome.ok()) {
          failures.fetch_add(1);
          return;
        }
        const DenseMatrix dk = run->output->Collect().ToDense();
        if (dk.rows() != d0.rows() || dk.cols() != d0.cols() ||
            DenseMatrix::MaxAbsDiff(dk, d0) != 0.0) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  reader.Stop();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace distme
