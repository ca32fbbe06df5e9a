#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "engine/real_executor.h"
#include "engine/report.h"
#include "matrix/generator.h"
#include "mm/methods.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/gpu_timeline.h"
#include "obs/metrics.h"

namespace distme::obs {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("distme.test.counter");
  Counter* b = registry.GetCounter("distme.test.counter");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);

  // Different labels are different instruments; same labels (in any order)
  // are the same one.
  Counter* red = registry.GetCounter("distme.test.labeled",
                                     {{"color", "red"}, {"size", "s"}});
  Counter* blue = registry.GetCounter("distme.test.labeled",
                                      {{"color", "blue"}, {"size", "s"}});
  Counter* red_again = registry.GetCounter(
      "distme.test.labeled", {{"size", "s"}, {"color", "red"}});
  EXPECT_NE(red, blue);
  EXPECT_EQ(red, red_again);
}

TEST(MetricsRegistryTest, ConcurrentCountersAreExact) {
  constexpr int kThreads = 8;
  constexpr int kCounters = 4;
  constexpr int kIncrements = 20000;

  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIncrements; ++i) {
        // Every thread registers lazily, exercising FindOrCreate under
        // contention, then hammers the lock-free Add path.
        const std::string name =
            "distme.test.c" + std::to_string((t + i) % kCounters);
        registry.GetCounter(name)->Add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  int64_t total = 0;
  for (int c = 0; c < kCounters; ++c) {
    total += registry.GetCounter("distme.test.c" + std::to_string(c))->Value();
  }
  EXPECT_EQ(total, int64_t{kThreads} * kIncrements);
}

TEST(MetricsRegistryTest, GaugeSetMaxRecordsPeak) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("distme.test.peak");
  gauge->SetMax(10);
  gauge->SetMax(4);
  EXPECT_EQ(gauge->Value(), 10);
  gauge->SetMax(25);
  EXPECT_EQ(gauge->Value(), 25);
}

TEST(MetricsRegistryTest, SnapshotFindAndTotals) {
  MetricsRegistry registry;
  registry.GetCounter("distme.test.retries", {{"reason", "timeout"}})->Add(2);
  registry.GetCounter("distme.test.retries", {{"reason", "crash"}})->Add(5);
  registry.GetGauge("distme.test.gauge")->Set(-7);

  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricPoint* timeout =
      snapshot.Find("distme.test.retries", {{"reason", "timeout"}});
  ASSERT_NE(timeout, nullptr);
  EXPECT_EQ(timeout->value, 2);
  EXPECT_EQ(snapshot.TotalValue("distme.test.retries"), 7);
  const MetricPoint* gauge = snapshot.Find("distme.test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, MetricKind::kGauge);
  EXPECT_EQ(gauge->value, -7);
  EXPECT_EQ(snapshot.Find("distme.test.absent"), nullptr);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, CountAndSumAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("distme.test.h");
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h->Observe(i * 0.5);
    sum += i * 0.5;
  }
  EXPECT_EQ(h->Count(), 1000);
  EXPECT_DOUBLE_EQ(h->Sum(), sum);
}

// --- Exporters -------------------------------------------------------------

TEST(ChromeTraceTest, EmitsRequiredKeysAndMetadata) {
  FlightRecorder flight(64);
  const char* stage = "merge \"quoted\" stage";
  flight.RecordAt(0, FlightEventType::kRunStart, -1, -1, 1);
  flight.RecordAt(5, FlightEventType::kStageBegin, -1, -1, 0, 0, stage);
  flight.RecordAt(10, FlightEventType::kTaskStart, 0, 1, 7, 0);
  flight.RecordAt(30, FlightEventType::kFetchWait, 0, 1, 7, 15);
  flight.RecordAt(50, FlightEventType::kTaskFinish, 0, 1, 7, 40);
  flight.RecordAt(60, FlightEventType::kStageEnd, -1, -1, 0, 0, stage);
  flight.RecordAt(70, FlightEventType::kRunFinish, -1, -1, 1, 0);
  const std::string json = ChromeTraceJson(
      flight.Snapshot(), flight.TotalRecorded(), flight.capacity());

  // Document structure, plus the ring accounting a drop check reads.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":7"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":64"), std::string::npos);
  // The attempt spans task_start..task_finish on its (node 0, slot 1) track,
  // with every key a trace viewer requires.
  EXPECT_NE(json.find("{\"name\":\"task.attempt\",\"cat\":\"task\",\"ph\":"
                      "\"X\",\"ts\":10,\"dur\":40,\"pid\":0,\"tid\":1,"
                      "\"args\":{\"task\":7,\"attempt\":0}}"),
            std::string::npos)
      << json;
  // The fetch_wait edge is the 15 us ending at ts 30, on the same track.
  EXPECT_NE(json.find("{\"name\":\"fetch_wait\",\"cat\":\"edge\",\"ph\":\"X\","
                      "\"ts\":15,\"dur\":15,\"pid\":0,\"tid\":1,"),
            std::string::npos);
  // Run and stage sit on the driver track: pid 1, one past the top node.
  EXPECT_NE(json.find("{\"name\":\"run\",\"cat\":\"driver\",\"ph\":\"X\","
                      "\"ts\":0,\"dur\":70,\"pid\":1,\"tid\":0,"),
            std::string::npos);
  // The stage name is escaped.
  EXPECT_NE(json.find("{\"name\":\"merge \\\"quoted\\\" stage\",\"cat\":"
                      "\"stage\",\"ph\":\"X\",\"ts\":5,\"dur\":55,\"pid\":1,"),
            std::string::npos);
  // Track-name metadata events.
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,"
                      "\"pid\":0,\"tid\":0,\"args\":{\"name\":\"node0\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
                      "\"pid\":0,\"tid\":1,\"args\":{\"name\":\"slot1\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"driver\"}"), std::string::npos);
}

TEST(ChromeTraceTest, DeviceIntervalsOfEveryRunGetADeviceProcess) {
  // Two runs, each with one H2D copy and one kernel on node 0's device 0.
  // The intervals sit on the device's virtual clock, so they get a process
  // of their own — and both runs' intervals are drawn, not only the last.
  FlightRecorder flight(64);
  const int64_t tag = PackGpuTag(0, /*cuboid_id=*/3, /*sub_index=*/1);
  for (int64_t run = 0; run < 2; ++run) {
    const int64_t t = 100 * run;
    flight.RecordAt(t, FlightEventType::kRunStart, -1, -1, 1);
    flight.RecordAt(t, FlightEventType::kGpuH2dBegin, 0, 0, 4096, tag);
    flight.RecordAt(t + 10, FlightEventType::kGpuH2dEnd, 0, 0, 4096, tag);
    flight.RecordAt(t + 10, FlightEventType::kGpuKernelBegin, 0, 0, 1000, tag);
    flight.RecordAt(t + 30, FlightEventType::kGpuKernelEnd, 0, 0, 1000, tag);
    flight.RecordAt(t + 40, FlightEventType::kRunFinish, -1, -1, 1);
  }
  const std::string json = ChromeTraceJson(
      flight.Snapshot(), flight.TotalRecorded(), flight.capacity());
  // Node 0 is the highest node, so the driver is pid 1 and the device pid 2.
  for (const char* span :
       {"{\"name\":\"h2d c3.1\",\"cat\":\"gpu\",\"ph\":\"X\",\"ts\":0,"
        "\"dur\":10,\"pid\":2,\"tid\":0,\"args\":{\"bytes\":4096,",
        "{\"name\":\"kernel c3.1\",\"cat\":\"gpu\",\"ph\":\"X\",\"ts\":110,"
        "\"dur\":20,\"pid\":2,\"tid\":2,\"args\":{\"flops\":1000,"}) {
    EXPECT_NE(json.find(span), std::string::npos) << span << "\n" << json;
  }
  EXPECT_NE(json.find("\"args\":{\"name\":\"node0 gpu0 (device clock)\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"kernel\"}"), std::string::npos);
}

// --- RealExecutor integration ---------------------------------------------

engine::DistributedMatrix MakeMatrix(int64_t rows, int64_t cols, int nodes,
                                     uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = 8;
  g.sparsity = 1.0;
  g.seed = seed;
  return engine::DistributedMatrix::FromGridHashed(GenerateUniform(g), nodes);
}

// One complete ("X") event of an exported trace.
struct Span {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
  int64_t pid = 0;
  int64_t tid = 0;
  int64_t task = -1;  ///< the "task" arg, -1 if absent
};

// The complete events of a ChromeTraceJson() document. Relies on the
// exporter's fixed key order: name, cat, ph, ts, dur, pid, tid, args.
std::vector<Span> CompleteSpans(const std::string& json) {
  std::vector<Span> spans;
  const std::string ph = "\"ph\":\"X\"";
  for (size_t at = json.find(ph); at != std::string::npos;
       at = json.find(ph, at + 1)) {
    Span span;
    const size_t name = json.rfind("{\"name\":\"", at) + 9;
    span.name = json.substr(name, json.find('"', name) - name);
    auto number_after = [&](const std::string& key) {
      return std::strtoll(json.c_str() + json.find(key, at) + key.size(),
                          nullptr, 10);
    };
    span.ts = number_after("\"ts\":");
    span.dur = number_after("\"dur\":");
    span.pid = number_after("\"pid\":");
    span.tid = number_after("\"tid\":");
    if (json.find("\"task\":", at) < json.find('}', at)) {
      span.task = number_after("\"task\":");
    }
    spans.push_back(span);
  }
  return spans;
}

TEST(ObsIntegrationTest, RealRunSpansAndCountersMatchTheReport) {
  const ClusterConfig cluster = ClusterConfig::Local(3, 2);
  engine::RealExecutor executor(cluster);
  engine::DistributedMatrix a = MakeMatrix(48, 40, 3, 11);
  engine::DistributedMatrix b = MakeMatrix(40, 32, 3, 12);

  MetricsRegistry metrics;
  FlightRecorder flight(4096);
  engine::RealOptions options;
  options.metrics = &metrics;
  options.flight = &flight;
  options.task_failure_rate = 0.3;
  options.max_task_attempts = 100;  // retries always succeed eventually

  auto result = executor.Run(a, b, mm::CpmmMethod(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::MMReport& report = result->report;
  ASSERT_TRUE(report.outcome.ok());
  ASSERT_GT(report.task_retries, 0);  // the injected faults fired
  ASSERT_LE(flight.TotalRecorded(), flight.capacity());  // nothing dropped

  // Every task attempt, failed or not, is exactly one "task.attempt" span.
  const std::vector<Span> spans = CompleteSpans(ChromeTraceJson(
      flight.Snapshot(), flight.TotalRecorded(), flight.capacity()));
  const int64_t attempt_spans =
      std::count_if(spans.begin(), spans.end(),
                    [](const Span& s) { return s.name == "task.attempt"; });
  EXPECT_EQ(attempt_spans, report.num_tasks + report.task_retries);
  EXPECT_EQ(attempt_spans,
            metrics.Snapshot().TotalValue("distme.task.attempts"));

  // The report's shuffle bytes are populated from the registry, and the
  // registry agrees with the report's total.
  const MetricsSnapshot snapshot = metrics.Snapshot();
  const int64_t counted =
      snapshot.TotalValue("distme.shuffle.repartition_bytes") +
      snapshot.TotalValue("distme.shuffle.aggregation_bytes");
  EXPECT_EQ(static_cast<double>(counted), report.total_shuffle_bytes());

  for (const Span& s : spans) {
    // Tracks stay within the cluster: pids in [0, nodes] (nodes = driver).
    EXPECT_GE(s.pid, 0);
    EXPECT_LE(s.pid, cluster.num_nodes);
    EXPECT_GE(s.ts, 0);
    EXPECT_GE(s.dur, 0);
    // A wait edge lies inside an attempt of its task on its track.
    if (s.name != "fetch_wait" && s.name != "gpu_wait") continue;
    EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [&](const Span& t) {
      return t.name == "task.attempt" && t.task == s.task && t.pid == s.pid &&
             t.tid == s.tid && t.ts <= s.ts && s.ts + s.dur <= t.ts + t.dur;
    })) << s.name << " of task " << s.task << " at " << s.ts;
  }
}

TEST(ObsIntegrationTest, InjectedFaultsShowUpAsLabeledRetries) {
  const ClusterConfig cluster = ClusterConfig::Local(2, 2);
  engine::RealExecutor executor(cluster);
  engine::DistributedMatrix a = MakeMatrix(32, 24, 2, 21);
  engine::DistributedMatrix b = MakeMatrix(24, 16, 2, 22);

  MetricsRegistry metrics;
  engine::RealOptions options;
  options.metrics = &metrics;
  options.task_failure_rate = 0.5;
  options.max_task_attempts = 100;  // retries always succeed eventually

  auto result = executor.Run(a, b, mm::BmmMethod(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->report.outcome.ok());
  ASSERT_GT(result->report.task_retries, 0);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  const MetricPoint* injected = snapshot.Find(
      "distme.task.retries", {{"reason", "injected_crash"}});
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->value, result->report.task_retries);
}

}  // namespace
}  // namespace distme::obs
