// Live-telemetry suite: flight-recorder ring semantics (wraparound, fatal
// dump, reading a dump back from real and hostile JSON), Prometheus text
// rendering and the loopback HTTP scrape endpoint — plus the end-to-end
// paths through Session (live scrape of a real run, the GPU gauges of a
// GPU run, flight dump on an injected task failure).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "core/session.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"

namespace distme {
namespace {

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorderTest, RecordsEventsInOrder) {
  obs::FlightRecorder flight(64);
  EXPECT_EQ(flight.capacity(), 64u);
  flight.Record(obs::FlightEventType::kRunStart, -1, -1, 12);
  flight.Record(obs::FlightEventType::kTaskStart, 2, 3, 7, 0, "first try");
  flight.Record(obs::FlightEventType::kRunFinish, -1, -1, 12, 0);

  EXPECT_EQ(flight.TotalRecorded(), 3u);
  const std::vector<obs::FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, obs::FlightEventType::kRunStart);
  EXPECT_EQ(events[0].a, 12);
  EXPECT_EQ(events[1].type, obs::FlightEventType::kTaskStart);
  EXPECT_EQ(events[1].node, 2);
  EXPECT_EQ(events[1].slot, 3);
  EXPECT_EQ(events[1].a, 7);
  EXPECT_STREQ(events[1].detail, "first try");
  EXPECT_EQ(events[2].type, obs::FlightEventType::kRunFinish);
  // Sequence numbers are contiguous and timestamps never go backwards.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::FlightRecorder(1).capacity(), 64u);
  EXPECT_EQ(obs::FlightRecorder(100).capacity(), 128u);
  EXPECT_EQ(obs::FlightRecorder(4096).capacity(), 4096u);
}

TEST(FlightRecorderTest, RingWrapsKeepingTheMostRecentEvents) {
  constexpr uint64_t kTotal = 200;
  obs::FlightRecorder flight(64);
  for (uint64_t i = 0; i < kTotal; ++i) {
    flight.Record(obs::FlightEventType::kTaskStart, 0, 0,
                  static_cast<int64_t>(i));
  }
  EXPECT_EQ(flight.TotalRecorded(), kTotal);
  const std::vector<obs::FlightEvent> events = flight.Snapshot();
  // The ring holds exactly the last `capacity` events, oldest first.
  ASSERT_EQ(events.size(), flight.capacity());
  EXPECT_EQ(events.front().seq, kTotal - flight.capacity() + 1);
  EXPECT_EQ(events.back().seq, kTotal);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, EventTypeNamesCoverTheEnum) {
  EXPECT_STREQ(obs::FlightEventTypeName(obs::FlightEventType::kRunStart),
               "run_start");
  EXPECT_STREQ(obs::FlightEventTypeName(obs::FlightEventType::kGpuAlloc),
               "gpu_alloc");
  EXPECT_STREQ(obs::FlightEventTypeName(obs::FlightEventType::kNumTypes),
               "unknown");
}

TEST(FlightRecorderTest, ToJsonCarriesEventsAndDetail) {
  obs::FlightRecorder flight(64);
  flight.Record(obs::FlightEventType::kTaskStart, 1, 0, 5, 1, "attempt 1");
  const std::string json = flight.ToJson();
  EXPECT_NE(json.find("\"total_recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"task_start\""), std::string::npos);
  EXPECT_NE(json.find("\"attempt 1\""), std::string::npos);
}

// --- Flight-dump reader -----------------------------------------------------

// A real multi-run ring: five multiplies with injected faults (14 events
// each) overflow a 64-slot ring, then two hand-recorded events add a
// free-form detail and one that survives only if the writer escapes it and
// the reader unescapes it.
struct RingDump {
  std::vector<obs::FlightEvent> events;
  std::string json;
  uint64_t total_recorded = 0;
};

RingDump MultiRunRing() {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 1);
  options.flight_recorder_capacity = 64;
  options.real.task_failure_rate = 0.3;
  options.real.max_task_attempts = 100;
  core::Session session(options);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorOptions g;
    g.rows = g.cols = 16;
    g.block_size = 8;
    g.sparsity = 1.0;
    g.seed = seed;
    auto a = session.Generate(g);
    g.seed += 10;
    auto b = session.Generate(g);
    EXPECT_TRUE(a.ok() && b.ok() && session.Multiply(*a, *b).ok());
  }
  obs::FlightRecorder& flight = session.flight();
  flight.Record(obs::FlightEventType::kTaskStart, 1, 0, 5, 1, "attempt 1");
  flight.Record(obs::FlightEventType::kStageBegin, -1, -1, 0, 0,
                "tab\t \"quote\" back\\slash \x01 nl\n end");
  return {flight.Snapshot(), flight.ToJson(), flight.TotalRecorded()};
}

// Parses a private exact-size copy of `text`, so ASan flags any read past
// its end.
Result<obs::FlightDump> ParseCopy(std::string_view text) {
  const std::vector<char> copy(text.begin(), text.end());
  return obs::ParseFlightDump(std::string_view(copy.data(), copy.size()));
}

TEST(FlightRecorderTest, ParseFlightDumpRoundTripsARealMultiRunRing) {
  const RingDump ring = MultiRunRing();
  Result<obs::FlightDump> parsed = ParseCopy(ring.json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The details live in the dump, and survive moving it.
  const obs::FlightDump dump = std::move(parsed).value();
  EXPECT_EQ(dump.schema, obs::kFlightDumpSchema);
  EXPECT_EQ(dump.total_recorded, ring.total_recorded);
  EXPECT_EQ(dump.capacity, 64u);
  EXPECT_GT(dump.dropped(), 0u) << "five runs should wrap the ring";
  ASSERT_EQ(dump.events.size(), ring.events.size());
  int run_finishes = 0;
  for (size_t i = 0; i < dump.events.size(); ++i) {
    const obs::FlightEvent& want = ring.events[i];
    const obs::FlightEvent& got = dump.events[i];
    EXPECT_EQ(std::tie(got.seq, got.ts_us, got.type, got.node, got.slot,
                       got.a, got.b),
              std::tie(want.seq, want.ts_us, want.type, want.node, want.slot,
                       want.a, want.b))
        << i;
    if (want.detail == nullptr) {
      EXPECT_EQ(got.detail, nullptr) << i;
    } else {
      ASSERT_NE(got.detail, nullptr) << i;
      EXPECT_STREQ(got.detail, want.detail) << i;
    }
    run_finishes += got.type == obs::FlightEventType::kRunFinish;
  }
  EXPECT_GE(run_finishes, 2) << "the dump should hold more than one run";
  EXPECT_STREQ(dump.events.back().detail,
               "tab\t \"quote\" back\\slash \x01 nl\n end");
  EXPECT_STREQ(dump.events[dump.events.size() - 2].detail, "attempt 1");
}

// Runs every analysis distme_analyze offers on `dump`: under UBSan an
// overflow on any value the reader let through aborts the test.
void AnalyzeEverything(const obs::FlightDump& dump) {
  const obs::RunAnalysis run = obs::AnalyzeRun(dump.events, 12.0 * kGiB);
  const obs::RunAnalysis none;
  for (const obs::CriticalPathDiff& diff :
       {obs::DiffCriticalPaths(run.critical_path, run.critical_path),
        obs::DiffCriticalPaths(none.critical_path, run.critical_path),
        obs::DiffCriticalPaths(run.critical_path, none.critical_path)}) {
    EXPECT_FALSE(diff.ToText().empty());
  }
  EXPECT_FALSE(run.critical_path.ToText().empty());
  EXPECT_FALSE(run.critical_path.ToJson().empty());
  EXPECT_FALSE(run.gpu.ToText().empty());
  EXPECT_FALSE(run.gpu.ToJson().empty());
  EXPECT_FALSE(obs::ChromeTraceJson(dump.events, dump.total_recorded,
                                    dump.capacity)
                   .empty());
}

TEST(FlightRecorderTest, ParseFlightDumpRejectsHostileInput) {
  const std::string json = MultiRunRing().json;
  const size_t events = ParseCopy(json)->events.size();
  // Every truncated prefix fails.
  for (size_t n = 0; n < json.size(); ++n) {
    EXPECT_FALSE(ParseCopy(std::string_view(json).substr(0, n)).ok()) << n;
  }
  // A flipped byte fails, or leaves a dump that parses whole and analyzes.
  for (size_t i = 0; i < json.size(); ++i) {
    for (const char mask : {'\x01', '\x80'}) {
      std::string flipped = json;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      const Result<obs::FlightDump> dump = ParseCopy(flipped);
      if (dump.ok()) {
        EXPECT_EQ(dump->events.size(), events) << i;
        AnalyzeEverything(*dump);
      }
    }
  }

  const std::string event =
      R"({"seq":1,"ts_us":5,"type":"task_finish","node":0,"slot":1,"a":2,)"
      R"("b":4611686018427387903})";
  auto with_schema = [](int64_t schema) {
    return R"({"schema":)" + std::to_string(schema);
  };
  const std::string schema = with_schema(obs::kFlightDumpSchema);
  // `event` with `from` replaced by `to`, as the one event of a dump.
  auto dump_with = [&](const std::string& from, const std::string& to) {
    std::string e = event;
    if (!from.empty()) e.replace(e.find(from), from.size(), to);
    return schema + R"(,"total_recorded":1,"capacity":64,"events":[)" + e +
           "]}";
  };
  const Result<obs::FlightDump> valid = ParseCopy(dump_with("", ""));
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  AnalyzeEverything(*valid);
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"ts_us\":5", "\"ts_us\":9223372036854775808"},
           {"\"a\":2", "\"a\":-9223372036854775809"},
           {"\"node\":0", "\"node\":2147483648"},
           {"\"slot\":1", "\"slot\":-2147483649"},
           // Past the value bound: a difference of two could overflow.
           {"\"b\":4611686018427387903", "\"b\":-9223372036854775808"},
           {"\"b\":4611686018427387903", "\"b\":4611686018427387904"},
           {"\"ts_us\":5", "\"ts_us\":-1"},
           {"\"ts_us\":5", "\"ts_us\":\"5\""},
           {"\"a\":2", "\"a\":2.5"},
           {"task_finish", "gpu_submit"},
           {"\"seq\":1,", ""},
       }) {
    EXPECT_FALSE(ParseCopy(dump_with(from, to)).ok()) << to;
  }
  EXPECT_FALSE(
      ParseCopy(schema + R"(,"total_recorded":0,"capacity":64})").ok());
  // Only this build's schema is read, and the refusal names the schema to
  // re-dump with.
  const Result<obs::FlightDump> older =
      ParseCopy(with_schema(obs::kFlightDumpSchema - 1) + R"(,"events":[]})");
  ASSERT_FALSE(older.ok());
  EXPECT_NE(older.status().message().find(
                "reads schema " + std::to_string(obs::kFlightDumpSchema)),
            std::string::npos)
      << older.status().ToString();
  EXPECT_FALSE(
      ParseCopy(with_schema(obs::kFlightDumpSchema + 1) + R"(,"events":[]})")
          .ok());
  EXPECT_FALSE(ParseCopy(schema + R"(,"events":[],"extra":0})").ok());
  // Deep nesting, where a value, an event and an event field belong.
  const std::string deep(100000, '[');
  EXPECT_FALSE(ParseCopy(R"({"schema":)" + deep).ok());
  EXPECT_FALSE(ParseCopy(schema + R"(,"events":)" + deep).ok());
  EXPECT_FALSE(ParseCopy(schema + R"(,"events":[{"a":)" + deep).ok());
}

TEST(FlightRecorderTest, ParsedDumpAtTheValueBoundAnalyzesWithoutOverflow) {
  // Every sum the analyses take — stage spans, task time, wait edges, hop
  // durations, device windows, bytes and flops — over several values just
  // under kFlightValueLimit, which no int64 sum of two can hold.
  constexpr int64_t kMax = obs::kFlightValueLimit - 1;
  using Type = obs::FlightEventType;
  obs::FlightRecorder flight(64);
  flight.RecordAt(0, Type::kRunStart, -1, -1, kMax);
  for (int i = 0; i < 3; ++i) {
    flight.RecordAt(0, Type::kStageBegin, -1, -1, 0, 0, "multiply");
    flight.RecordAt(kMax, Type::kStageEnd, -1, -1, 0, 0, "multiply");
    // A task whose start fell off the ring, rebuilt as kMax - b = 0.
    flight.RecordAt(kMax, Type::kTaskFinish, 0, i, i, kMax);
    flight.RecordEdgeAt(kMax, obs::FlightEdgeKind::kFetchWait, 0, i, i, kMax);
    const int64_t tag = obs::PackGpuTag(0, kMax, kMax);
    flight.RecordAt(0, Type::kGpuH2dBegin, i, 0, kMax, tag);
    flight.RecordAt(kMax, Type::kGpuH2dEnd, i, 0, kMax, tag);
    flight.RecordAt(0, Type::kGpuKernelBegin, i, 0, kMax, tag);
    flight.RecordAt(kMax, Type::kGpuKernelEnd, i, 0, kMax, tag);
  }
  flight.RecordAt(kMax, Type::kRunFinish, -1, -1, kMax, 0);
  const Result<obs::FlightDump> dump = ParseCopy(flight.ToJson());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  AnalyzeEverything(*dump);
  const obs::RunAnalysis run = obs::AnalyzeRun(dump->events, 12.0 * kGiB);
  EXPECT_EQ(run.critical_path.stage_us.at("multiply"), obs::kFlightValueLimit);
  EXPECT_EQ(run.critical_path.aggregate_us.at("fetch_wait"),
            obs::kFlightValueLimit);
  EXPECT_EQ(run.gpu.run.h2d_bytes, obs::kFlightValueLimit);
  EXPECT_EQ(run.gpu.run.window_us(), obs::kFlightValueLimit);
}

TEST(FlightRecorderTest, DumpToFileWritesJson) {
  const std::string path = testing::TempDir() + "/flight_ring.json";
  obs::FlightRecorder flight(64);
  flight.Record(obs::FlightEventType::kTaskRetry, 0, 2, 7, 1);
  ASSERT_TRUE(flight.DumpToFile(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"task_retry\""), std::string::npos);
}

// value()/ValueOrDie() on an error Result aborts; with an installed fatal
// dump the flight-recorder ring must land on stderr before the process dies.
TEST(FlightRecorderDeathTest, FatalResultAccessDumpsTheRing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        obs::FlightRecorder flight(64);
        flight.InstallFatalDump();
        flight.Record(obs::FlightEventType::kTaskStart, 0, 1, 42, 0,
                      "doomed task");
        Result<int> r(Status::Internal("injected fatal"));
        (void)r.ValueOrDie();
      },
      "doomed task");
}

// --- Prometheus rendering ---------------------------------------------------

TEST(PrometheusExportTest, NameSanitization) {
  EXPECT_EQ(obs::PrometheusName("distme.task.seconds"),
            "distme_task_seconds");
  EXPECT_EQ(obs::PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::PrometheusName("ok_name:sub"), "ok_name:sub");
}

TEST(PrometheusExportTest, LabelValueEscaping) {
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusExportTest, RendersCounterGaugeHistogramFamilies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("distme.test.requests", {{"reason", "a\"b"}})->Add(3);
  registry.GetGauge("distme.test.depth")->Set(-2);
  obs::Histogram* hist = registry.GetHistogram("distme.test.seconds");
  hist->Observe(0.5);
  hist->Observe(3.0);

  const std::string text = obs::PrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE distme_test_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("distme_test_requests{reason=\"a\\\"b\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE distme_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("distme_test_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE distme_test_seconds histogram"),
            std::string::npos);
  // Cumulative buckets close with +Inf at the total count.
  EXPECT_NE(text.find("distme_test_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("distme_test_seconds_sum 3.5"), std::string::npos);
  EXPECT_NE(text.find("distme_test_seconds_count 2"), std::string::npos);
}

TEST(PrometheusExportTest, NonFiniteDoublesRenderAsExpositionTokens) {
  // Craft a snapshot point directly: a histogram whose sum overflowed to
  // +inf must render the exposition token, never a locale-dependent "inf".
  obs::MetricsSnapshot snapshot;
  obs::MetricPoint point;
  point.name = "distme.test.overflow";
  point.kind = obs::MetricKind::kHistogram;
  point.value = 1;
  point.sum = std::numeric_limits<double>::infinity();
  point.buckets.assign(obs::Histogram::kBuckets, 0);
  snapshot.points.push_back(point);

  const std::string text = obs::PrometheusText(snapshot);
  EXPECT_NE(text.find("distme_test_overflow_sum +Inf"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

// --- HTTP endpoint ----------------------------------------------------------

/// Issues one HTTP/1.0 request against 127.0.0.1:`port` and returns the raw
/// response (status line, headers, body). Empty string on connect failure.
std::string HttpRequest(int port, const std::string& path,
                        const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = method + " " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpEndpointTest, ServesHandlerOverLoopback) {
  obs::HttpEndpoint endpoint([](const std::string& path) {
    obs::HttpResponse response;
    if (path == "/hello") {
      response.body = "hello world\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  });
  ASSERT_TRUE(endpoint.Start(0).ok());  // ephemeral port
  ASSERT_GT(endpoint.port(), 0);
  EXPECT_TRUE(endpoint.running());

  const std::string ok = HttpRequest(endpoint.port(), "/hello");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("hello world"), std::string::npos);

  // Query strings are stripped before the handler sees the path.
  const std::string with_query =
      HttpRequest(endpoint.port(), "/hello?verbose=1");
  EXPECT_NE(with_query.find("hello world"), std::string::npos);

  const std::string missing = HttpRequest(endpoint.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post = HttpRequest(endpoint.port(), "/hello", "POST");
  EXPECT_NE(post.find("405"), std::string::npos);

  EXPECT_GE(endpoint.requests_served(), 4);
  endpoint.Stop();
  endpoint.Stop();  // idempotent
  EXPECT_FALSE(endpoint.running());
}

/// Sends raw bytes (not necessarily valid HTTP) to 127.0.0.1:`port`. When
/// `read_response` is false the socket is closed immediately after the send
/// — a client that vanished before the server could reply.
std::string RawRequest(int port, const std::string& bytes,
                       bool read_response = true) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string response;
  if (read_response) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

TEST(HttpEndpointTest, RejectsMalformedAndOversizedRequests) {
  obs::HttpEndpoint endpoint([](const std::string& path) {
    obs::HttpResponse response;
    if (path != "/hello") response.status = 404;
    response.body = path + "\n";
    return response;
  });
  ASSERT_TRUE(endpoint.Start(0).ok());

  // A request line with no method/path shape.
  const std::string garbage =
      RawRequest(endpoint.port(), "GARBAGE\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos);
  EXPECT_NE(garbage.find("malformed request line"), std::string::npos);

  // Headers that never terminate within the 8 KiB bound.
  const std::string oversized =
      RawRequest(endpoint.port(), std::string(9000, 'A'));
  EXPECT_NE(oversized.find("400"), std::string::npos);
  EXPECT_NE(oversized.find("request too large"), std::string::npos);

  // A method without a path ("GET" alone on the request line).
  const std::string no_path = RawRequest(endpoint.port(), "GET\r\n\r\n");
  EXPECT_NE(no_path.find("400"), std::string::npos);

  // A path that does not start with '/'.
  const std::string bad_path =
      RawRequest(endpoint.port(), "GET hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad_path.find("400"), std::string::npos);
  EXPECT_NE(bad_path.find("malformed request path"), std::string::npos);

  // Routing still works after the rejects, and unknown routes are 404.
  const std::string ok = HttpRequest(endpoint.port(), "/hello");
  EXPECT_NE(ok.find("200"), std::string::npos);
  const std::string missing = HttpRequest(endpoint.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  endpoint.Stop();
}

TEST(HttpEndpointTest, SurvivesClientDisconnectMidResponse) {
  // A response far larger than the socket buffers, so the server is still
  // writing when the client goes away (MSG_NOSIGNAL turns the would-be
  // SIGPIPE into a send error the serve loop absorbs).
  obs::HttpEndpoint endpoint([](const std::string&) {
    obs::HttpResponse response;
    response.body.assign(8 << 20, 'x');
    return response;
  });
  ASSERT_TRUE(endpoint.Start(0).ok());

  for (int i = 0; i < 3; ++i) {
    RawRequest(endpoint.port(), "GET /big HTTP/1.0\r\n\r\n",
               /*read_response=*/false);
  }

  // The accept thread must still be alive and serving.
  const std::string after = HttpRequest(endpoint.port(), "/again");
  EXPECT_NE(after.find("200"), std::string::npos);
  EXPECT_TRUE(endpoint.running());
  endpoint.Stop();
}

// --- Session end-to-end -----------------------------------------------------

core::Session::Options TelemetrySessionOptions() {
  core::Session::Options options;
  options.cluster = ClusterConfig::Local(2, 2);
  options.planner = std::make_shared<core::DistmePlanner>(
      mm::OptimizerOptions{.enforce_parallelism = false});
  return options;
}

GeneratorOptions Gen(int64_t rows, int64_t cols, uint64_t seed) {
  GeneratorOptions g;
  g.rows = rows;
  g.cols = cols;
  g.block_size = 8;
  g.sparsity = 1.0;
  g.seed = seed;
  return g;
}

TEST(SessionTelemetryTest, LiveScrapeServesPrometheusTextDuringARun) {
  core::Session::Options options = TelemetrySessionOptions();
  options.http_port = 0;  // ephemeral
  {
    core::Session session(options);
    ASSERT_GT(session.http_port(), 0);

    auto a = session.Generate(Gen(32, 24, 21));
    auto b = session.Generate(Gen(24, 16, 22));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(session.Multiply(*a, *b).ok());

    const std::string metrics = HttpRequest(session.http_port(), "/metrics");
    EXPECT_NE(metrics.find("200"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
    EXPECT_NE(metrics.find("distme_task_seconds"), std::string::npos);

    const std::string flight = HttpRequest(session.http_port(), "/flight");
    EXPECT_NE(flight.find("application/json"), std::string::npos);
    EXPECT_NE(flight.find("\"task_start\""), std::string::npos);

    const std::string health = HttpRequest(session.http_port(), "/healthz");
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string missing = HttpRequest(session.http_port(), "/missing");
    EXPECT_NE(missing.find("404"), std::string::npos);
  }
}

TEST(SessionTelemetryTest, ExplainRouteIs404UntilARunCompletes) {
  core::Session::Options options = TelemetrySessionOptions();
  options.http_port = 0;  // ephemeral
  core::Session session(options);
  ASSERT_GT(session.http_port(), 0);

  const std::string before = HttpRequest(session.http_port(), "/explain");
  EXPECT_NE(before.find("404"), std::string::npos);
  EXPECT_NE(before.find("no completed run yet"), std::string::npos);

  auto a = session.Generate(Gen(32, 24, 31));
  auto b = session.Generate(Gen(24, 16, 32));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(session.Multiply(*a, *b).ok());

  const std::string after = HttpRequest(session.http_port(), "/explain");
  EXPECT_NE(after.find("200"), std::string::npos);
  EXPECT_NE(after.find("application/json"), std::string::npos);
  EXPECT_NE(after.find("\"method\""), std::string::npos);
  EXPECT_NE(after.find("\"critical_path\""), std::string::npos);
}

TEST(SessionTelemetryTest, GpuRouteIs404UntilAGpuRunCompletes) {
  core::Session::Options options = TelemetrySessionOptions();
  options.http_port = 0;  // ephemeral
  options.mode = engine::ComputeMode::kGpuStreaming;
  core::Session session(options);
  ASSERT_GT(session.http_port(), 0);

  const std::string before = HttpRequest(session.http_port(), "/gpu");
  EXPECT_NE(before.find("404"), std::string::npos);
  EXPECT_NE(before.find("no run with GPU device events"), std::string::npos);

  auto a = session.Generate(Gen(32, 24, 41));
  auto b = session.Generate(Gen(24, 16, 42));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(session.Multiply(*a, *b).ok());

  const std::string after = HttpRequest(session.http_port(), "/gpu");
  EXPECT_NE(after.find("200"), std::string::npos);
  EXPECT_NE(after.find("application/json"), std::string::npos);
  EXPECT_NE(after.find("\"kernel_busy_us\""), std::string::npos);
  EXPECT_NE(after.find("\"overlap_ratio\""), std::string::npos);

  // The route serves the explain report's GPU section verbatim, so the two
  // surfaces cannot disagree.
  auto explain = session.ExplainLastRun();
  ASSERT_TRUE(explain.ok());
  ASSERT_TRUE(explain->has_gpu);
  EXPECT_NE(after.find(explain->gpu.ToJson()), std::string::npos);
}

// The distme.gpu.* overlap gauges of a GPU run are set from the analysis
// its explain report carries, so /metrics, /explain and /gpu agree. The
// second multiply checks that the gauges follow the latest run while the
// ring still holds the first.
TEST(SessionTelemetryTest, GpuOverlapGaugesEqualTheExplainAnalysis) {
  core::Session::Options options = TelemetrySessionOptions();
  options.mode = engine::ComputeMode::kGpuStreaming;
  core::Session session(options);
  for (const int64_t inner : {24, 40}) {
    auto a = session.Generate(Gen(32, inner, 51));
    auto b = session.Generate(Gen(inner, 16, 52));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(session.Multiply(*a, *b).ok());

    auto explain = session.ExplainLastRun();
    ASSERT_TRUE(explain.ok());
    ASSERT_TRUE(explain->has_gpu);
    const obs::OverlapReport& run = explain->gpu.run;
    ASSERT_GT(run.window_us(), 0);
    const obs::MetricsSnapshot metrics = session.metrics().Snapshot();
    EXPECT_EQ(metrics.TotalValue("distme.gpu.window_us"), run.window_us());
    EXPECT_EQ(metrics.TotalValue("distme.gpu.h2d_busy_us"), run.h2d_busy_us);
    EXPECT_EQ(metrics.TotalValue("distme.gpu.d2h_busy_us"), run.d2h_busy_us);
    EXPECT_EQ(metrics.TotalValue("distme.gpu.kernel_busy_us"),
              run.kernel_busy_us);
    EXPECT_EQ(metrics.TotalValue("distme.gpu.overlapped_us"),
              run.overlapped_us);
    EXPECT_EQ(metrics.TotalValue("distme.gpu.bubble_us"), run.bubble_us);
    EXPECT_EQ(metrics.TotalValue("distme.gpu.overlap_permille"),
              static_cast<int64_t>(run.overlap_ratio() * 1000.0));
    EXPECT_EQ(metrics.TotalValue("distme.gpu.effective_pcie_bytes_per_sec"),
              static_cast<int64_t>(run.effective_pcie_bytes_per_sec()));
    EXPECT_EQ(metrics.TotalValue("distme.gpu.occupancy_high_water_bytes"),
              explain->gpu.occupancy_high_water_bytes);
  }
}

TEST(SessionTelemetryTest, InjectedFailureDumpsFlightRecorder) {
  const std::string dump_path =
      testing::TempDir() + "/flight_failure_dump.json";
  std::remove(dump_path.c_str());

  core::Session::Options options = TelemetrySessionOptions();
  options.real.task_failure_rate = 1.0;  // every attempt crashes
  options.real.max_task_attempts = 2;
  options.flight_dump_path = dump_path;
  core::Session session(options);

  auto a = session.Generate(Gen(32, 24, 31));
  auto b = session.Generate(Gen(24, 16, 32));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(session.Multiply(*a, *b).ok());

  // The failed run dumped the ring: retries and the failed-run marker are in
  // the JSON post-mortem.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "expected flight dump at " << dump_path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"task_retry\""), std::string::npos);
  EXPECT_NE(contents.str().find("run failed"), std::string::npos);

  // The in-memory ring saw task starts and retries too.
  bool saw_retry = false;
  for (const obs::FlightEvent& e : session.flight().Snapshot()) {
    if (e.type == obs::FlightEventType::kTaskRetry) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
}

}  // namespace
}  // namespace distme
