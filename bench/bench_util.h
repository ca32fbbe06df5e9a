// Shared helpers for the figure/table reproduction benches: aligned table
// printing with paper-reported reference values next to measured ones.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"
#include "engine/report.h"
#include "obs/comm_matrix.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"

namespace distme::bench {

/// \brief Prints a section banner.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// \brief Per-binary observability wiring, shared by every bench binary.
///
/// Parses three flags from argv:
///   --trace-out=<path>    on destruction, write the flight ring as Chrome
///                         trace-event JSON to <path> (load in
///                         chrome://tracing or ui.perfetto.dev — one
///                         process track per simulated node, one thread
///                         track per task slot, a driver track for runs
///                         and stages); the ring then holds kTraceEvents
///                         events instead of 4096, so a bench run fits;
///   --metrics-out=<path>  on destruction, dump the owned metrics registry
///                         as a JSON array of metric points;
///   --bench-json=<path>   on destruction, write the results registered via
///                         AddResult() as machine-readable JSON (consumed
///                         by scripts/bench_baseline.py).
///
/// Live-telemetry flags:
///   --http-port=<port>        serve Prometheus text at
///                             http://127.0.0.1:<port>/metrics while the
///                             bench runs (0 = ephemeral, printed at start);
///   --flight-dump=<path>      on destruction, dump the flight-recorder
///                             ring (JSON) to <path>; failed executor runs
///                             also dump there immediately.
/// Without the flags nothing is written; the flight recorder itself is
/// always on.
class BenchObs {
 public:
  /// Ring capacity under --trace-out=: the largest bench run
  /// (bench_validation_real, ~5k events) must fit without a drop.
  static constexpr size_t kTraceEvents = size_t{1} << 16;

  BenchObs(int argc, char** argv)
      : bench_name_(BaseName(argc, argv)),
        trace_out_(FlagValue(argc, argv, "--trace-out=")),
        flight_(trace_out_.empty() ? 4096 : kTraceEvents) {
    std::string http_port;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      MatchFlag(arg, "--metrics-out=", &metrics_out_);
      MatchFlag(arg, "--bench-json=", &bench_json_out_);
      MatchFlag(arg, "--http-port=", &http_port);
      MatchFlag(arg, "--flight-dump=", &flight_dump_);
    }
    flight_.InstallFatalDump();
    if (!http_port.empty()) {
      endpoint_ = std::make_unique<obs::HttpEndpoint>(
          [this](const std::string& path) {
            obs::HttpResponse r;
            if (path == "/metrics" || path == "/") {
              r.content_type = "text/plain; version=0.0.4; charset=utf-8";
              r.body = obs::PrometheusText(metrics_.Snapshot());
            } else if (path == "/flight") {
              r.content_type = "application/json";
              r.body = flight_.ToJson();
            } else if (path == "/healthz") {
              r.body = "ok\n";
            } else {
              r.status = 404;
              r.body = "not found\n";
            }
            return r;
          });
      const Status st = endpoint_->Start(std::atoi(http_port.c_str()));
      if (st.ok()) {
        std::printf("telemetry: curl http://127.0.0.1:%d/metrics\n",
                    endpoint_->port());
      } else {
        std::printf("telemetry endpoint disabled: %s\n",
                    st.ToString().c_str());
        endpoint_.reset();
      }
    }
  }

  ~BenchObs() {
    // Consumers of the registry/ring stop before anything is torn down
    // (same ordering contract as core::Session).
    if (endpoint_ != nullptr) endpoint_->Stop();
    if (!flight_dump_.empty()) {
      const Status st = flight_.DumpToFile(flight_dump_);
      if (st.ok()) {
        std::printf("\nflight recorder dumped to %s\n", flight_dump_.c_str());
      } else {
        std::printf("\nflight dump failed: %s\n", st.ToString().c_str());
      }
    }
    flight_.UninstallFatalDump();
    if (!trace_out_.empty()) {
      const Status st = obs::WriteTextFile(
          trace_out_,
          obs::ChromeTraceJson(flight_.Snapshot(), flight_.TotalRecorded(),
                               flight_.capacity()));
      if (st.ok()) {
        std::printf("\ntrace written to %s (open in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    trace_out_.c_str());
      } else {
        std::printf("\ntrace write failed: %s\n", st.ToString().c_str());
      }
    }
    if (!metrics_out_.empty()) {
      const Status st = obs::WriteTextFile(
          metrics_out_, obs::MetricsJson(metrics_.Snapshot()));
      if (st.ok()) {
        std::printf("\nmetrics written to %s\n", metrics_out_.c_str());
      } else {
        std::printf("\nmetrics write failed: %s\n", st.ToString().c_str());
      }
    }
    if (!bench_json_out_.empty()) {
      const Status st = obs::WriteTextFile(bench_json_out_, ResultsJson());
      if (st.ok()) {
        std::printf("\nbench results written to %s\n",
                    bench_json_out_.c_str());
      } else {
        std::printf("\nbench results write failed: %s\n",
                    st.ToString().c_str());
      }
    }
  }

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::CommMatrix* comm() { return &comm_; }
  obs::FlightRecorder* flight() { return &flight_; }
  /// \brief Bound scrape port, or -1 when --http-port was not given.
  int http_port() const {
    return endpoint_ != nullptr ? endpoint_->port() : -1;
  }

  /// \brief Registers one named measurement for --bench-json output. Keys
  /// should be stable across runs (they become baseline-comparison keys).
  void AddResult(const std::string& key, double value) {
    results_.emplace_back(key, value);
  }

  /// \brief {"bench": <name>, "results": {key: value, ...}}.
  std::string ResultsJson() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.Value(bench_name_);
    w.Key("results");
    w.BeginObject();
    for (const auto& [key, value] : results_) {
      w.Key(key);
      w.Value(value);
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

  /// \brief Copies the obs sinks into an executor options struct (any type
  /// with `metrics` / `comm` / `flight` members, i.e. RealOptions and
  /// SimOptions). RealOptions additionally gets the --flight-dump path so a
  /// failed run drops its post-mortem immediately.
  template <typename Options>
  void Wire(Options* options) {
    options->metrics = &metrics_;
    options->comm = &comm_;
    if constexpr (requires { options->flight; }) {
      options->flight = &flight_;
    }
    if constexpr (requires { options->flight_dump_path; }) {
      options->flight_dump_path = flight_dump_;
    }
  }

  /// \brief argv with the obs flags removed, for delegating the rest to a
  /// flag parser that rejects unknown flags (google-benchmark).
  static std::vector<char*> StripFlags(int argc, char** argv) {
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (i > 0 && (IsFlag(arg, "--trace-out=") ||
                    IsFlag(arg, "--metrics-out=") ||
                    IsFlag(arg, "--bench-json=") ||
                    IsFlag(arg, "--http-port=") ||
                    IsFlag(arg, "--flight-dump="))) {
        continue;
      }
      args.push_back(argv[i]);
    }
    return args;
  }

 private:
  static bool IsFlag(std::string_view arg, std::string_view flag) {
    return arg.substr(0, flag.size()) == flag;
  }

  static void MatchFlag(std::string_view arg, std::string_view flag,
                        std::string* out) {
    if (IsFlag(arg, flag)) *out = std::string(arg.substr(flag.size()));
  }

  static std::string FlagValue(int argc, char** argv, std::string_view flag) {
    std::string value;
    for (int i = 1; i < argc; ++i) MatchFlag(argv[i], flag, &value);
    return value;
  }

  static std::string BaseName(int argc, char** argv) {
    if (argc < 1 || argv[0] == nullptr) return "bench";
    const std::string_view path = argv[0];
    const size_t slash = path.find_last_of('/');
    return std::string(slash == std::string_view::npos
                           ? path
                           : path.substr(slash + 1));
  }

  std::string bench_name_;
  std::string trace_out_;
  std::string metrics_out_;
  std::string bench_json_out_;
  std::string flight_dump_;
  std::vector<std::pair<std::string, double>> results_;
  obs::MetricsRegistry metrics_;
  obs::CommMatrix comm_;
  obs::FlightRecorder flight_;
  std::unique_ptr<obs::HttpEndpoint> endpoint_;
};

/// \brief A paper-reported cell: a number, a failure label, or absent.
struct PaperValue {
  enum class Kind { kNumber, kOom, kTimeout, kEdc, kNone, kApprox };
  Kind kind = Kind::kNone;
  double value = 0;

  static PaperValue Num(double v) { return {Kind::kNumber, v}; }
  /// Approximate reading from a log-scale figure.
  static PaperValue Approx(double v) { return {Kind::kApprox, v}; }
  static PaperValue Oom() { return {Kind::kOom, 0}; }
  static PaperValue To() { return {Kind::kTimeout, 0}; }
  static PaperValue Edc() { return {Kind::kEdc, 0}; }
  static PaperValue None() { return {Kind::kNone, 0}; }

  std::string ToString(const char* unit = "s") const {
    char buf[64];
    switch (kind) {
      case Kind::kNumber:
        std::snprintf(buf, sizeof(buf), "%.0f%s", value, unit);
        return buf;
      case Kind::kApprox:
        std::snprintf(buf, sizeof(buf), "~%.0f%s", value, unit);
        return buf;
      case Kind::kOom:
        return "O.O.M.";
      case Kind::kTimeout:
        return "T.O.";
      case Kind::kEdc:
        return "E.D.C.";
      case Kind::kNone:
        return "-";
    }
    return "-";
  }

  /// \brief True when the measured outcome agrees in kind (ran vs failed the
  /// same way, numbers within a factor `tolerance`).
  bool Matches(const engine::MMReport& report, double measured,
               double tolerance = 3.0) const {
    switch (kind) {
      case Kind::kNumber:
      case Kind::kApprox:
        return report.outcome.ok() && measured > 0 &&
               measured / value < tolerance && value / measured < tolerance;
      case Kind::kOom:
        return report.outcome.IsOutOfMemory();
      case Kind::kTimeout:
        return report.outcome.IsTimeout();
      case Kind::kEdc:
        return report.outcome.IsExceedsDiskCapacity();
      case Kind::kNone:
        return true;
    }
    return false;
  }
};

/// \brief Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);

    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("| ");
      for (size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : std::string();
        std::printf("%-*s | ", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::printf("|");
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// \brief Formats a measured report cell: elapsed time or failure label.
inline std::string MeasuredCell(const engine::MMReport& report) {
  return report.OutcomeLabel();
}

/// \brief "123.4s (paper ~206s)" composite cell.
inline std::string Compare(const engine::MMReport& report,
                           const PaperValue& paper, const char* unit = "s") {
  return MeasuredCell(report) + " [paper " + paper.ToString(unit) + "]";
}

}  // namespace distme::bench
