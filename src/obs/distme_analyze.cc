// distme_analyze: offline analysis of flight dumps (FlightRecorder::ToJson(),
// e.g. GET /flight or a bench's --flight-dump=).
//
//   distme_analyze run.json                      critical-path report
//   distme_analyze before.json after.json        run diff
//   distme_analyze run.json --gpu                GPU copy/compute overlap
//   distme_analyze run.json --timeline out.json  Chrome trace of the dump
//   --json prints the report's (or --gpu's) JSON instead of text.
//
// It runs obs::AnalyzeRun and the obs ToText() renderers, as explain, GET
// /explain and GET /gpu do, so the numbers match; the --gpu PCI-E peak is
// the HardwareModel default. Exit status: 0 = done; 1 = unreadable dump,
// no complete run, or (--gpu) no device intervals; 2 = bad usage.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"

namespace distme::obs {
namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "distme_analyze: %s\n"
               "usage: distme_analyze DUMP [--json]\n"
               "       distme_analyze DUMP_A DUMP_B\n"
               "       distme_analyze DUMP --gpu [--json]\n"
               "       distme_analyze DUMP --timeline PATH\n",
               why.c_str());
  return 2;
}

int Fail(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "distme_analyze: %s: %s\n", path.c_str(), why.c_str());
  return 1;
}

Result<FlightDump> Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  return ParseFlightDump(text.str());
}

int Main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool gpu = false;
  bool json = false;
  std::string timeline;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--gpu") {
      gpu = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--timeline") {
      if (++i == argc) return Usage("--timeline needs a path");
      timeline = argv[i];
    } else if (arg.starts_with("-")) {
      return Usage("unknown flag " + std::string(arg));
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty() || paths.size() > 2) {
    return Usage("expected one dump, or two to diff");
  }
  if (paths.size() == 2 && (gpu || json || !timeline.empty())) {
    return Usage("--gpu, --timeline and --json take one dump");
  }
  if (!timeline.empty() && (gpu || json)) {
    return Usage("--timeline takes neither --gpu nor --json");
  }

  std::vector<FlightDump> dumps;
  for (const std::string& path : paths) {
    Result<FlightDump> dump = Load(path);
    if (!dump.ok()) return Fail(path, dump.status().ToString());
    dumps.push_back(std::move(dump).value());
  }
  if (!timeline.empty()) {
    const FlightDump& dump = dumps[0];
    const Status written = WriteTextFile(
        timeline,
        ChromeTraceJson(dump.events, dump.total_recorded, dump.capacity));
    if (!written.ok()) return Fail(timeline, written.ToString());
    std::printf("distme_analyze: wrote the Chrome trace of %zu events to %s\n",
                dump.events.size(), timeline.c_str());
    return 0;
  }

  std::vector<RunAnalysis> runs;
  for (const FlightDump& dump : dumps) {
    runs.push_back(AnalyzeRun(dump.events, HardwareModel{}.pcie_bandwidth));
  }
  if (gpu) {
    if (runs[0].gpu.empty()) {
      return Fail(paths[0], "holds no GPU device interval events");
    }
    if (json) {
      std::printf("%s\n", runs[0].gpu.ToJson().c_str());
    } else {
      std::printf("distme_analyze: gpu %s\n%s", paths[0].c_str(),
                  runs[0].gpu.ToText().c_str());
    }
    return 0;
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].critical_path.wall_us <= 0) {
      return Fail(paths[i], "holds no complete run");
    }
  }
  if (runs.size() == 2) {
    std::printf("distme_analyze: diff %s -> %s\n%s", paths[0].c_str(),
                paths[1].c_str(),
                DiffCriticalPaths(runs[0].critical_path,
                                  runs[1].critical_path)
                    .ToText()
                    .c_str());
  } else if (json) {
    std::printf("%s\n", runs[0].critical_path.ToJson().c_str());
  } else {
    const FlightDump& dump = dumps[0];
    std::printf(
        "distme_analyze: %s\n  dump: schema %lld, %zu of %llu events "
        "retained (%llu dropped)\n%s",
        paths[0].c_str(), static_cast<long long>(dump.schema),
        dump.events.size(),
        static_cast<unsigned long long>(dump.total_recorded),
        static_cast<unsigned long long>(dump.dropped()),
        runs[0].critical_path.ToText().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace distme::obs

int main(int argc, char** argv) { return distme::obs::Main(argc, argv); }
