// distme_perfbench: wall-clock benchmark of DistME through its public
// Session API. See perfbench/README.md for the workloads and metrics.
//
//   distme_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--corrupt-op <i>] [--trace-out <path>]
//
// Prints one line per metric, then as its last line one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// Exits 1 when any op fails or gives a wrong result, 2 on a usage or
// set-up error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "run.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "distme_perfbench: %s\nusage: distme_perfbench --workload "
               "<dense-square|sparse-common-dim|gnmf-gpu> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt-op <i>] "
               "[--trace-out <path>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.workload.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload.name = value;
    } else if (arg == "--seed") {
      options.workload.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--corrupt-op") {
      options.corrupt_op = std::strtoll(value, &end, 10);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.workload.name.empty() || (trace != 0 && trace != 1) ||
      !(options.seconds > 0.0)) {
    return Usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }

  std::printf("# host: %s\n", perfbench::HostFingerprint().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.name.c_str(),
              static_cast<unsigned long long>(options.workload.seed),
              options.seconds, trace, options.workload.smoke ? " smoke" : "");
  std::fflush(stdout);

  const distme::Result<perfbench::RunOutcome> result =
      trace == 1 ? perfbench::RunTraced(options)
                 : perfbench::RunUntraced(options);
  if (!result.ok()) {
    std::fprintf(stderr, "distme_perfbench: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const perfbench::RunOutcome& outcome = *result;
  std::string json;
  for (const perfbench::Metric& m : outcome.metrics) {
    std::printf("%-32s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    json += entry;
  }
  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), json.c_str());
  return correct ? 0 : 1;
}
