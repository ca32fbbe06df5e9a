#include "run.h"

#include <algorithm>
#include <cstdio>

#include "host.h"

namespace perfbench {

using distme::Result;
using distme::Status;
using distme::core::Session;

Result<BoundWorkload> SetUp(const WorkloadConfig& config,
                            const Session::Options& options,
                            double* seconds) {
  BoundWorkload bound;
  bound.workload = MakeWorkload(config);
  if (bound.workload == nullptr) {
    return Status::Invalid("unknown workload " + config.name);
  }
  const double start = NowSeconds();
  bound.session = std::make_unique<Session>(options);
  DISTME_RETURN_NOT_OK(bound.workload->Generate(bound.session.get()));
  DISTME_RETURN_NOT_OK(bound.workload->RunOp(bound.session.get(), nullptr, -1));
  *seconds = NowSeconds() - start;
  return bound;
}

Result<RunOutcome> RunUntraced(const RunOptions& options) {
  const WorkloadConfig& config = options.workload;
  const std::unique_ptr<Workload> probe = MakeWorkload(config);
  if (probe == nullptr) return Status::Invalid("unknown workload " + config.name);
  const Session::Options session_options = probe->SessionOptions();

  // Set up several times and keep the last instance: the median is steadier
  // than one cold set-up, and the first one also pays process warm-up.
  const int setups = config.smoke ? 2 : 7;
  std::vector<double> setup_seconds;
  BoundWorkload bound;
  for (int s = 0; s < setups; ++s) {
    bound = BoundWorkload{};
    double seconds = 0.0;
    DISTME_ASSIGN_OR_RETURN(bound, SetUp(config, session_options, &seconds));
    setup_seconds.push_back(seconds);
  }
  Workload& workload = *bound.workload;
  if (!workload.CheckOp(false)) {
    return Status::Invalid("the warm-up op failed its oracle");
  }

  // Closed loop: one op after another on the same inputs until the summed
  // op wall reaches the budget. The oracle runs between ops, off the clock.
  RunOutcome outcome;
  std::vector<double> walls;
  double total = 0.0;
  while (total < options.seconds && outcome.attempted < 1000000) {
    const double start = NowSeconds();
    const Status status =
        workload.RunOp(bound.session.get(), nullptr, outcome.attempted);
    const double wall = NowSeconds() - start;
    const bool ok =
        status.ok() && workload.CheckOp(outcome.attempted == options.corrupt_op);
    if (!ok) ++outcome.failed;
    walls.push_back(wall);
    total += wall;
    ++outcome.attempted;
  }
  const double peak_rss = PeakRssMiB();
  if (!workload.CheckRun()) {
    outcome.failed = std::min(outcome.attempted, outcome.failed + 1);
  }

  double percentile = 0.0;
  int64_t beyond = 0;
  const double tail = TailValue(walls, &percentile, &beyond);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f, %lld of %zu samples beyond",
                percentile, static_cast<long long>(beyond), walls.size());
  const int64_t ok_ops = outcome.attempted - outcome.failed;
  outcome.metrics = {
      {"op_p50_ms", Median(walls) * 1e3, "ms",
       std::to_string(walls.size()) + " ops"},
      {"op_tail_ms", tail * 1e3, "ms", note},
      {"gflops",
       workload.UsefulFlopsPerOp() * static_cast<double>(ok_ops) / total /
           1e9,
       "GFLOP/s",
       "useful flops per op " +
           std::to_string(workload.UsefulFlopsPerOp() / 1e9) + " GFLOP"},
      {"setup_s", Median(setup_seconds), "s",
       "median of " + std::to_string(setups) + " set-ups"},
      {"peak_rss_mb", peak_rss, "MiB", ""},
      {"ok_ratio",
       static_cast<double>(ok_ops) / static_cast<double>(outcome.attempted),
       "ratio",
       "fail_ratio " + std::to_string(static_cast<double>(outcome.failed) /
                                      static_cast<double>(outcome.attempted))},
  };
  return outcome;
}

}  // namespace perfbench
