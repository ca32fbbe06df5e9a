// The two kinds of benchmark run. The untraced run measures the end-to-end
// metrics; the traced run records spans around each layer's calls, replays
// every layer on the workload's own data, and reports the per-layer metrics.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, not part of the result
};

struct RunOutcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct RunOptions {
  WorkloadConfig workload;
  double seconds = 10.0;     ///< summed op wall time to measure
  int64_t corrupt_op = -1;   ///< self-test: perturb this op's checked output
  std::string trace_out;     ///< traced run: Chrome trace path
};

/// \brief A workload with its inputs generated in its own session.
struct BoundWorkload {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<distme::core::Session> session;
};

/// \brief Set-up as the end-to-end `setup_s` counts it: Session
/// construction, input generation and distribution, and one warm-up op.
/// The warm-up op is checked by the oracle after the clock stops.
[[nodiscard]] distme::Result<BoundWorkload> SetUp(
    const WorkloadConfig& config, const distme::core::Session::Options& options,
    double* seconds);

/// \brief End-to-end metrics, tracing off.
[[nodiscard]] distme::Result<RunOutcome> RunUntraced(const RunOptions& options);

/// \brief Per-layer metrics from spans and replays.
[[nodiscard]] distme::Result<RunOutcome> RunTraced(const RunOptions& options);

}  // namespace perfbench
