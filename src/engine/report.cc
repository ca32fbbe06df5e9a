#include "engine/report.h"

#include "common/units.h"

namespace distme::engine {

const char* ComputeModeName(ComputeMode mode) {
  switch (mode) {
    case ComputeMode::kCpu:
      return "CPU";
    case ComputeMode::kGpuStreaming:
      return "GPU-streaming";
    case ComputeMode::kGpuBlock:
      return "GPU-block";
  }
  return "?";
}

std::string MMReport::OutcomeLabel() const {
  if (outcome.ok()) return FormatSeconds(elapsed_seconds);
  switch (outcome.code()) {
    case StatusCode::kOutOfMemory:
      return "O.O.M.";
    case StatusCode::kTimeout:
      return "T.O.";
    case StatusCode::kExceedsDiskCapacity:
      return "E.D.C.";
    default:
      return outcome.ToString();
  }
}

void SetCommGauges(const obs::CommMatrixSnapshot& comm,
                   obs::MetricsRegistry* metrics) {
  metrics->GetGauge("distme.comm.max_link_bytes")->Set(comm.MaxLinkBytes());
  metrics->GetGauge("distme.comm.skew_permille")
      ->Set(static_cast<int64_t>(comm.SkewRatio() * 1000.0));
  metrics->GetGauge("distme.comm.active_links")->Set(comm.ActiveLinks());
}

}  // namespace distme::engine
