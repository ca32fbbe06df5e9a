#include "engine/report.h"

#include "common/units.h"
#include "obs/export.h"

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

std::string RunReportJson(const MMReport& report,
                          const obs::MetricsSnapshot* metrics) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("outcome");
  w.Value(report.outcome.ok() ? "ok" : report.OutcomeLabel());
  if (!report.outcome.ok()) {
    w.Key("error");
    w.Value(report.outcome.ToString());
  }
  w.Key("method");
  w.Value(report.method_name);
  w.Key("mode");
  w.Value(ComputeModeName(report.mode));
  w.Key("elapsed_seconds");
  w.Value(report.elapsed_seconds);
  w.Key("steps");
  w.BeginObject();
  w.Key("repartition_seconds");
  w.Value(report.steps.repartition_seconds);
  w.Key("multiply_seconds");
  w.Value(report.steps.multiply_seconds);
  w.Key("aggregation_seconds");
  w.Value(report.steps.aggregation_seconds);
  w.EndObject();
  w.Key("repartition_bytes");
  w.Value(report.repartition_bytes);
  w.Key("aggregation_bytes");
  w.Value(report.aggregation_bytes);
  w.Key("total_shuffle_bytes");
  w.Value(report.total_shuffle_bytes());
  w.Key("num_tasks");
  w.Value(report.num_tasks);
  w.Key("task_retries");
  w.Value(report.task_retries);
  if (metrics != nullptr) {
    // Labeled retry breakdown, e.g. {"injected_crash": 7}.
    w.Key("task_retries_by_reason");
    w.BeginObject();
    for (const obs::MetricPoint& point : metrics->points) {
      if (point.name != "distme.task.retries") continue;
      for (const auto& [key, value] : point.labels) {
        if (key == "reason") {
          w.Key(value);
          w.Value(point.value);
        }
      }
    }
    w.EndObject();
  }
  w.Key("peak_task_memory_bytes");
  w.Value(report.peak_task_memory_bytes);
  w.Key("total_flops");
  w.Value(report.total_flops);
  w.Key("pcie_bytes");
  w.Value(report.pcie_bytes);
  w.Key("gpu_utilization");
  w.Value(report.gpu_utilization);
  if (report.pipeline.prefetch_depth > 0) {
    w.Key("pipeline");
    w.BeginObject();
    w.Key("prefetch_depth");
    w.Value(report.pipeline.prefetch_depth);
    w.Key("prefetch_hits");
    w.Value(report.pipeline.prefetch_hits);
    w.Key("prefetch_stalls");
    w.Value(report.pipeline.prefetch_stalls);
    w.Key("stall_seconds");
    w.Value(report.pipeline.stall_seconds);
    w.Key("backpressure_waits");
    w.Value(report.pipeline.backpressure_waits);
    w.Key("queue_high_water");
    w.Value(report.pipeline.queue_high_water);
    w.EndObject();
  }
  if (metrics != nullptr) {
    w.Key("metrics");
    obs::AppendMetricsJson(*metrics, &w);
  }
  w.EndObject();
  return w.str();
}

}  // namespace distme::engine
