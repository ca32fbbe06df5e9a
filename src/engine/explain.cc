#include "engine/explain.h"

#include <cstdio>

#include "common/units.h"
#include "obs/export.h"

namespace distme::engine {

namespace {

// Straggler stats from a task-duration histogram delta. Real runs observe
// distme.task.seconds; simulated runs observe distme.sim.task_seconds. Picks
// whichever actually moved between the two snapshots.
ExplainTaskStats TaskStatsFromSnapshots(const obs::MetricsSnapshot* before,
                                        const obs::MetricsSnapshot* after) {
  ExplainTaskStats stats;
  if (after == nullptr) return stats;
  for (const char* name : {"distme.task.seconds", "distme.sim.task_seconds"}) {
    const obs::MetricPoint* after_point = after->Find(name);
    if (after_point == nullptr) continue;
    const obs::MetricPoint* before_point =
        before != nullptr ? before->Find(name) : nullptr;
    const obs::HistogramDeltaStats delta =
        obs::HistogramDelta(*after_point, before_point);
    if (delta.count == 0) continue;
    stats.count = delta.count;
    stats.p50_seconds = delta.p50;
    stats.p95_seconds = delta.p95;
    stats.max_seconds = delta.max;
    stats.straggler_ratio = delta.p50 > 0 ? delta.p95 / delta.p50 : 0.0;
    break;
  }
  return stats;
}

void AppendRow(std::string* out, const char* stage, const char* predicted,
               const char* measured, const char* seconds) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-12s %14s %14s %12s\n", stage,
                predicted, measured, seconds);
  *out += buf;
}

}  // namespace

double ExplainReport::predicted_total_bytes() const {
  double total = 0;
  for (const ExplainStageRow& row : stages) {
    if (row.has_prediction) total += row.predicted_bytes;
  }
  return total;
}

double ExplainReport::measured_total_bytes() const {
  double total = 0;
  for (const ExplainStageRow& row : stages) total += row.measured_bytes;
  return total;
}

std::string ExplainReport::ToTable() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "explain: %s [%s] — %s in %s\n",
                method_name.c_str(), mode.c_str(), outcome.c_str(),
                FormatSeconds(elapsed_seconds).c_str());
  out += buf;
  AppendRow(&out, "stage", "predicted", "measured", "time");
  double time_total = 0;
  for (const ExplainStageRow& row : stages) {
    time_total += row.measured_seconds;
    AppendRow(&out, row.stage.c_str(),
              row.has_prediction ? FormatBytes(row.predicted_bytes).c_str()
                                 : "-",
              row.measured_bytes > 0 || row.has_prediction
                  ? FormatBytes(row.measured_bytes).c_str()
                  : "-",
              FormatSeconds(row.measured_seconds).c_str());
  }
  AppendRow(&out, "total", FormatBytes(predicted_total_bytes()).c_str(),
            FormatBytes(measured_total_bytes()).c_str(),
            FormatSeconds(time_total).c_str());
  std::snprintf(buf, sizeof(buf),
                "  tasks %lld (%lld retries) | p50 %s p95 %s max %s | "
                "straggler x%.2f\n",
                static_cast<long long>(tasks.count),
                static_cast<long long>(tasks.retries),
                FormatSeconds(tasks.p50_seconds).c_str(),
                FormatSeconds(tasks.p95_seconds).c_str(),
                FormatSeconds(tasks.max_seconds).c_str(),
                tasks.straggler_ratio);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  memory: predicted/task %s | measured peak %s\n",
                FormatBytes(predicted_task_memory_bytes).c_str(),
                FormatBytes(measured_peak_task_memory_bytes).c_str());
  out += buf;
  if (!comm.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "  comm: total %s | max link %s | %d active links | "
                  "skew %.2f\n",
                  FormatBytes(static_cast<double>(comm.TotalBytes())).c_str(),
                  FormatBytes(static_cast<double>(comm.MaxLinkBytes()))
                      .c_str(),
                  comm.ActiveLinks(), comm.SkewRatio());
    out += buf;
  }
  if (has_critical_path) {
    out += critical_path.ToText();
    // Consistency check: the causal path tiles the flight-recorded run, so
    // path length vs the executor's stopwatch flags clock or schema drift.
    std::snprintf(buf, sizeof(buf), "  path vs measured wall: %.1f%%\n",
                  elapsed_seconds > 0
                      ? 100.0 * static_cast<double>(critical_path.path_us) *
                            1e-6 / elapsed_seconds
                      : 0.0);
    out += buf;
  }
  if (has_pipeline) {
    const int64_t pops = pipeline.prefetch_hits + pipeline.prefetch_stalls;
    std::snprintf(buf, sizeof(buf),
                  "  pipeline: depth %lld | hits %lld/%lld (%.0f%%) | "
                  "stalled %s | backpressure %lld | queue high-water %lld\n",
                  static_cast<long long>(pipeline.prefetch_depth),
                  static_cast<long long>(pipeline.prefetch_hits),
                  static_cast<long long>(pops),
                  pops > 0 ? 100.0 * static_cast<double>(pipeline.prefetch_hits) /
                                 static_cast<double>(pops)
                           : 0.0,
                  FormatSeconds(pipeline.stall_seconds).c_str(),
                  static_cast<long long>(pipeline.backpressure_waits),
                  static_cast<long long>(pipeline.queue_high_water));
    out += buf;
  }
  if (has_gpu) out += gpu.ToText();
  return out;
}

std::string ExplainReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("method");
  w.Value(method_name);
  w.Key("mode");
  w.Value(mode);
  w.Key("outcome");
  w.Value(outcome);
  w.Key("elapsed_seconds");
  w.Value(elapsed_seconds);
  w.Key("predicted_total_bytes");
  w.Value(predicted_total_bytes());
  w.Key("measured_total_bytes");
  w.Value(measured_total_bytes());
  w.Key("predicted_task_memory_bytes");
  w.Value(predicted_task_memory_bytes);
  w.Key("measured_peak_task_memory_bytes");
  w.Value(measured_peak_task_memory_bytes);
  w.Key("stages");
  w.BeginArray();
  for (const ExplainStageRow& row : stages) {
    w.BeginObject();
    w.Key("stage");
    w.Value(row.stage);
    if (row.has_prediction) {
      w.Key("predicted_bytes");
      w.Value(row.predicted_bytes);
    }
    w.Key("measured_bytes");
    w.Value(row.measured_bytes);
    w.Key("measured_seconds");
    w.Value(row.measured_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.Key("tasks");
  w.BeginObject();
  w.Key("count");
  w.Value(tasks.count);
  w.Key("retries");
  w.Value(tasks.retries);
  w.Key("p50_seconds");
  w.Value(tasks.p50_seconds);
  w.Key("p95_seconds");
  w.Value(tasks.p95_seconds);
  w.Key("max_seconds");
  w.Value(tasks.max_seconds);
  w.Key("straggler_ratio");
  w.Value(tasks.straggler_ratio);
  w.EndObject();
  if (!comm.empty()) {
    w.Key("comm");
    comm.AppendJson(&w);
  }
  if (has_critical_path) {
    w.Key("critical_path");
    critical_path.AppendJson(&w);
    w.Key("critical_path_consistency");
    w.Value(elapsed_seconds > 0
                ? static_cast<double>(critical_path.path_us) * 1e-6 /
                      elapsed_seconds
                : 0.0);
  }
  if (has_pipeline) {
    w.Key("pipeline");
    w.BeginObject();
    w.Key("prefetch_depth");
    w.Value(pipeline.prefetch_depth);
    w.Key("prefetch_hits");
    w.Value(pipeline.prefetch_hits);
    w.Key("prefetch_stalls");
    w.Value(pipeline.prefetch_stalls);
    w.Key("stall_seconds");
    w.Value(pipeline.stall_seconds);
    w.Key("backpressure_waits");
    w.Value(pipeline.backpressure_waits);
    w.Key("queue_high_water");
    w.Value(pipeline.queue_high_water);
    w.EndObject();
  }
  if (has_gpu) {
    w.Key("gpu");
    gpu.AppendJson(&w);
  }
  w.EndObject();
  return w.str();
}

Result<ExplainReport> BuildExplainReport(const MMReport& report,
                                         const mm::Method& method,
                                         const mm::MMProblem& problem,
                                         const ClusterConfig& cluster,
                                         const ExplainObsInputs& obs) {
  DISTME_ASSIGN_OR_RETURN(const mm::AnalyticCost predicted,
                          method.Analytic(problem, cluster));

  ExplainReport explain;
  explain.method_name = report.method_name;
  explain.mode = ComputeModeName(report.mode);
  explain.outcome = report.outcome.ok() ? "OK" : report.OutcomeLabel();
  explain.elapsed_seconds = report.elapsed_seconds;
  explain.predicted_task_memory_bytes = predicted.memory_per_task_bytes;
  explain.measured_peak_task_memory_bytes = report.peak_task_memory_bytes;

  ExplainStageRow repartition;
  repartition.stage = "repartition";
  repartition.has_prediction = true;
  repartition.predicted_bytes =
      predicted.repartition_elements * static_cast<double>(kElementBytes);
  repartition.measured_bytes = report.repartition_bytes;
  repartition.measured_seconds = report.steps.repartition_seconds;
  explain.stages.push_back(repartition);

  ExplainStageRow multiply;
  multiply.stage = "multiply";
  multiply.measured_seconds = report.steps.multiply_seconds;
  explain.stages.push_back(multiply);

  ExplainStageRow aggregation;
  aggregation.stage = "aggregation";
  aggregation.has_prediction = true;
  // Eq. 4 charges R·|C| even when no aggregation step runs (R = 1 writes C
  // in place); predicted *shuffle* bytes are zero in that case.
  aggregation.predicted_bytes =
      method.NeedsAggregation(problem)
          ? predicted.aggregation_elements * static_cast<double>(kElementBytes)
          : 0.0;
  aggregation.measured_bytes = report.aggregation_bytes;
  aggregation.measured_seconds = report.steps.aggregation_seconds;
  explain.stages.push_back(aggregation);

  explain.tasks = TaskStatsFromSnapshots(obs.before, obs.after);
  if (explain.tasks.count == 0) explain.tasks.count = report.num_tasks;
  explain.tasks.retries = report.task_retries;

  explain.has_pipeline = report.pipeline.prefetch_depth > 0;
  explain.pipeline = report.pipeline;

  if (obs.comm_delta != nullptr) explain.comm = *obs.comm_delta;

  if (obs.flight_events != nullptr) {
    // The PCI-E peak comes from the cluster's hardware model (the roofline
    // the copies are measured against).
    obs::RunAnalysis run =
        obs::AnalyzeRun(*obs.flight_events, cluster.hw.pcie_bandwidth);
    explain.gpu = std::move(run.gpu);
    explain.has_gpu = !explain.gpu.empty();
    explain.critical_path = std::move(run.critical_path);
    explain.has_critical_path = explain.critical_path.path_us > 0;
  }
  return explain;
}

}  // namespace distme::engine
