#include "obs/causal_graph.h"

#include <algorithm>
#include <unordered_map>

namespace distme::obs {

std::span<const FlightEvent> LastCompleteRun(
    std::span<const FlightEvent> events) {
  for (size_t finish = events.size(); finish-- > 0;) {
    if (events[finish].type != FlightEventType::kRunFinish) continue;
    for (size_t start = finish; start-- > 0;) {
      if (events[start].type == FlightEventType::kRunStart) {
        return events.subspan(start, finish - start + 1);
      }
    }
    break;
  }
  return {};
}

CausalGraph BuildCausalGraph(std::span<const FlightEvent> run) {
  CausalGraph graph;
  if (run.size() < 2 || run.front().type != FlightEventType::kRunStart ||
      run.back().type != FlightEventType::kRunFinish) {
    return graph;
  }
  graph.run_start_us = run.front().ts_us;
  graph.run_finish_us = run.back().ts_us;
  graph.planned_tasks = run.front().a;
  graph.run_ok = run.back().b == 0;

  std::unordered_map<int64_t, CausalTask> tasks;
  for (const FlightEvent& e : run) {
    switch (e.type) {
      case FlightEventType::kTaskStart: {
        CausalTask& t = tasks[e.a];
        t.task_id = e.a;
        t.node = e.node;
        t.slot = e.slot;
        t.start_us = e.ts_us;
        // A retry's fresh kTaskStart resets the per-attempt accumulators;
        // the analysis describes the attempt that actually finished.
        t.fetch_wait_us = 0;
        t.gpu_wait_us = 0;
        t.finish_us = 0;
        ++t.attempts;
        break;
      }
      case FlightEventType::kTaskFinish: {
        CausalTask& t = tasks[e.a];
        t.task_id = e.a;
        if (t.node < 0) t.node = e.node;
        if (t.slot < 0) t.slot = e.slot;
        t.finish_us = e.ts_us;
        if (t.attempts == 0) {
          // The attempt's start was overwritten by ring wrap; reconstruct
          // it from the duration the finish event carries in `b`.
          t.start_us = e.ts_us - e.b;
          t.attempts = 1;
        }
        break;
      }
      case FlightEventType::kFetchWait: {
        CausalTask& t = tasks[e.a];
        t.task_id = e.a;
        t.fetch_wait_us = FlightSum(t.fetch_wait_us, e.b);
        break;
      }
      case FlightEventType::kGpuWait: {
        CausalTask& t = tasks[e.a];
        t.task_id = e.a;
        t.gpu_wait_us = FlightSum(t.gpu_wait_us, e.b);
        break;
      }
      case FlightEventType::kStageBegin: {
        CausalStage stage;
        stage.name = e.detail != nullptr ? e.detail : "stage";
        stage.begin_us = e.ts_us;
        stage.end_us = 0;
        graph.stages.push_back(std::move(stage));
        break;
      }
      case FlightEventType::kStageEnd: {
        const std::string name = e.detail != nullptr ? e.detail : "stage";
        for (size_t s = graph.stages.size(); s-- > 0;) {
          if (graph.stages[s].name == name && graph.stages[s].end_us == 0) {
            graph.stages[s].end_us = e.ts_us;
            break;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  graph.tasks.reserve(tasks.size());
  for (auto& [id, t] : tasks) {
    if (t.finish_us == 0) continue;  // never finished (failed run tail)
    graph.tasks.push_back(t);
  }
  std::sort(graph.tasks.begin(), graph.tasks.end(),
            [](const CausalTask& l, const CausalTask& r) {
              if (l.finish_us != r.finish_us) return l.finish_us < r.finish_us;
              return l.task_id < r.task_id;
            });
  // Drop stages that never closed (truncated snapshot).
  graph.stages.erase(
      std::remove_if(graph.stages.begin(), graph.stages.end(),
                     [](const CausalStage& s) { return s.end_us == 0; }),
      graph.stages.end());
  return graph;
}

}  // namespace distme::obs
