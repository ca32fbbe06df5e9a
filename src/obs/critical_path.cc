#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/units.h"

namespace distme::obs {

namespace {

// Attribution bucket for a stage-barrier hop. Repartition and aggregation
// barriers are shuffle work; a multiply barrier (sim dispatch/sync slack)
// is compute; anything else is engine overhead.
const char* StageResource(const std::string& name) {
  if (name.find("repartition") != std::string::npos ||
      name.find("aggregat") != std::string::npos) {
    return "shuffle";
  }
  if (name.find("multiply") != std::string::npos) return "compute";
  return "overhead";
}

int64_t Clamp(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(v, hi));
}

// *sum += us, saturating: the sums run over a dump's events (FlightSum).
void Add(int64_t* sum, int64_t us) { *sum = FlightSum(*sum, us); }

// Splits the opaque "gpu" attribution bucket into {gpu-kernel, gpu-h2d,
// gpu-d2h, gpu-bubble} by the device-window fractions. Largest-remainder
// rounding keeps the split exact: the pieces sum to the original "gpu" µs,
// so path_us and the tiling invariant are untouched.
void SplitGpuAttribution(const GpuWindowFractions& f,
                         std::map<std::string, int64_t>* attribution) {
  const auto it = attribution->find("gpu");
  if (it == attribution->end() || it->second <= 0) return;
  const double fsum = f.kernel_bound + f.h2d_bound + f.d2h_bound + f.bubble;
  if (fsum <= 0.0) return;  // no window info: leave "gpu" opaque
  const int64_t total = it->second;
  attribution->erase(it);
  struct Part {
    const char* name;
    double frac;
    int64_t whole = 0;
    double remainder = 0.0;
  };
  Part parts[4] = {{"gpu-kernel", f.kernel_bound},
                   {"gpu-h2d", f.h2d_bound},
                   {"gpu-d2h", f.d2h_bound},
                   {"gpu-bubble", f.bubble}};
  int64_t assigned = 0;
  for (Part& p : parts) {
    const double exact = static_cast<double>(total) * (p.frac / fsum);
    p.whole = static_cast<int64_t>(exact);
    p.remainder = exact - static_cast<double>(p.whole);
    assigned += p.whole;
  }
  int64_t leftover = total - assigned;
  std::stable_sort(std::begin(parts), std::end(parts),
                   [](const Part& l, const Part& r) {
                     return l.remainder > r.remainder;
                   });
  for (Part& p : parts) {
    if (leftover <= 0) break;
    ++p.whole;
    --leftover;
  }
  for (const Part& p : parts) {
    if (p.whole > 0) (*attribution)[p.name] += p.whole;
  }
}

std::string Us(int64_t us) {
  return FormatSeconds(static_cast<double>(us) * 1e-6);
}

}  // namespace

std::string CriticalPathAnalysis::bottleneck() const {
  std::string best;
  int64_t best_us = -1;
  for (const auto& [resource, us] : attribution_us) {
    if (us > best_us) {
      best = resource;
      best_us = us;
    }
  }
  return best;
}

double CriticalPathAnalysis::bottleneck_fraction() const {
  if (path_us <= 0) return 0.0;
  const std::string top = bottleneck();
  const auto it = attribution_us.find(top);
  if (it == attribution_us.end()) return 0.0;
  return static_cast<double>(it->second) / static_cast<double>(path_us);
}

CriticalPathAnalysis AnalyzeCriticalPath(const CausalGraph& graph,
                                         const GpuWindowFractions* gpu_split) {
  CriticalPathAnalysis out;
  out.wall_us = graph.wall_us();
  out.run_ok = graph.run_ok;
  if (graph.run_finish_us <= graph.run_start_us) return out;

  // Tasks become ready at the multiply-stage barrier when the run has one
  // (sim emits stage barriers); otherwise at run start (the real executor
  // materializes every task up front).
  int64_t ready_base = graph.run_start_us;
  for (const CausalStage& s : graph.stages) {
    if (s.name.find("multiply") != std::string::npos) {
      ready_base = s.begin_us;
      break;
    }
  }

  // Per-task blocked-time decomposition. The components are defined so
  // they sum to the span identically: slot_wait is the pre-start wait,
  // fetch/gpu are the recorded edge totals clamped into the execution
  // interval, exec is the remainder.
  out.tasks.reserve(graph.tasks.size());
  for (const CausalTask& t : graph.tasks) {
    TaskBlockedTime b;
    b.task_id = t.task_id;
    b.node = t.node;
    b.slot = t.slot;
    b.start_us = t.start_us;
    b.finish_us = t.finish_us;
    b.ready_us = Clamp(ready_base, graph.run_start_us, t.start_us);
    const int64_t dur = std::max<int64_t>(0, t.finish_us - t.start_us);
    b.fetch_wait_us = Clamp(t.fetch_wait_us, 0, dur);
    b.gpu_wait_us = Clamp(t.gpu_wait_us, 0, dur - b.fetch_wait_us);
    b.exec_us = dur - b.fetch_wait_us - b.gpu_wait_us;
    b.slot_wait_us = t.start_us - b.ready_us;
    out.tasks.push_back(b);
    Add(&out.aggregate_us["slot_wait"], b.slot_wait_us);
    Add(&out.aggregate_us["fetch_wait"], b.fetch_wait_us);
    Add(&out.aggregate_us["gpu_wait"], b.gpu_wait_us);
    Add(&out.aggregate_us["exec"], b.exec_us);
  }
  for (const CausalStage& s : graph.stages) {
    Add(&out.stage_us[s.name], s.span_us());
  }

  // Per-slot task chains: tasks on one (node, slot) are serialized, so a
  // task's binding predecessor (beyond its ready time) is the previous
  // task to run on its slot.
  std::map<std::pair<int32_t, int32_t>, std::vector<size_t>> by_slot;
  for (size_t i = 0; i < out.tasks.size(); ++i) {
    by_slot[{out.tasks[i].node, out.tasks[i].slot}].push_back(i);
  }
  std::vector<int64_t> pred_finish(out.tasks.size(), -1);
  std::vector<int> pred_index(out.tasks.size(), -1);
  for (auto& [slot_key, indices] : by_slot) {
    std::sort(indices.begin(), indices.end(), [&](size_t l, size_t r) {
      return out.tasks[l].start_us < out.tasks[r].start_us;
    });
    for (size_t k = 1; k < indices.size(); ++k) {
      const TaskBlockedTime& prev = out.tasks[indices[k - 1]];
      const TaskBlockedTime& cur = out.tasks[indices[k]];
      if (prev.finish_us <= cur.start_us) {
        pred_finish[indices[k]] = prev.finish_us;
        pred_index[indices[k]] = static_cast<int>(indices[k - 1]);
      }
    }
  }

  // Reverse binding-predecessor walk. Each iteration explains the
  // interval ending at `cursor` with the latest-ending cause — a task
  // finish, a stage barrier, or (nothing recorded) engine overhead — and
  // moves the cursor to that cause's own start. The hops therefore tile
  // [run_start, run_finish] and path_us == wall_us by construction.
  std::vector<CriticalHop> rev;
  auto add_hop = [&rev](std::string label, std::string resource,
                        int64_t task_id, int64_t begin, int64_t end) {
    if (end <= begin) return;
    CriticalHop hop;
    hop.label = std::move(label);
    hop.resource = std::move(resource);
    hop.task_id = task_id;
    hop.begin_us = begin;
    hop.end_us = end;
    rev.push_back(std::move(hop));
  };
  // graph.tasks (and so out.tasks) are sorted by finish time: the latest
  // task finishing at or before an instant is found by binary search.
  auto latest_finished_before = [&](int64_t cursor) -> int {
    int best = -1;
    for (size_t i = 0; i < out.tasks.size(); ++i) {
      if (out.tasks[i].finish_us <= cursor) best = static_cast<int>(i);
    }
    return best;
  };

  int64_t cursor = graph.run_finish_us;
  while (cursor > graph.run_start_us) {
    const int64_t end = cursor;
    int ti = latest_finished_before(cursor);
    if (ti >= 0 && out.tasks[static_cast<size_t>(ti)].finish_us == cursor) {
      // Chain backwards through tasks: decompose this one, then jump to
      // its binding predecessor (same-slot chain or ready barrier).
      int i = ti;
      while (i >= 0) {
        const TaskBlockedTime& t = out.tasks[static_cast<size_t>(i)];
        const std::string id = std::to_string(t.task_id);
        const int64_t fetch_end = t.start_us + t.fetch_wait_us;
        const int64_t gpu_end = fetch_end + t.gpu_wait_us;
        add_hop("task " + id + " exec", "compute", t.task_id, gpu_end,
                t.finish_us);
        add_hop("task " + id + " gpu_wait", "gpu", t.task_id, fetch_end,
                gpu_end);
        add_hop("task " + id + " fetch_wait", "shuffle", t.task_id,
                t.start_us, fetch_end);
        const size_t ui = static_cast<size_t>(i);
        const int64_t bind = std::max(t.ready_us, pred_finish[ui]);
        add_hop("task " + id + " slot_wait", "scheduling", t.task_id, bind,
                t.start_us);
        cursor = bind;
        if (pred_index[ui] >= 0 && pred_finish[ui] >= t.ready_us &&
            pred_finish[ui] == bind) {
          i = pred_index[ui];
        } else {
          i = -1;
        }
      }
      if (cursor < end) continue;
      // Only tasks of no length (or negative, in a corrupt dump) end here
      // and bind at or after it: explain the time before them instead.
      cursor = end;
      ti = latest_finished_before(end - 1);
    }
    // Stage barrier covering the cursor (latest-beginning one wins).
    const CausalStage* stage = nullptr;
    for (const CausalStage& s : graph.stages) {
      if (s.begin_us < cursor && s.end_us >= cursor &&
          (stage == nullptr || s.begin_us > stage->begin_us)) {
        stage = &s;
      }
    }
    const int64_t t_finish =
        ti >= 0 ? out.tasks[static_cast<size_t>(ti)].finish_us : -1;
    if (stage != nullptr) {
      int64_t lo = std::max(stage->begin_us, graph.run_start_us);
      lo = std::max(lo, t_finish);
      if (lo < cursor) {
        add_hop("stage " + stage->name, StageResource(stage->name), -1, lo,
                cursor);
        cursor = lo;
        continue;
      }
    }
    // Nothing recorded explains this interval: engine overhead back to
    // the nearest recorded boundary (task finish, stage end, run start).
    int64_t lo = std::max(graph.run_start_us, t_finish);
    for (const CausalStage& s : graph.stages) {
      if (s.end_us < cursor && s.end_us > lo) lo = s.end_us;
    }
    if (lo >= cursor) lo = graph.run_start_us;  // force progress
    add_hop("overhead", "overhead", -1, lo, cursor);
    cursor = lo;
  }

  std::reverse(rev.begin(), rev.end());
  out.hops = std::move(rev);
  for (const CriticalHop& hop : out.hops) {
    Add(&out.attribution_us[hop.resource], hop.duration_us());
    Add(&out.path_us, hop.duration_us());
  }
  if (gpu_split != nullptr) {
    SplitGpuAttribution(*gpu_split, &out.attribution_us);
  }
  return out;
}

void CriticalPathAnalysis::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("wall_us");
  w->Value(wall_us);
  w->Key("path_us");
  w->Value(path_us);
  w->Key("run_ok");
  w->Value(run_ok);
  w->Key("bottleneck");
  w->Value(bottleneck());
  w->Key("bottleneck_fraction");
  w->Value(bottleneck_fraction());
  w->Key("attribution_us");
  w->BeginObject();
  for (const auto& [resource, us] : attribution_us) {
    w->Key(resource);
    w->Value(us);
  }
  w->EndObject();
  w->Key("stage_us");
  w->BeginObject();
  for (const auto& [name, us] : stage_us) {
    w->Key(name);
    w->Value(us);
  }
  w->EndObject();
  w->Key("aggregate_us");
  w->BeginObject();
  for (const auto& [kind, us] : aggregate_us) {
    w->Key(kind);
    w->Value(us);
  }
  w->EndObject();
  w->Key("hops");
  w->BeginArray();
  for (const CriticalHop& hop : hops) {
    w->BeginObject();
    w->Key("label");
    w->Value(hop.label);
    w->Key("resource");
    w->Value(hop.resource);
    w->Key("task_id");
    w->Value(hop.task_id);
    w->Key("begin_us");
    w->Value(hop.begin_us);
    w->Key("end_us");
    w->Value(hop.end_us);
    w->Key("duration_us");
    w->Value(hop.duration_us());
    w->EndObject();
  }
  w->EndArray();
  w->Key("tasks");
  w->BeginArray();
  for (const TaskBlockedTime& t : tasks) {
    w->BeginObject();
    w->Key("task_id");
    w->Value(t.task_id);
    w->Key("node");
    w->Value(t.node);
    w->Key("slot");
    w->Value(t.slot);
    w->Key("ready_us");
    w->Value(t.ready_us);
    w->Key("start_us");
    w->Value(t.start_us);
    w->Key("finish_us");
    w->Value(t.finish_us);
    w->Key("slot_wait_us");
    w->Value(t.slot_wait_us);
    w->Key("fetch_wait_us");
    w->Value(t.fetch_wait_us);
    w->Key("gpu_wait_us");
    w->Value(t.gpu_wait_us);
    w->Key("exec_us");
    w->Value(t.exec_us);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string CriticalPathAnalysis::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.str();
}

std::vector<const CriticalHop*> CriticalPathAnalysis::TopHops() const {
  std::vector<const CriticalHop*> top;
  top.reserve(hops.size());
  for (const CriticalHop& hop : hops) top.push_back(&hop);
  std::stable_sort(top.begin(), top.end(),
                   [](const CriticalHop* l, const CriticalHop* r) {
                     return l->duration_us() > r->duration_us();
                   });
  if (top.size() > kTopHops) top.resize(kTopHops);
  return top;
}

std::string CriticalPathAnalysis::ToText() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  critical path: %s, run %s, %zu task%s — bottleneck %s "
                "(%.0f%%)\n",
                Us(path_us).c_str(), run_ok ? "ok" : "FAILED", tasks.size(),
                tasks.size() == 1 ? "" : "s", bottleneck().c_str(),
                bottleneck_fraction() * 100.0);
  out += buf;
  std::string attribution = "  path attribution:";
  for (const auto& [resource, us] : attribution_us) {
    std::snprintf(buf, sizeof(buf), " %s %.0f%%", resource.c_str(),
                  100.0 * static_cast<double>(us) /
                      static_cast<double>(path_us));
    attribution += buf;
  }
  out += attribution + "\n";
  if (!stage_us.empty()) {
    std::string stages = "  stages:";
    for (const auto& [name, us] : stage_us) stages += " " + name + " " + Us(us);
    out += stages + "\n";
  }
  const std::vector<const CriticalHop*> top = TopHops();
  for (size_t i = 0; i < top.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "    hop %zu: %-24s [%s] %s\n", i + 1,
                  top[i]->label.c_str(), top[i]->resource.c_str(),
                  Us(top[i]->duration_us()).c_str());
    out += buf;
  }
  return out;
}

RunAnalysis AnalyzeRun(const std::vector<FlightEvent>& events,
                       double pcie_peak_bytes_per_sec) {
  RunAnalysis run;
  run.gpu = AnalyzeGpuTimeline(events, pcie_peak_bytes_per_sec);
  const GpuWindowFractions fractions = run.gpu.run.WindowFractions();
  run.critical_path =
      AnalyzeCriticalPath(BuildCausalGraph(events),
                          run.gpu.run.window_us() > 0 ? &fractions : nullptr);
  return run;
}

CriticalPathDiff DiffCriticalPaths(const CriticalPathAnalysis& before,
                                   const CriticalPathAnalysis& after) {
  CriticalPathDiff d;
  d.wall_before_us = before.wall_us;
  d.wall_after_us = after.wall_us;
  d.bottleneck_before = before.bottleneck();
  d.bottleneck_after = after.bottleneck();
  d.fraction_before = before.bottleneck_fraction();
  d.fraction_after = after.bottleneck_fraction();
  auto deltas = [](const std::map<std::string, int64_t>& b,
                   const std::map<std::string, int64_t>& a,
                   std::map<std::string, int64_t>* out) {
    for (const auto& [name, us] : b) Add(&(*out)[name], -us);
    for (const auto& [name, us] : a) Add(&(*out)[name], us);
  };
  deltas(before.attribution_us, after.attribution_us,
         &d.attribution_delta_us);
  deltas(before.stage_us, after.stage_us, &d.stage_delta_us);
  std::vector<std::string> top_before;
  std::vector<std::string> top_after;
  for (const CriticalHop* hop : before.TopHops()) {
    top_before.push_back(hop->label);
  }
  for (const CriticalHop* hop : after.TopHops()) {
    top_after.push_back(hop->label);
  }
  auto absent = [](const std::vector<std::string>& labels,
                   const std::string& label) {
    return std::find(labels.begin(), labels.end(), label) == labels.end();
  };
  for (const std::string& label : top_after) {
    if (absent(top_before, label)) d.hops_entered.push_back(label);
  }
  for (const std::string& label : top_before) {
    if (absent(top_after, label)) d.hops_left.push_back(label);
  }
  return d;
}

std::string CriticalPathDiff::ToText() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  wall: %s -> %s (%+.1f%%)\n"
                "  bottleneck: %s (%.0f%%) -> %s (%.0f%%) [%s]\n",
                Us(wall_before_us).c_str(), Us(wall_after_us).c_str(),
                wall_before_us > 0
                    ? 100.0 * static_cast<double>(wall_after_us) /
                              static_cast<double>(wall_before_us) -
                          100.0
                    : 0.0,
                bottleneck_before.c_str(), fraction_before * 100.0,
                bottleneck_after.c_str(), fraction_after * 100.0,
                stable() ? "stable" : "CHANGED");
  std::string out = buf;
  // One line per delta map: the non-zero entries, or "none".
  for (const auto& [title, deltas] :
       {std::pair{"attribution deltas", &attribution_delta_us},
        std::pair{"stage deltas", &stage_delta_us}}) {
    std::string moved;
    for (const auto& [name, us] : *deltas) {
      if (us != 0) moved += (moved.empty() ? " " : " | ") + name + " " +
                            (us < 0 ? "-" : "+") + Us(std::llabs(us));
    }
    out += std::string("  ") + title + ":" + (moved.empty() ? " none" : moved) +
           "\n";
  }
  std::string churn;
  for (const std::string& label : hops_entered) churn += " +[" + label + "]";
  for (const std::string& label : hops_left) churn += " -[" + label + "]";
  return out + "  top-hop churn:" + (churn.empty() ? " none" : churn) + "\n";
}

}  // namespace distme::obs
