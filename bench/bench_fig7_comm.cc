// Figure 7(f): shuffled data volume of MatFast, SystemML and DistME on four
// representative inputs. Our raw bytes vs the paper's post-serialization
// report — compare cross-system ratios.
//
// Doubles as the comm-matrix consistency check: for every run, the per-link
// CommMatrix totals must match the report's shuffle bytes, and DistME's
// measured volume must agree with its planner's Table-2 analytic cost.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "systems/profiles.h"

int main(int argc, char** argv) {
  using namespace distme;
  bench::BenchObs obs(argc, argv);
  ClusterConfig cluster = ClusterConfig::Paper();
  cluster.timeout_seconds = 1e9;

  struct Point {
    const char* label;
    mm::MMProblem problem;
    // Paper GB for MatFast / SystemML / DistME (approximate bar readings).
    bench::PaperValue paper[3];
  };
  auto dense = [](int64_t i, int64_t k, int64_t j) {
    return mm::MMProblem::DenseSquareBlocks(i, k, j, 1000);
  };
  mm::MMProblem sparse = dense(500000, 1000000, 1000);
  sparse.a.sparsity = 1e-4;
  sparse.a.stored_dense = false;

  const auto n = bench::PaperValue::Approx;
  const auto oom = bench::PaperValue::Oom;
  Point points[] = {
      {"40Kx40Kx40K", dense(40000, 40000, 40000),
       {oom(), n(962), n(168)}},
      {"5Kx5Mx5K", dense(5000, 5000000, 5000), {n(1306), n(576), n(391)}},
      {"1Mx1Kx1M", dense(1000000, 1000, 1000000),
       {oom(), n(2170), n(682)}},
      {"500Kx1Mx1K (1e-4)", sparse, {n(493), n(296), n(102)}},
  };

  bench::Banner("Figure 7(f) — shuffled data volume");
  bench::Table table({"input", "MatFast", "SystemML", "DistME",
                      "SystemML/DistME ratio (paper)"});
  systems::SystemProfile profiles[3] = {
      systems::MatFast(false), systems::SystemML(false),
      systems::DistME(false)};
  for (auto& profile : profiles) obs.Wire(&profile.sim);

  bool consistent = true;
  for (const Point& pt : points) {
    std::vector<std::string> row = {pt.label};
    double values[3] = {0, 0, 0};
    for (int s = 0; s < 3; ++s) {
      auto report = systems::RunMultiply(profiles[s], pt.problem, cluster);
      if (!report.ok()) {
        row.push_back(report.status().ToString());
        continue;
      }
      values[s] = report->total_shuffle_bytes();
      const std::string key_prefix = std::string("fig7f/") + pt.label + "/" +
                                     profiles[s].name + "/";
      obs.AddResult(key_prefix + "shuffle_bytes", values[s]);
      if (report->outcome.ok()) {
        obs.AddResult(key_prefix + "elapsed_seconds",
                      report->elapsed_seconds);
      }

      // Comm-matrix consistency: the run's per-link spread must add back
      // up to the report's shuffle totals (the spread rounds per node,
      // hence the small absolute slack).
      const obs::CommMatrixSnapshot& comm = report->comm;
      const double comm_total = static_cast<double>(comm.TotalBytes());
      const double slack =
          0.01 * values[s] +
          static_cast<double>(report->num_tasks + 1) * cluster.num_nodes;
      if (std::abs(comm_total - values[s]) > slack) {
        std::printf("comm-model check FAILED: %s/%s comm matrix %s vs "
                    "report %s\n",
                    pt.label, profiles[s].name.c_str(),
                    FormatBytes(comm_total).c_str(),
                    FormatBytes(values[s]).c_str());
        consistent = false;
      }
      if (s == 2) {  // DistME(C)
        // DistME's measured volume vs its planner's Table-2 closed form.
        auto method = profiles[s].planner->Choose(pt.problem, cluster);
        if (method.ok()) {
          auto cost = (*method)->Analytic(pt.problem, cluster);
          if (cost.ok()) {
            // Aggregation shuffle only happens when the method needs the
            // aggregation step (Eq. 4's R·|C| term is charged even for
            // R = 1, where C is written in place).
            const double predicted =
                (cost->repartition_elements +
                 ((*method)->NeedsAggregation(pt.problem)
                      ? cost->aggregation_elements
                      : 0.0)) *
                kElementBytes;
            if (predicted > 0 && comm_total > 0 &&
                (comm_total / predicted > 3.0 ||
                 predicted / comm_total > 3.0)) {
              std::printf("comm-model check FAILED: %s DistME comm %s vs "
                          "Table-2 prediction %s\n",
                          pt.label, FormatBytes(comm_total).c_str(),
                          FormatBytes(predicted).c_str());
              consistent = false;
            }
          }
        }
        std::printf("%s DistME comm: total %s | max link %s | "
                    "%d active links | skew %.2f\n",
                    pt.label,
                    FormatBytes(comm_total).c_str(),
                    FormatBytes(static_cast<double>(comm.MaxLinkBytes()))
                        .c_str(),
                    comm.ActiveLinks(), comm.SkewRatio());
      }
      std::string cell = report->outcome.ok()
                             ? FormatBytes(values[s])
                             : report->OutcomeLabel();
      row.push_back(cell + " [paper " + pt.paper[s].ToString("GB") + "]");
    }
    char ratio[64];
    if (values[1] > 0 && values[2] > 0) {
      std::snprintf(ratio, sizeof(ratio), "%.2fx", values[1] / values[2]);
    } else {
      std::snprintf(ratio, sizeof(ratio), "-");
    }
    std::string paper_ratio =
        pt.paper[1].kind == bench::PaperValue::Kind::kApprox &&
                pt.paper[2].kind == bench::PaperValue::Kind::kApprox
            ? std::to_string(pt.paper[1].value / pt.paper[2].value)
            : std::string("-");
    row.push_back(std::string(ratio) + " (paper " +
                  paper_ratio.substr(0, 4) + "x)");
    table.AddRow(row);
  }
  table.Print();
  if (!consistent) return 1;
  std::printf("\ncomm-model check: OK\n");
  return 0;
}
