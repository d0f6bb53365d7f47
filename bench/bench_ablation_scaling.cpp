// Ablation: system-size scaling.
//
// The paper fixes a 33-group, 1,056-node system. Dragonfly's routing
// behaviour depends on group count (path diversity grows with g): this
// bench repeats the FFT3D+Halo3D pairwise experiment on balanced systems of
// 9, 17 and 33 groups (a*h must be a multiple of g-1, so these are the
// shapes that keep one global link per group pair with a=8, h=4) and on
// multi-seed repetitions, reporting mean +/- 95% CI per cell. Emits
// scaling_interference.svg.

#include <cstdio>

#include "bench_common.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "viz/ascii.hpp"
#include "viz/charts.hpp"

namespace {

using namespace dfly;

SweepStat run_cell(const bench::Options& options, const std::string& routing, int groups,
                   int repetitions) {
  std::vector<Report> reports;
  std::vector<std::function<Report()>> tasks;
  for (int repetition = 0; repetition < repetitions; ++repetition) {
    StudyConfig config = options.config(routing);
    config.topo = DragonflyParams{4, 8, 4, groups};
    config.seed = options.seed + static_cast<std::uint64_t>(repetition);
    tasks.push_back([config]() -> Report {
      Study study(config);
      const int half = config.topo.num_nodes() / 2;
      study.add_app("FFT3D", half);
      study.add_app("Halo3D", half);
      return study.run();
    });
  }
  reports = bench::parallel_map(tasks);
  const SweepSummary summary = aggregate_sweep(reports);
  return summary.app("FFT3D").comm_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv, 64);
  bench::print_header("ABLATION: group-count scaling (FFT3D interfered by Halo3D)");
  std::printf("Systems: g=9 (288 nodes), g=17 (544), g=33 (1,056); a=8 h=4 p=4.\n\n");

  const std::vector<int> group_counts{9, 17, 33};
  const std::vector<std::string> routings{"UGALn", "PAR", "Q-adp"};
  constexpr int kRepetitions = 3;

  viz::AsciiTable table({"routing", "g=9 (ms +/- ci)", "g=17 (ms +/- ci)",
                         "g=33 (ms +/- ci)"});
  viz::LineChart chart("FFT3D comm time vs system size (interfered by Halo3D)",
                       "groups", "comm time (ms)");
  for (const std::string& routing : routings) {
    std::vector<std::string> cells{routing};
    std::vector<double> xs, ys;
    for (const int groups : group_counts) {
      const SweepStat stat = run_cell(options, routing, groups, kRepetitions);
      cells.push_back(bench::fmt(stat.mean) + " +/- " + bench::fmt(stat.ci95_half));
      xs.push_back(groups);
      ys.push_back(stat.mean);
    }
    table.row(cells);
    chart.add_series(routing, xs, ys);
  }
  std::printf("%s\n", table.str().c_str());
  chart.save("scaling_interference.svg");
  std::printf("Wrote scaling_interference.svg\n\n");
  std::printf("Expected: interference persists at every size; Q-adp's advantage holds\n"
              "or widens with g (more path diversity for the learned policy to exploit).\n");
  return 0;
}
