#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"
#include "stats/histogram.hpp"

/// Multi-seed experiment sweeps.
///
/// The paper reports run-to-run variation (Fig 4's whiskers are variation
/// across ranks; production studies like Chunduri et al. report variation
/// across runs). A seed sweep repeats one experiment under different seeds —
/// different random placements and traffic randomness — as a run_plan
/// campaign with a seeds axis (core/plan.hpp); aggregate_sweep reduces its
/// Reports to mean / stddev / min / max / 95% CI per metric, which the
/// ablation benches print alongside single-run numbers.
namespace dfly {

/// Summary of one scalar metric across sweep repetitions.
struct SweepStat {
  double mean{0};
  double stddev{0};
  double min{0};
  double max{0};
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_half{0};
  int n{0};

  static SweepStat of(const Accumulator& acc);
};

/// Aggregated per-application metrics across repetitions.
struct AppSweep {
  std::string app;
  SweepStat comm_ms;
  SweepStat exec_ms;
  SweepStat lat_mean_us;
  SweepStat lat_p99_us;
  SweepStat nonminimal_fraction;
};

/// Aggregated whole-run metrics across repetitions.
struct SweepSummary {
  std::string routing;
  int runs{0};
  int completed_runs{0};
  std::vector<AppSweep> apps;
  SweepStat makespan_ms;
  SweepStat sys_lat_p99_us;
  SweepStat agg_throughput;
  SweepStat local_stall_ms;
  SweepStat global_stall_ms;
  SweepStat congestion_imbalance;

  const AppSweep& app(const std::string& name) const;
};

/// Aggregate one experiment's Reports across repetitions (typically the
/// seeds axis of a run_plan campaign, collected in cell order). Apps must
/// match across reports; the first report defines the app set. Throws
/// std::invalid_argument on an empty list or mismatched app sets.
SweepSummary aggregate_sweep(const std::vector<Report>& reports);

}  // namespace dfly
