// Experiment-runner scaling: the Fig. 9 dumbbell sweep sharded over a
// worker pool.
//
// Runs the same --runs trials of the Fig. 9 latency/throughput scenario
// at each --jobs value in the sweep, gates on every aggregate digest
// being bit-identical (the runner's determinism contract), and records
// wall-clock scaling in BENCH_exp.json so the runner's perf trajectory
// is tracked over time. Speedup is bounded by the host core count
// (recorded as hw_concurrency).
//
// Flags: --runs=N (trials, default 32), --quick (8 trials, short
//        horizon), --csv, --jobs=N (extra jobs value to include),
//        --out=PATH (JSON output path, default BENCH_exp.json).
#include "bench/gated_sweep.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  GatedSweep sweep("exp_scaling", "BENCH_exp.json", argc, argv);
  const BenchArgs& args = sweep.args();

  exp::LatencyThroughputConfig cfg;
  cfg.request_interval = Duration::ms(150);
  cfg.congested = false;
  if (args.quick) {
    cfg.issue_window = 5_s;
    cfg.horizon = 6_s;
    cfg.measure_from = 2_s;
    cfg.measure_until = 5_s;
  }
  const std::size_t runs = args.trials(args.quick ? 8 : 32);
  note_quick_cut(args, args.quick ? 8 : 32,
                 "6 s horizon (full: 55 s horizon, 32 trials)");

  sweep.jobs_axis({1, 2, 4, 8});
  sweep.config("fig9", GatedSweep::Axis::jobs,
               trial_of(cfg, exp::latency_throughput_trial));
  sweep.field("speedup_max_jobs_vs_1", 3, [](const GatedSweep::Points& p) {
    return p.front().seconds / p.back().seconds;
  });
  return sweep.run(runs, args.base_seed(2000),
                   "Experiment-runner scaling — Fig. 9 dumbbell sweep, " +
                       std::to_string(runs) + " trials");
}
