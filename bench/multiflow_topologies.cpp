// Multi-flow topology sweep: concurrent circuits over grid, ring, star,
// heterogeneous-chain and Waxman random-graph fabrics.
//
// For every (topology family, circuit count) configuration the sweep
// runs --runs seeded trials of exp::multiflow_trial at several --jobs
// values and gates on
//   1. aggregate digests bit-identical across jobs (the determinism
//      contract extended to arbitrary topologies and the admission-aware
//      controller), and
//   2. every trial correct: ok, and no endpoint Bell-label mismatches.
// Throughput-style aggregates and the digests land in BENCH_topo.json;
// exit status is non-zero when any gate fails.
//
// Flags: --runs=N (trials per config, default 6), --quick (2 trials,
//        short horizon, fewer configs), --csv, --jobs=N (extra jobs
//        value), --out=PATH (default BENCH_topo.json).
#include "bench/gated_sweep.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  GatedSweep sweep("multiflow_topologies", "BENCH_topo.json", argc, argv);
  const BenchArgs& args = sweep.args();

  sweep.jobs_axis({1, 2, 4});
  auto add = [&](exp::TopologyFamily family, std::size_t size,
                 std::size_t circuits) {
    exp::MultiflowConfig cfg;
    cfg.family = family;
    cfg.size = size;
    cfg.n_circuits = circuits;
    cfg.pairs_per_request = args.quick ? 3 : 4;
    cfg.horizon = args.quick ? 150_s : 300_s;
    sweep.config(std::string(exp::to_string(family)) + std::to_string(size) +
                     "-c" + std::to_string(circuits),
                 GatedSweep::Axis::jobs, trial_of(cfg, exp::multiflow_trial));
  };
  add(exp::TopologyFamily::grid, 3, 2);
  add(exp::TopologyFamily::ring, 8, 2);
  add(exp::TopologyFamily::waxman, 10, 2);
  if (!args.quick) {
    add(exp::TopologyFamily::grid, 3, 4);
    add(exp::TopologyFamily::ring, 8, 4);
    add(exp::TopologyFamily::waxman, 10, 4);
    add(exp::TopologyFamily::star, 6, 3);
    add(exp::TopologyFamily::hetero_chain, 5, 2);
  }

  const std::size_t runs = args.trials(args.quick ? 2 : 6);
  note_quick_cut(args, args.quick ? 2 : 6,
                 "3 configs (grid/ring/waxman x2 circuits), 150 s horizon "
                 "(full: 8 configs, 300 s)");

  sweep.gate("correct", {{"ok", 1.0}, {"mismatches", 0.0}});
  sweep.column("admitted_mean", 3, mean_of("admitted"));
  sweep.column("delivered_mean", 3, mean_of("delivered"));
  sweep.column("completed_mean", 3, mean_of("completed"));
  sweep.column("fidelity_mean", 4, mean_of("mean_fidelity"));
  sweep.column("events_mean", 0, mean_of("events"));
  return sweep.run(runs, args.base_seed(4100),
                   "Multi-flow topology sweep — " + std::to_string(runs) +
                       " trials/config, jobs-invariance checked");
}
