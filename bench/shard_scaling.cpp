// Sharded-DES scaling bench: one 100+ node multi-region fabric with 50+
// concurrent circuits (exp::shard_scaling_trial), executed at several
// shard counts with two hard gates:
//   1. the aggregate digest (every scalar + sample) is bit-identical at
//      every shard count — conservative windows, canonical mailbox
//      merge order and region-local quantum state leave no scheduling
//      freedom in the results;
//   2. every trial comes back ok with every engine passing its internal
//      consistency_check().
// Wall-clock per shard count and the speedup of the largest sweep value
// over shards=1 land in BENCH_shard.json together with the host core
// count (speedups are only meaningful with cores >= shards). Exit
// status is non-zero when any gate fails.
//
// Flags: --runs=N (trials per shard count, default 2; quick 1),
//        --shards=N (extra sweep value, must be <= regions),
//        --quick (small fabric, short horizon), --csv,
//        --out=PATH (default BENCH_shard.json).
#include "bench/gated_sweep.hpp"
#include "exp/shard_scaling.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  GatedSweep sweep("shard_scaling", "BENCH_shard.json", argc, argv);
  const BenchArgs& args = sweep.args();

  exp::ShardScalingConfig cfg;  // 4 x (3x9) = 108 nodes, 52 circuits
  if (args.quick) {
    cfg.region_rows = 2;
    cfg.region_cols = 3;
    cfg.circuits_per_region = 2;
    cfg.horizon = 1_s;
    cfg.occupancy_samples = 4;
  }
  sweep.shards_axis({1, 2, 4}, cfg.regions);

  const std::size_t trials = args.trials(args.quick ? 1 : 2);
  note_quick_cut(args, args.quick ? 1 : 2,
                 "4 x (2x3) = 24 nodes, 8 circuits, 1 s horizon "
                 "(full: 4 x (3x9) = 108 nodes, 52 circuits, 5 s)");

  // The trial never echoes cfg.shards into its result, so the plain
  // digest covers every metric and must match across the sweep.
  sweep.config("regions" + std::to_string(cfg.regions),
               GatedSweep::Axis::shards,
               trial_of(cfg, exp::shard_scaling_trial));
  sweep.gate("consistent", {{"ok", 1.0}, {"consistency_ok", 1.0}});
  sweep.column("nodes", 0, mean_of("nodes"));
  sweep.column("circuits", 0, mean_of("admitted"));
  sweep.column("events_mean", 0, mean_of("events"));
  sweep.column("completed_mean", 2, mean_of("completed"));
  sweep.field("speedup_max_shards_vs_1", 3, [](const GatedSweep::Points& p) {
    return p.front().seconds / p.back().seconds;
  });
  return sweep.run(trials, args.base_seed(7300),
                   "Sharded conservative-parallel DES — one fabric, many "
                   "worker loops, bit-identical digests");
}
