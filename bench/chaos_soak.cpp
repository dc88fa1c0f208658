// Chaos soak: the control plane under classical-fabric fault injection
// (exp::chaos_trial), with four gates:
//   1. per fault profile, the aggregate digest (every scalar + sample)
//      is bit-identical at --jobs 1, 2 and 4 — the seeded per-channel
//      fault streams leave no worker-thread trace;
//   2. on the multi-region fabric, the digest is bit-identical at
//      --shards 1, 2 and 4 — fault decisions are drawn on the source
//      node's shard and dead-peer verdicts drain at stride boundaries,
//      so the conservative-parallel execution leaves no trace either;
//   3. every trial at <= 5% drop+duplication+reordering comes back clean
//      (ok, engine-consistent, leak-free, quiescent, and channel-counter
//      conservation: sent + duplicated == delivered + dropped +
//      in-flight) — admitted circuits complete or tear down cleanly;
//   4. a silent link partition (detected only by the reliable
//      transport's dead-peer verdicts) converges to the same routed
//      view as an explicit sever_link of the same link, and the
//      partition run actually exercised the verdict path.
// Results land in BENCH_chaos.json; exit status is non-zero when any
// gate fails.
//
// Flags: --runs=N (trials per point, default 3; quick 1),
//        --jobs=N / --shards=N (extra sweep values),
//        --quick (compressed horizons, reduced sweeps), --csv,
//        --out=PATH (default BENCH_chaos.json).
#include <algorithm>
#include <utility>

#include "bench/gated_sweep.hpp"
#include "exp/chaos.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

exp::ChaosConfig base_config(bool quick) {
  exp::ChaosConfig cfg;
  cfg.family = exp::TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 3;
  if (quick) {
    cfg.warmup = 2_s;
    cfg.horizon = 6_s;
    cfg.drain = 1_s;
  }
  return cfg;
}

exp::ChaosConfig loss_config(bool quick, double loss) {
  exp::ChaosConfig cfg = base_config(quick);
  cfg.faults.drop = loss;
  cfg.faults.duplicate = loss;
  cfg.faults.reorder = loss;
  cfg.faults.corrupt = loss / 2.0;
  return cfg;
}

exp::ChaosConfig regions_config(bool quick) {
  exp::ChaosConfig cfg = base_config(quick);
  cfg.regions = 4;
  cfg.region_rows = 2;
  cfg.region_cols = 3;
  cfg.n_circuits = 2;
  return cfg;
}

exp::ChaosConfig cut_config(bool quick, bool silent) {
  exp::ChaosConfig cfg = base_config(quick);
  cfg.cut_link = true;
  cfg.silent_partition = silent;
  cfg.cut_at = quick ? 2_s : 8_s;
  return cfg;
}

/// The trial results of the single-point config `label`.
const std::vector<exp::TrialResult>& results_of(
    const GatedSweep::Points& points, const std::string& label) {
  return std::find_if(points.begin(), points.end(),
                      [&label](const auto& p) { return p.config == label; })
      ->results;
}

/// Sorted per-trial routed-view fingerprints.
std::vector<std::pair<double, double>> views(
    const std::vector<exp::TrialResult>& results) {
  std::vector<std::pair<double, double>> out;
  for (const auto& r : results) {
    out.emplace_back(r.scalar_or("view_digest_hi", 0.0),
                     r.scalar_or("view_digest_lo", 0.0));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  GatedSweep sweep("chaos_soak", "BENCH_chaos.json", argc, argv);
  const BenchArgs& args = sweep.args();
  const bool quick = args.quick;

  const std::size_t trials = args.trials(quick ? 1 : 3);
  note_quick_cut(args, quick ? 1 : 3,
                 "6 s horizon, jobs/shards {1,2}, loss sweep {0, 5%} "
                 "(full: 20 s horizon, {1,2,4} sweeps, loss "
                 "{0, 2%, 5%, 12%})");

  // Gate 1: identical digests at every --jobs value (default profile).
  sweep.jobs_axis(quick ? std::vector<std::size_t>{1, 2}
                        : std::vector<std::size_t>{1, 2, 4});
  sweep.config("grid", GatedSweep::Axis::jobs,
               trial_of(base_config(quick), exp::chaos_trial));

  // Gate 2: identical digests at every --shards value on the 4-region
  // fabric (jobs pinned to 1 so only the fold varies).
  const exp::ChaosConfig regions = regions_config(quick);
  sweep.shards_axis(quick ? std::vector<std::size_t>{1, 2}
                          : std::vector<std::size_t>{1, 2, 4},
                    regions.regions);
  sweep.config("regions4", GatedSweep::Axis::shards,
               trial_of(regions, exp::chaos_trial));

  // Gate 3: loss sweep — every point at <= 5% must come back clean
  // (higher points are informational: the transport still converges but
  // the ladder may time circuits out).
  for (const double loss : quick ? std::vector<double>{0.0, 0.05}
                                 : std::vector<double>{0.0, 0.02, 0.05, 0.12}) {
    char label[32];
    std::snprintf(label, sizeof label, "loss%.0f%%", loss * 100.0);
    sweep.config(label, GatedSweep::Axis::none,
                 trial_of(loss_config(quick, loss), exp::chaos_trial),
                 loss <= 0.05);
  }

  // Gate 4: a silent partition (dead-peer verdict detection) must land
  // on the same routed view as an explicit sever of the same link, and
  // must actually have exercised the verdict path.
  sweep.config("partition", GatedSweep::Axis::none,
               trial_of(cut_config(quick, true), exp::chaos_trial));
  sweep.config("sever", GatedSweep::Axis::none,
               trial_of(cut_config(quick, false), exp::chaos_trial));
  sweep.check("partition_equals_sever",
              "silent partition reaches dead verdicts and lands on the "
              "explicit sever view",
              [](const GatedSweep::Points& points) {
                const auto& partition = results_of(points, "partition");
                double verdicts = 0.0;
                for (const auto& r : partition) {
                  verdicts += r.scalar_or("dead_verdicts", 0.0);
                }
                return verdicts > 0.0 &&
                       views(partition) == views(results_of(points, "sever"));
              });

  sweep.gate("clean", {{"ok", 1.0},
                       {"consistency_ok", 1.0},
                       {"leak_free", 1.0},
                       {"quiescent", 1.0},
                       {"conservation_ok", 1.0}});
  sweep.column("slo_mean", 4, mean_of("slo"));
  sweep.column("retransmits_mean", 1, mean_of("retransmits"));
  sweep.column("dead_verdicts_mean", 2, mean_of("dead_verdicts"));
  sweep.column("decode_errors_mean", 1, mean_of("net_decode_errors"));
  return sweep.run(trials, args.base_seed(9300),
                   "Chaos soak — fault injection + reliable transport, "
                   "digests bit-identical across --jobs and --shards");
}
