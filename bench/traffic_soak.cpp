// Open-loop traffic soak: sustained arrival streams (Poisson, MMPP
// bursts, diurnal ramp) against shared fabrics, with the flow-table GC
// and determinism contracts enforced as hard gates.
//
// Every configuration runs the same --runs seeded exp::traffic_trial
// batch at each --jobs value and checks three invariants:
//   1. aggregate digests are bit-identical across jobs values,
//   2. engine flow-table occupancy stays flat over the horizon in every
//      trial (peak within 2x steady state: wholesale expiry keeps
//      record counts from growing monotonically), and
//   3. every engine passes its internal consistency_check().
// Results land in BENCH_traffic.json. Exit status is non-zero when any
// gate fails.
//
// Flags: --runs=N (trials per config, default 6; quick 2), --quick
//        (short horizon, fewer configs), --csv, --jobs=N (extra jobs
//        value), --out=PATH (default BENCH_traffic.json).
#include "bench/gated_sweep.hpp"
#include "exp/traffic.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  GatedSweep sweep("traffic_soak", "BENCH_traffic.json", argc, argv);
  const BenchArgs& args = sweep.args();

  const std::size_t runs = args.trials(args.quick ? 2 : 6);
  note_quick_cut(args, args.quick ? 2 : 6,
                 "3 configs (poisson/mmpp/diurnal), 120 s horizon "
                 "(full: 6 configs incl. overload + shaping, 300 s)");

  sweep.jobs_axis({1, 2, 4});
  auto make = [&](exp::ArrivalKind kind, exp::TopologyFamily family,
                  std::size_t size, double rate_scale) {
    exp::TrafficConfig cfg;
    cfg.family = family;
    cfg.size = size;
    cfg.n_circuits = 2;
    cfg.arrivals.kind = kind;
    cfg.arrivals.rate = 1.0 * rate_scale;
    cfg.arrivals.burst_rate = 4.0 * rate_scale;
    cfg.arrivals.idle_rate = 0.25 * rate_scale;
    cfg.arrivals.peak_rate = 2.0 * rate_scale;
    cfg.arrivals.trough_rate = 0.25 * rate_scale;
    cfg.horizon = args.quick ? 120_s : 300_s;
    cfg.warmup = args.quick ? 15_s : 30_s;
    return cfg;
  };
  auto add = [&](const exp::TrafficConfig& cfg, const std::string& suffix) {
    sweep.config(std::string(exp::to_string(cfg.arrivals.kind)) + "-" +
                     exp::to_string(cfg.family) + std::to_string(cfg.size) +
                     "-c" + std::to_string(cfg.n_circuits) + suffix,
                 GatedSweep::Axis::jobs, trial_of(cfg, exp::traffic_trial));
  };
  add(make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3, 1.0), "");
  add(make(exp::ArrivalKind::mmpp, exp::TopologyFamily::ring, 8, 1.0), "");
  add(make(exp::ArrivalKind::diurnal, exp::TopologyFamily::grid, 3, 1.0), "");
  if (!args.quick) {
    add(make(exp::ArrivalKind::mmpp, exp::TopologyFamily::waxman, 10, 1.0),
        "");
    // Sustained overload: demand far beyond the admitted circuit rate
    // with a tight budget. Policing must absorb the excess as rejections
    // while the flow tables stay flat.
    auto over = make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3,
                     40.0);
    over.pairs_per_request = 4;
    over.slo.latency_budget = 5_s;
    add(over, "-over");
    // Overload with a best-effort mix: deadline-less requests take the
    // shaping deque instead of being policed away.
    auto be = make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3,
                   20.0);
    be.pairs_per_request = 4;
    be.slo.latency_budget = 5_s;
    be.best_effort_fraction = 0.3;
    add(be, "-be");
  }
  // Registered identically before every aggregation the digest
  // comparison touches: routing changes what the digest hashes.
  sweep.accumulator([] {
    exp::SummaryAccumulator acc;
    acc.pool_as_reservoir("latency_res_s");
    return acc;
  });
  sweep.gate("occupancy_flat", {{"occ_flat", 1.0}});
  sweep.gate("consistent", {{"consistency_ok", 1.0}});
  sweep.column("offered_mean", 2, mean_of("offered"));
  sweep.column("accepted_mean", 2, mean_of("accepted"));
  sweep.column("shaped_mean", 2, mean_of("shaped"));
  sweep.column("rejected_mean", 2, mean_of("rejected"));
  sweep.column("completed_mean", 2, mean_of("completed"));
  sweep.column("slo_attainment", 4, mean_of("slo_attainment"));
  sweep.column("latency_p99_s", 4, [](const exp::SummaryAccumulator& acc) {
    return acc.has_scalar("latency_p99_s")
               ? acc.scalar("latency_p99_s").mean()
               : 0.0;
  });
  sweep.column("occ_steady", 2, mean_of("occ_steady"));
  sweep.column("occ_peak", 2, [](const exp::SummaryAccumulator& acc) {
    return acc.scalar("occ_peak").max();
  });
  sweep.column("expired_wholesale_mean", 2, mean_of("occ_expired_wholesale"));
  return sweep.run(runs, args.base_seed(6100),
                   "Open-loop traffic soak — flow-table GC, SLO attainment "
                   "and jobs-invariance gates");
}
