// Link-state routing under churn: scripted sever/degrade/heal/flash-crowd
// /node-failure timelines over several topology families
// (exp::churn_trial), with two determinism gates:
//   1. per family, the aggregate digest (every scalar + sample) is
//      bit-identical at --jobs 1, 2 and 4 — trials are pure functions of
//      their seed, so worker threads leave no trace;
//   2. on the multi-region fabric, the digest is bit-identical at
//      --shards 1, 2 and 4 — churn is applied from the driver thread at
//      absolute simulated times, so the conservative-parallel execution
//      leaves no trace either.
// Every trial must also come back ok, engine-consistent and leak-free
// (all admitted capacity returned after the churn teardowns). Results
// land in BENCH_routing.json; exit status is non-zero when any gate
// fails.
//
// Flags: --runs=N (trials per point, default 3; quick 1),
//        --jobs=N / --shards=N (extra sweep values),
//        --quick (grid only, compressed timeline), --csv,
//        --out=PATH (default BENCH_routing.json).
#include "bench/gated_sweep.hpp"
#include "exp/churn.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

exp::ChurnConfig family_config(exp::TopologyFamily family, bool quick) {
  exp::ChurnConfig cfg;
  cfg.family = family;
  cfg.n_circuits = 3;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  switch (family) {
    case exp::TopologyFamily::grid:
      cfg.size = 3;
      break;
    case exp::TopologyFamily::ring:
      cfg.size = 8;
      break;
    case exp::TopologyFamily::star:
      cfg.size = 6;
      cfg.max_circuits_per_link = 3;  // exercise residual-slot metrics
      break;
    default:
      cfg.size = 6;
      break;
  }
  if (quick) {
    // Compressed timeline: one sever/heal plus a crowd inside a short
    // horizon.
    cfg.horizon = 8_s;
    cfg.warmup = 2_s;
    const auto full = exp::default_churn_timeline(family, cfg.size);
    for (std::size_t i = 0; i < full.size() && i < 3; ++i) {
      exp::ChurnEvent e = full[i];
      e.at = Duration::seconds(2 * (i + 1));
      cfg.events.push_back(e);
    }
  } else {
    cfg.horizon = 30_s;
    cfg.events = exp::default_churn_timeline(family, cfg.size);
  }
  return cfg;
}

exp::ChurnConfig regions_config(bool quick) {
  exp::ChurnConfig cfg;
  cfg.regions = 4;
  cfg.region_rows = 2;
  cfg.region_cols = 3;
  cfg.n_circuits = 2;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  // Node ids: region r holds r*6+1 .. r*6+6, row-major 2x3.
  auto event = [&](exp::ChurnEventKind kind, double at_s, std::uint64_t a,
                   std::uint64_t b) {
    exp::ChurnEvent e;
    e.kind = kind;
    e.at = Duration::seconds(at_s);
    e.a = NodeId{a};
    e.b = NodeId{b};
    cfg.events.push_back(e);
  };
  if (quick) {
    cfg.horizon = 6_s;
    cfg.warmup = 2_s;
    event(exp::ChurnEventKind::sever, 2.0, 1, 2);
    exp::ChurnEvent crowd;
    crowd.kind = exp::ChurnEventKind::flash_crowd;
    crowd.at = Duration::seconds(4);
    cfg.events.push_back(crowd);
  } else {
    cfg.horizon = 30_s;
    event(exp::ChurnEventKind::sever, 5.0, 1, 2);
    event(exp::ChurnEventKind::degrade, 8.0, 7, 8);
    cfg.events.back().cost_factor = 5.0;
    event(exp::ChurnEventKind::heal, 14.0, 1, 2);
    exp::ChurnEvent crowd;
    crowd.kind = exp::ChurnEventKind::flash_crowd;
    crowd.at = Duration::seconds(18);
    cfg.events.push_back(crowd);
    exp::ChurnEvent fail;
    fail.kind = exp::ChurnEventKind::fail_node;
    fail.at = Duration::seconds(22);
    fail.node = NodeId{14};
    cfg.events.push_back(fail);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  GatedSweep sweep("routing_churn", "BENCH_routing.json", argc, argv);
  const BenchArgs& args = sweep.args();

  const std::size_t trials = args.trials(args.quick ? 1 : 3);
  note_quick_cut(args, args.quick ? 1 : 3,
                 "grid family only, compressed 8 s timeline (full: "
                 "grid/ring/star + 4-region fabric, 30 s timelines)");

  // Gate 1: per family, identical digests at every --jobs value.
  sweep.jobs_axis({1, 2, 4});
  std::vector<exp::TopologyFamily> families{exp::TopologyFamily::grid};
  if (!args.quick) {
    families.push_back(exp::TopologyFamily::ring);
    families.push_back(exp::TopologyFamily::star);
  }
  for (const auto family : families) {
    sweep.config(exp::to_string(family), GatedSweep::Axis::jobs,
                 trial_of(family_config(family, args.quick),
                          exp::churn_trial));
  }

  // Gate 2: on the multi-region fabric, identical digests at every
  // --shards value (jobs pinned to 1 so only the fold varies).
  const exp::ChurnConfig regions = regions_config(args.quick);
  sweep.shards_axis({1, 2, 4}, regions.regions);
  sweep.config("regions4", GatedSweep::Axis::shards,
               trial_of(regions, exp::churn_trial));

  sweep.gate("clean",
             {{"ok", 1.0}, {"consistency_ok", 1.0}, {"leak_free", 1.0}});
  sweep.column("delivered_mean", 2, mean_of("delivered"));
  sweep.column("torn_down_mean", 2, mean_of("torn_down"));
  sweep.column("updates_applied_mean", 2, mean_of("updates_applied"));
  return sweep.run(trials, args.base_seed(9100),
                   "Link-state routing under churn — digests bit-identical "
                   "across --jobs and --shards");
}
