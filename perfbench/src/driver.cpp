// perfbench driver: runs one named workload through the public scenario API
// for a wall-clock budget and prints one JSON object with the raw
// per-pass measurements (perfbench/run.py turns them into metrics).
//
// A pass is the workload's fixed trial set, a pure function of --seed.
// Every pass repeats the same trials, so every pass must reproduce the
// first pass's aggregate digest, and the simulated metrics are those of
// one pass whatever the host speed. Built twice: perfbench_driver wraps
// only the set-up entry points; perfbench_traced (PERFBENCH_TRACED) wraps
// every layer entry point and adds per-pass span tables, the trace
// accounting self-test and the interposition coverage guard.
//
//   perfbench_driver --workload fig9_sweep --seed 1 --seconds 5 [--shards 4]
#include <sched.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenarios.hpp"
#include "exp/shard_scaling.hpp"
#include "exp/summary.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace qnetp;
namespace trace = perfbench::trace;

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// High-water RSS of this process image. getrusage's ru_maxrss would also
/// carry the parent's RSS from before exec (Linux keeps it across execve),
/// so read the address space's own VmHWM.
double peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) fail("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0) fail("no VmHWM in /proc/self/status");
  return kib;
}

// --- workloads ---------------------------------------------------------------

constexpr double kFig9IntervalsMs[] = {1000, 500, 300, 200, 150,
                                       100,  80,  60,  45};
constexpr double kFig10T2s[] = {0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 60.0};
constexpr std::size_t kRegionTrials = 8;

struct TrialSpec {
  std::function<exp::TrialResult(std::uint64_t)> run;
  double sim_s = 0;     ///< simulated seconds the trial covers
  double window_s = 0;  ///< simulated seconds its delivered pairs are counted over
  double offered = 0;   ///< fig9: requests due in the window; fig10: 1 trial
};

struct Workload {
  std::string name;
  std::vector<TrialSpec> trials;
};

Workload make_workload(const std::string& name, std::size_t shards) {
  Workload w{name, {}};
  if (name == "fig9_sweep") {
    for (const bool congested : {false, true}) {
      for (const double interval : kFig9IntervalsMs) {
        exp::LatencyThroughputConfig cfg;
        cfg.request_interval = Duration::ms(interval);
        cfg.congested = congested;
        const double window_s = (cfg.measure_until - cfg.measure_from).as_seconds();
        w.trials.push_back(
            {[cfg](std::uint64_t s) { return exp::latency_throughput_trial(cfg, s); },
             cfg.horizon.as_seconds(), window_s, window_s * 1e3 / interval});
      }
    }
  } else if (name == "fig10_cutoff") {
    for (const double t2 : kFig10T2s) {
      for (const bool cutoff : {true, false}) {
        exp::DecoherenceConfig cfg;
        cfg.t2_seconds = t2;
        cfg.use_cutoff = cutoff;
        w.trials.push_back(
            {[cfg](std::uint64_t s) { return exp::decoherence_trial(cfg, s); },
             cfg.horizon.as_seconds(), cfg.horizon.as_seconds(), 1});
      }
    }
  } else if (name == "region_fabric") {
    exp::ShardScalingConfig cfg;
    cfg.shards = shards;
    // Establishment slots, then the traffic window, then the drain the
    // trial runs (latency budget + 1 s).
    const double sim_s =
        (cfg.establish_slot * static_cast<std::int64_t>(
                                  cfg.regions * cfg.circuits_per_region))
            .as_seconds() +
        cfg.horizon.as_seconds() + cfg.latency_budget.as_seconds() + 1.0;
    for (std::size_t i = 0; i < kRegionTrials; ++i) {
      w.trials.push_back(
          {[cfg](std::uint64_t s) { return exp::shard_scaling_trial(cfg, s); },
           sim_s, cfg.horizon.as_seconds(), 0});
    }
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

// --- one pass ----------------------------------------------------------------

struct PassResult {
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t digest = 0;
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  double events = 0;
  std::vector<exp::TrialResult> results;
  trace::Snapshot snapshot;
};

/// A trial passes when it reports ok and, where it checks them, consistent
/// engines. A Fig. 9 trial at a saturated point completes no request in
/// its measurement window and so reports ok = 0 by design; it passes when
/// it ran to its horizon (it sets "throughput" only then). Its requests
/// count as not completed in completed_frac instead.
bool trial_ok(const Workload& w, const exp::TrialResult& r) {
  if (r.scalar_or("consistency_ok", 1.0) != 1.0) return false;
  if (r.scalar_or("ok", 0.0) == 1.0) return true;
  return w.name == "fig9_sweep" && r.has("throughput") && r.has("events");
}

PassResult run_pass(const Workload& w, std::uint64_t seed) {
  PassResult p;
  trace::collect();  // start from an empty table
  const double t0 = now_s();
  for (std::size_t i = 0; i < w.trials.size(); ++i) {
    p.results.push_back(w.trials[i].run(exp::trial_seed(seed, i)));
  }
  p.wall_s = now_s() - t0;
  p.snapshot = trace::collect();
  p.setup_s = static_cast<double>(p.snapshot.total(trace::netsim_build).incl_ns +
                                  p.snapshot.total(trace::netsim_establish).incl_ns) *
              1e-9;
  for (const auto& r : p.results) {
    ++p.trials;
    if (!trial_ok(w, r)) ++p.failed;
    p.events += r.scalar_or("events", 0.0);
  }
  p.digest = exp::SummaryAccumulator::aggregate(p.results).digest();
  return p;
}

// --- simulated metrics of one pass -------------------------------------------

struct SimMetrics {
  double sim_s = 0;
  double pairs_per_sim_s = 0;
  double completed_frac = 0;
  double offered = 0;
  double completed = 0;
  std::vector<double> latency_s;
  double fidelity_mean = -1;  ///< fig10 only
};

SimMetrics sim_metrics(const Workload& w, const std::vector<exp::TrialResult>& rs) {
  SimMetrics m;
  double pairs = 0, window_s = 0, fid_weighted = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    const TrialSpec& t = w.trials[i];
    m.sim_s += t.sim_s;
    window_s += t.window_s;
    m.offered += t.offered;
    const auto lat = r.samples.find("latency_s");
    if (lat != r.samples.end()) {
      m.latency_s.insert(m.latency_s.end(), lat->second.begin(), lat->second.end());
    }
    if (w.name == "fig9_sweep") {
      pairs += r.scalar_or("throughput", 0.0) * t.window_s;
      m.completed += lat == r.samples.end() ? 0.0 : static_cast<double>(lat->second.size());
    } else if (w.name == "fig10_cutoff") {
      const double hi = r.scalar_or("tput_high", 0.0) * t.window_s;
      const double lo = r.scalar_or("tput_low", 0.0) * t.window_s;
      pairs += hi + lo;
      fid_weighted += r.scalar_or("fid_high", 0.0) * hi + r.scalar_or("fid_low", 0.0) * lo;
      m.completed += r.scalar_or("ok", 0.0) == 1.0 ? 1.0 : 0.0;
    } else {
      pairs += r.scalar_or("completed", 0.0) *
               static_cast<double>(exp::ShardScalingConfig{}.pairs_per_request);
      m.offered += r.scalar_or("offered", 0.0);
      m.completed += r.scalar_or("completed", 0.0);
    }
  }
  m.pairs_per_sim_s = window_s > 0 ? pairs / window_s : 0.0;
  m.completed_frac = m.offered > 0 ? m.completed / m.offered : 0.0;
  if (w.name == "fig10_cutoff" && pairs > 0) m.fidelity_mean = fid_weighted / pairs;
  return m;
}

// --- traced build: self-test and coverage guard ------------------------------

void busy_for(double seconds) {
  const double end = now_s() + seconds;
  while (now_s() < end) {
  }
}

/// Checks the span accounting on synthetic spans: nested self times sum to
/// the enclosing span, and spans of other threads are kept per thread and
/// merged once each thread exits.
void trace_self_test() {
  trace::collect();
  {
    const trace::Span outer(trace::des_run_until);
    busy_for(0.0005);
    {
      const trace::Span inner(trace::qhw_solve_alpha);
      busy_for(0.0005);
      const trace::Span leaf(trace::qstate_swap);
      busy_for(0.0005);
    }
    const trace::Span sibling(trace::netmsg_send);
    busy_for(0.0005);
  }
  const trace::Snapshot nested = trace::collect();
  const auto& c = nested.cells;
  const trace::Cell outer = c[trace::des_run_until][trace::kDriverRoot];
  const trace::Cell inner = c[trace::qhw_solve_alpha][trace::des_run_until];
  const trace::Cell leaf = c[trace::qstate_swap][trace::qhw_solve_alpha];
  const trace::Cell sibling = c[trace::netmsg_send][trace::des_run_until];
  if (outer.calls != 1 || inner.calls != 1 || leaf.calls != 1 || sibling.calls != 1) {
    fail("trace self-test: spans not attributed to their parents");
  }
  if (outer.self_ns + inner.incl_ns + sibling.incl_ns != outer.incl_ns ||
      inner.self_ns + leaf.incl_ns != inner.incl_ns || leaf.self_ns != leaf.incl_ns ||
      outer.self_ns + inner.self_ns + leaf.self_ns + sibling.self_ns != outer.incl_ns ||
      !nested.balanced || nested.threads != 1 || nested.worker_threads != 0) {
    fail("trace self-test: nested self times do not sum to the enclosing span");
  }

  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      const trace::Span run(trace::des_run_until);
      const trace::Span swap(trace::qstate_swap);
      busy_for(0.0002);
    });
  }
  for (auto& t : threads) t.join();
  const trace::Snapshot merged = trace::collect();
  if (merged.worker_threads != kThreads || merged.threads != kThreads ||
      merged.cells[trace::des_run_until][trace::kWorkerRoot].calls != kThreads ||
      merged.cells[trace::qstate_swap][trace::des_run_until].calls != kThreads ||
      merged.cells[trace::des_run_until][trace::kDriverRoot].calls != 0 ||
      !merged.balanced) {
    fail("trace self-test: per-thread spans were not merged once per thread");
  }
}

/// Whether a wrapped entry point must fire on `workload`. A refactor that
/// moves a caller into the callee's object file silently stops the wrap;
/// this turns that into a failed run instead of a layer reading zero.
/// (qdevice::EntangledPair::advance_to is only called inside its own
/// object file, so it is deliberately not wrapped.)
bool must_fire(int entry, const std::string& workload, std::size_t shards) {
  switch (entry) {
    case trace::des_sharded_run_until:
      return workload == "region_fabric";
    case trace::des_shard_wait:
      return workload == "region_fabric" && shards > 1;
    default:
      return true;
  }
}

// --- output ------------------------------------------------------------------

void print_double(const char* key, double v, bool comma = true) {
  std::printf("\"%s\": %.17g%s", key, v, comma ? ", " : "");
}

void print_array(const char* key, const std::vector<double>& vs, bool comma = true) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    std::printf("%s%.17g", i ? ", " : "", vs[i]);
  }
  std::printf("]%s", comma ? ", " : "");
}

void print_trace(const std::vector<PassResult>& passes) {
  std::printf("\"trace\": [");
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const trace::Snapshot& s = passes[k].snapshot;
    std::uint64_t driver_root_ns = 0;
    for (int e = 0; e < trace::kEntries; ++e) {
      driver_root_ns += s.cells[e][trace::kDriverRoot].incl_ns;
    }
    // Shard work: Simulator::run_until driven by the sharded kernel, on
    // the driver thread or on a shard worker.
    const std::uint64_t busy_ns =
        s.cells[trace::des_run_until][trace::des_sharded_run_until].incl_ns +
        s.cells[trace::des_run_until][trace::kWorkerRoot].incl_ns;
    std::printf("%s{\"wall_s\": %.17g, \"driver_root_ns\": %" PRIu64
                ", \"shard_busy_ns\": %" PRIu64 ", \"threads\": %" PRIu64
                ", \"worker_threads\": %" PRIu64 ", \"balanced\": %s"
                ", \"swap_both_bell_diagonal\": %" PRIu64
                ", \"encoded_bytes\": %" PRIu64 ", \"entries\": {",
                k ? ", " : "", passes[k].wall_s, driver_root_ns, busy_ns, s.threads,
                s.worker_threads, s.balanced ? "true" : "false",
                s.counters.swap_both_bell_diagonal, s.counters.encoded_bytes);
    for (int e = 0; e < trace::kEntries; ++e) {
      const trace::Cell c = s.total(e);
      std::printf("%s\"%s\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64 "]", e ? ", " : "",
                  trace::entry_name(e), c.calls, c.incl_ns, c.self_ns);
    }
    std::printf("}}");
  }
  std::printf("], ");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--shards") {
      shards = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (shards < 1 || shards > exp::ShardScalingConfig{}.regions) {
    std::fprintf(stderr, "perfbench: --shards must be in [1, %zu]\n",
                 exp::ShardScalingConfig{}.regions);
    return 2;
  }
  const Workload w = make_workload(workload, shards);
  trace::mark_driver_thread();
  if (PERFBENCH_TRACED) trace_self_test();

  // Measure: whole passes while the next one is expected to fit in the
  // budget (at least one).
  std::vector<PassResult> passes;
  const double start = now_s();
  do {
    passes.push_back(run_pass(w, seed));
    // Later passes only have to reproduce the first one's digest; keeping
    // their results would make peak RSS grow with the pass count.
    if (passes.size() > 1) passes.back().results.clear();
  } while (now_s() - start + passes.back().wall_s <= seconds);
  const double peak_rss_mb = peak_rss_kib() / 1024.0;

  // Correctness gate.
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& p : passes) {
    attempted += p.trials;
    failed += p.failed;
    if (p.digest != passes.front().digest) errors.push_back("pass digests differ");
  }
  if (failed > 0) errors.push_back("trials not ok or not consistent");
  std::uint64_t one_shard_digest = passes.front().digest;
  if (workload == "region_fabric" && shards > 1) {
    const PassResult one = run_pass(make_workload(workload, 1), seed);
    attempted += one.trials;
    failed += one.failed;
    one_shard_digest = one.digest;
    if (one.failed > 0) errors.push_back("1-shard trials not ok");
    if (one.digest != passes.front().digest) {
      errors.push_back("digest at 1 shard differs from the measured shard count");
    }
  }
  if (PERFBENCH_TRACED) {
    for (int e = 0; e < trace::kEntries; ++e) {
      std::uint64_t calls = 0;
      for (const auto& p : passes) calls += p.snapshot.total(e).calls;
      if (calls == 0 && must_fire(e, workload, shards)) {
        errors.push_back(std::string("interposition coverage: ") +
                         trace::entry_name(e) + " never fired");
      }
    }
    for (const auto& p : passes) {
      if (!p.snapshot.balanced) errors.push_back("trace self times do not balance");
      if (workload == "region_fabric" && shards > 1 &&
          p.snapshot.worker_threads < (shards - 1) * kRegionTrials) {
        errors.push_back("shard-thread spans missing from the merge");
      }
    }
  }

  const SimMetrics sim = sim_metrics(w, passes.front().results);
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"traced\": %s, ",
              workload.c_str(), seed, PERFBENCH_TRACED ? "true" : "false");
  std::printf("\"host\": {\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"shards\": %zu}, ",
              host_cpus(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, shards);
  std::printf("\"digest\": \"%016" PRIx64 "\", \"digest_1shard\": \"%016" PRIx64 "\", ",
              passes.front().digest, one_shard_digest);
  std::printf("\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ", attempted, failed);
  std::printf("\"trials_per_pass\": %zu, ", w.trials.size());
  print_double("events_per_pass", passes.front().events);
  print_double("peak_rss_mb", peak_rss_mb);
  std::vector<double> walls, setups;
  for (const auto& p : passes) {
    walls.push_back(p.wall_s);
    setups.push_back(p.setup_s);
  }
  print_array("pass_wall_s", walls);
  print_array("pass_setup_s", setups);
  if (PERFBENCH_TRACED) print_trace(passes);
  std::printf("\"sim\": {");
  print_double("sim_s", sim.sim_s);
  print_double("pairs_per_sim_s", sim.pairs_per_sim_s);
  print_double("completed_frac", sim.completed_frac);
  print_double("offered", sim.offered);
  print_double("completed", sim.completed);
  print_double("fidelity_mean", sim.fidelity_mean);
  print_array("latency_s", sim.latency_s, false);
  std::printf("}, \"errors\": [");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", errors[i].c_str());
  }
  std::printf("]}\n");
  return errors.empty() ? 0 : 1;
}
