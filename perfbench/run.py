#!/usr/bin/env python3
"""End-to-end simulator benchmark with a per-layer split (see README.md).

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a qnetp checkout. Builds perfbench/ (which builds
the qnetp library from ../src) into $CARGO_TARGET_DIR or .bench_build,
runs one workload and prints, as its last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics of an untraced run; --trace 1 runs the untraced and
the traced driver on half the budget each and gives the per-layer metrics.
Exits non-zero when the build or the correctness gate fails.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig9_sweep", "fig10_cutoff", "region_fabric")
MAX_SHARDS = 4  # region_fabric has 4 regions
DRIVER_TIMEOUT_S = 170
WAIT = "des.shard_wait"  # the sharded kernel's barrier wait


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "exp", "scenarios.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"perfbench: {need} not found under {ROOT}; "
                             "run from a qnetp checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver", "perfbench_traced"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return build_dir


def run_driver(binary, workload, seed, seconds, shards):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--shards", str(shards)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {os.path.basename(binary)} exited "
                         f"{proc.returncode} without output")
    out = json.loads(lines[-1])
    out["exit_code"] = proc.returncode
    return out


def quantile_ms(samples, q):
    """Exact quantile by linear interpolation (as qbase::SampleSet)."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return 1e3 * (xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def describe(run):
    h = run["host"]
    print(f"host: nproc={h['nproc']} compiler='{h['compiler']}' "
          f"build_type={h['build_type']} shards={h['shards']}")
    sim = run["sim"]
    print(f"{run['workload']} seed={run['seed']} traced={run['traced']} "
          f"passes={len(run['pass_wall_s'])} trials/pass={run['trials_per_pass']} "
          f"digest={run['digest']} events/pass={run['events_per_pass']:.0f} "
          f"sim_s/pass={sim['sim_s']:.6g}")
    parts = [f"pairs_per_sim_s={sim['pairs_per_sim_s']:.6g} pairs/s",
             f"completed_frac={sim['completed_frac']:.6g} "
             f"({sim['completed']:.0f} of {sim['offered']:.6g} offered)"]
    lat = sim["latency_s"]
    if lat:
        beyond = len(lat) - math.ceil(0.99 * len(lat))
        parts.append(f"latency_p50_ms={quantile_ms(lat, 0.5):.6g} ms "
                     f"latency_p99_ms={quantile_ms(lat, 0.99):.6g} ms "
                     f"(n={len(lat)}, {beyond} beyond p99)")
    if sim["fidelity_mean"] >= 0:
        parts.append(f"fidelity_mean={sim['fidelity_mean']:.6g}")
    print("simulated: " + "; ".join(parts))


def check_sim(run, problems):
    """Plausibility of the simulated outputs (beyond the driver's gates)."""
    sim = run["sim"]
    if not sim["pairs_per_sim_s"] > 0:
        problems.append("no end-to-end pairs delivered")
    # fig9 counts offered requests at the schedule's rate (window / interval),
    # so a trial can complete one request more than it is credited with.
    limit = 1.02 if run["workload"] == "fig9_sweep" else 1.0
    if not 0 < sim["completed_frac"] <= limit:
        problems.append(f"completed_frac {sim['completed_frac']} outside (0, {limit}]")
    if run["workload"] == "fig10_cutoff" and not 0.5 < sim["fidelity_mean"] <= 1.0:
        problems.append(f"fidelity_mean {sim['fidelity_mean']} outside (0.5, 1]")
    if run["workload"] != "fig10_cutoff" and len(sim["latency_s"]) < 1000:
        problems.append("fewer than 1000 latency samples: p99 has under 10 beyond it")


def end_to_end(run):
    wall = statistics.median(run["pass_wall_s"])
    sim = run["sim"]
    return {
        "sim_s_per_host_s": (sim["sim_s"] / wall, "s/s"),
        "setup_s": (statistics.median(run["pass_setup_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pairs_per_sim_s": (sim["pairs_per_sim_s"], "1/s"),
        "completed_frac": (sim["completed_frac"], "frac"),
    }


def per_layer(untraced, traced):
    passes = traced["trace"]
    shards = traced["host"]["shards"]

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def calls(name):
        return med(lambda p: p["entries"][name][0])

    def self_s(*names):
        return med(lambda p: sum(p["entries"][n][2] for n in names) * 1e-9)

    def self_frac(*names):
        return med(lambda p: sum(p["entries"][n][2] for n in names) * 1e-9 / p["wall_s"])

    def busy_frac(p):
        sharded_ns = p["entries"]["des.sharded_run_until"][1]
        return p["shard_busy_ns"] / (shards * sharded_ns) if sharded_ns else 0.0

    untraced_wall = statistics.median(untraced["pass_wall_s"])
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    events = untraced["events_per_pass"]
    link_pairs = calls("qnp.on_link_pair") / 2  # delivered to both ends
    e2e_pairs = calls("qnp.release_app_qubit") / 2  # consumed at both ends
    des = ("des.run_until", "des.sharded_run_until")
    m = {
        "des.events": (events, "count"),
        "des.ns_per_event": (untraced_wall / events * 1e9, "ns"),
        "des.self_s": (self_s(*des), "s"),
        "des.self_frac": (self_frac(*des), "frac"),
        "des.run_until.calls": (calls(des[0]) + calls(des[1]), "count"),
        "des.shard_busy_frac": (med(busy_frac), "frac"),
        "des.shard_wait_s": (self_s(WAIT), "s"),
        "qhw.solve_alpha.calls": (calls("qhw.solve_alpha"), "count"),
        "qhw.solve_alpha.self_s": (self_s("qhw.solve_alpha"), "s"),
        "qhw.solve_alpha.self_frac": (self_frac("qhw.solve_alpha"), "frac"),
        "qhw.produced_state.calls": (calls("qhw.produced_state"), "count"),
        "qhw.produced_state.self_s": (self_s("qhw.produced_state"), "s"),
        "qstate.swap.calls": (calls("qstate.swap"), "count"),
        "qstate.swap.self_s": (self_s("qstate.swap"), "s"),
        "qstate.swap.self_frac": (self_frac("qstate.swap"), "frac"),
        "qstate.swap.fast_frac": (med(lambda p: p["swap_both_bell_diagonal"]
                                      / max(1, p["entries"]["qstate.swap"][0])), "frac"),
        "qstate.decay.calls": (calls("qstate.decay"), "count"),
        "qstate.decay.self_s": (self_s("qstate.decay"), "s"),
        "qdevice.swap.self_s": (self_s("qdevice.swap"), "s"),
        "linklayer.submit.calls": (calls("linklayer.submit"), "count"),
        "linklayer.pairs": (link_pairs, "count"),
        "qnp.on_message.calls": (calls("qnp.on_message"), "count"),
        "qnp.on_message.self_s": (self_s("qnp.on_message"), "s"),
        "qnp.on_link_pair.self_s": (self_s("qnp.on_link_pair"), "s"),
        "qnp.submit_request.calls": (calls("qnp.submit_request"), "count"),
        "qnp.e2e_pairs": (e2e_pairs, "count"),
        "qnp.pair_yield": (e2e_pairs / link_pairs if link_pairs else 0.0, "frac"),
        "netmsg.messages": (calls("netmsg.send"), "count"),
        "netmsg.bytes": (med(lambda p: p["encoded_bytes"]), "B"),
        "netmsg.codec.self_s": (self_s("netmsg.encode", "netmsg.decode"), "s"),
        "netmsg.send.self_s": (self_s("netmsg.send"), "s"),
        "ctrl.plan_circuit.calls": (calls("ctrl.plan_circuit"), "count"),
        "ctrl.plan_circuit.self_s": (self_s("ctrl.plan_circuit"), "s"),
        "netsim.build.self_s": (self_s("netsim.build"), "s"),
        "netsim.establish.self_s": (self_s("netsim.establish"), "s"),
        "exp.driver.self_s": (med(lambda p: p["wall_s"] - p["driver_root_ns"] * 1e-9), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
    return m


def self_ranking(traced):
    """Entry points by median self time per pass: the gprof-style view."""
    passes = traced["trace"]
    wall = statistics.median(p["wall_s"] for p in passes)
    rows = []
    for name in passes[0]["entries"]:
        s = statistics.median(p["entries"][name][2] for p in passes) * 1e-9
        c = statistics.median(p["entries"][name][0] for p in passes)
        rows.append((s, name, c))
    print(f"self time per pass (traced wall {wall:.4g} s):")
    for s, name, c in sorted(rows, reverse=True):
        if name != WAIT:
            print(f"  {name:24s} {s:10.4g} s  {100 * s / wall:5.1f}%  calls={c:.0f}")
    s, _, c = next(r for r in rows if r[1] == WAIT)
    print(f"waiting, not layer work:\n  {WAIT:24s} {s:10.4g} s  "
          f"{100 * s / wall:5.1f}%  calls={c:.0f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = build()
    driver = os.path.join(build_dir, "perfbench_driver")
    traced_driver = os.path.join(build_dir, "perfbench_traced")
    shards = 1
    if args.workload == "region_fabric":
        shards = min(MAX_SHARDS, len(os.sched_getaffinity(0)))

    problems = []
    if args.trace == 0:
        runs = [run_driver(driver, args.workload, args.seed, args.seconds, shards)]
    else:
        half = args.seconds / 2
        runs = [run_driver(driver, args.workload, args.seed, half, shards),
                run_driver(traced_driver, args.workload, args.seed, half, shards)]
        untraced, traced = runs
        if traced["digest"] != untraced["digest"]:
            problems.append("traced and untraced digests differ")
        if traced["sim"] != untraced["sim"]:
            problems.append("traced and untraced simulated metrics differ")
    for run in runs:
        describe(run)
        check_sim(run, problems)
        problems += [f"{'traced' if run['traced'] else 'untraced'}: {e}"
                     for e in run["errors"]]
        if run["exit_code"] != 0 and not run["errors"]:
            problems.append(f"driver exited {run['exit_code']}")

    if args.trace == 0:
        metrics = end_to_end(runs[0])
    else:
        self_ranking(traced)
        metrics = per_layer(untraced, traced)
        busy = metrics["des.shard_busy_frac"][0]
        if args.workload == "region_fabric" and not 0 < busy <= 1:
            problems.append(f"des.shard_busy_frac {busy} outside (0, 1]")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    for p in problems:
        log("perfbench: FAIL: " + p)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
