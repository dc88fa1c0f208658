#!/usr/bin/env python3
"""Check that the determinism-gated benches reproduce their committed digests.

Runs each gated bench (bench/gated_sweep.hpp) at default flags into a
temporary directory, then compares every (config, jobs, shards) digest
with the committed BENCH_*.json at the repo root. Any missing, extra or
different point fails the check, as does a bench that exits non-zero
(one of its own gates failed).

Usage:
  scripts/check_bench_digests.py BUILD_DIR            # all six benches
  scripts/check_bench_digests.py BUILD_DIR exp_scaling ...

Exit status: 0 all digests reproduce, 1 a difference, 2 usage error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# bench binary -> committed JSON at the repo root.
GATED_BENCHES = {
    "exp_scaling": "BENCH_exp.json",
    "multiflow_topologies": "BENCH_topo.json",
    "shard_scaling": "BENCH_shard.json",
    "routing_churn": "BENCH_routing.json",
    "chaos_soak": "BENCH_chaos.json",
    "traffic_soak": "BENCH_traffic.json",
}


def digests(path: str) -> dict[tuple[str, int, int], str]:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {(p["config"], p["jobs"], p["shards"]): p["digest"]
            for p in doc["sweep"]}


def check(build_dir: str, bench: str, tmp: str) -> list[str]:
    """Run `bench` and return one line per difference (empty = clean)."""
    out = os.path.join(tmp, GATED_BENCHES[bench])
    binary = os.path.join(build_dir, bench)
    if not os.access(binary, os.X_OK):
        return [f"{bench}: no binary at {binary}"]
    proc = subprocess.run([binary, f"--out={out}"], cwd=tmp,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        return [f"{bench}: exited {proc.returncode}\n{proc.stdout}"]
    committed = digests(os.path.join(REPO_ROOT, GATED_BENCHES[bench]))
    fresh = digests(out)
    problems = []
    for key in sorted(committed.keys() | fresh.keys()):
        want, got = committed.get(key), fresh.get(key)
        if want != got:
            problems.append(f"{bench} {key}: committed {want}, got {got}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) < 2 or any(b not in GATED_BENCHES for b in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = os.path.abspath(argv[1])
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for bench in argv[2:] or GATED_BENCHES:
            problems = check(build_dir, bench, tmp)
            print(f"{bench}: {'OK' if not problems else 'DIFFERS'}")
            for line in problems:
                print(f"  {line}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
