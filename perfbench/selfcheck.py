"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For each workload: two traced runs with SEED must report exactly the same
per-layer counts (calls, dim, points, sites, hits/misses, rows, ...); the
held-out seed HELD_OUT, which later claims cite, must generate different
inputs, and an end-to-end run on it must pass every oracle.  Exits 1 if any
of this fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
HELD_OUT = 7919


def _run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _first_round(workload, seed):
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed)
    w.setup()
    return [repr(w.make(i)) for i in range(w.round_size)]


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from layers import COUNT_METRICS
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        a = _run(name, SEED, 1)["metrics"]
        b = _run(name, SEED, 1)["metrics"]
        diff = [m for m in COUNT_METRICS if a[m]["value"] != b[m]["value"]]
        print(f"{name}: {len(COUNT_METRICS)} counts, seed {SEED} twice: "
              + ("identical" if not diff else f"DIFFER in {diff}"))
        same_inputs = _first_round(name, SEED) == _first_round(name, HELD_OUT)
        held = _run(name, HELD_OUT, 0)
        print(f"{name}: held-out seed {HELD_OUT}: inputs "
              + ("IDENTICAL to seed's" if same_inputs else "differ")
              + f", {held['attempted']} operations, {held['failed']} failed")
        ok = ok and not diff and not same_inputs and held["correct"] and held["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
