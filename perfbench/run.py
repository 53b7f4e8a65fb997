"""knotlab benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; knotlab is imported from ./src.

--trace 0 measures the end-to-end metrics: set-up (imports, table load and
the inputs of the first whole rounds of at least 100 operations), a warm-up
on inputs disjoint from the timed ones, then operations back to back until
--seconds have passed and at least 100 ran, stopping at the round boundary
nearest to --seconds.  Every output is checked against an oracle; a mismatch
or an exception is a failed operation.  setup_s is the median of nine fresh
processes, spawned one at a time between operations across the timed loop,
so that they sample the same phases of a drifting machine as the operations.
Times are scaled to a reference machine speed, measured by a calibration
loop between operations (DESIGN.md, "Machine-speed scaling").

--trace 1 installs the layer spans (layers.py) and runs a fixed number of
rounds traced, each operation followed by a fresh one untraced, and reports
per-operation layer metrics, the tracing overhead and the share of operation
time the spans cover.  A fixed seed gives exactly the same counts.  Spans are
written to perfbench/out/.

The last line of stdout is a JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_PROBES = 9
HARD_STOP_S = 150  # stay inside the 180 s a run may take, even on a slow machine
WARMUP_BASE = 10**9  # warm-up inputs come from indices far above the timed ones
UNTRACED_BASE = 10**6  # the untraced pass of a traced run, disjoint from the traced one
# The host's speed drifts by 20-40% over seconds to minutes.  Times are
# scaled to a machine on which _calibration_work takes this long, using
# calibrations taken between operations; see DESIGN.md.
CALIBRATE_EVERY_S = 0.5
REFERENCE_CALIBRATION_S = 0.003


def _calibration_work():
    """Fixed pure-Python work that uses no knotlab code: Fraction and integer
    arithmetic and dict traffic, the mix of knotlab's hot loops."""
    acc, seen = Fraction(0), {}
    for i in range(1, 1001):
        acc += Fraction(i % 11, 1 + i % 13)
        seen[i % 97] = seen.get(i % 97, 0) + i * i % 1009
    return acc, seen


def _calibrate():
    """The machine's current speed, as the best of three timings of _calibration_work."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - t0)
    return best


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _first_rounds(workload):
    """Operations in the first whole rounds that hold at least MIN_OPS."""
    r = workload.round_size
    return -(-MIN_OPS // r) * r


def _setup_probe(args):
    """Wall time from spawning a fresh interpreter until the workload is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
    return t1 - t0


class Loop:
    """Closed loop over inputs start, start+1, ...; one operation at a time."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.peak_rss_mb = None
        self.setup_times = []

    def step(self, index):
        w, tracer = self.workload, self.tracer
        inp = w.input(index)
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            out = w.run(inp, tracer)
        except Exception as e:  # a crash is a failed operation, not a failed run
            out, error = None, f"{type(e).__name__}: {e}"
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                error = w.check(inp, out)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                error = f"unreadable output: {type(e).__name__}: {e}"
        self.latencies.append(dt)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"input {index}: {error}")

    def timed(self, seconds, probe):
        """Run whole rounds for about `seconds`.

        Between operations, every CALIBRATE_EVERY_S, time the calibration
        work, and SETUP_PROBES times, evenly spread, call `probe` and keep
        what it returns in self.setup_times.  Each operation's latency is
        scaled by REFERENCE_CALIBRATION_S over the mean of the two
        calibrations around it, into self.scaled; the probes, which are
        spread over the run, by the run's speed (the same ratio, over the
        median calibration).  Calibrations and probes count neither as
        elapsed time nor as latency."""
        w, r = self.workload, self.workload.round_size
        cals, op_cal, probes = [_calibrate()], [], self.setup_times

        t0 = last = time.perf_counter()
        paused = 0.0
        index = 0
        while True:
            for _ in range(r):
                self.step(index)
                op_cal.append(len(cals) - 1)
                index += 1
                now = time.perf_counter()
                due = (len(probes) + 0.5) * seconds / SETUP_PROBES
                # A probe's memory would count in RUSAGE_CHILDREN, so a workload
                # measured in child processes probes only after peak_rss_mb.
                if (len(probes) < SETUP_PROBES and now - t0 - paused >= due
                        and (w.in_process or self.peak_rss_mb is not None)):
                    probes.append(probe())
                elif now - last >= CALIBRATE_EVERY_S:
                    cals.append(_calibrate())
                else:
                    continue
                last = time.perf_counter()
                paused += last - now
            elapsed = time.perf_counter() - t0 - paused
            if self.peak_rss_mb is None and index >= MIN_OPS:
                # after a fixed amount of work, so that a faster program, which
                # fills knotlab's caches further in the same time, does not
                # read as a larger one
                self.peak_rss_mb = _peak_rss_mb(w)
            per_round = elapsed * r / index
            if index >= MIN_OPS and elapsed + per_round / 2 >= seconds:
                break
            if elapsed + per_round >= HARD_STOP_S:
                break
        if self.peak_rss_mb is None:  # stopped early: fewer than MIN_OPS ran
            self.peak_rss_mb = _peak_rss_mb(w)
        wall = time.perf_counter() - t0 - paused
        cals.append(_calibrate())
        while len(probes) < SETUP_PROBES:  # a run too short to spread them
            probes.append(probe())
        self.scaled = [dt * 2 * REFERENCE_CALIBRATION_S / (cals[k] + cals[k + 1])
                       for dt, k in zip(self.latencies, op_cal)]
        self.speed = REFERENCE_CALIBRATION_S / statistics.median(cals)
        self.setup_scaled = [t * self.speed for t in probes]
        return wall


def _warm_up(workload):
    for inp in workload.warmup(WARMUP_BASE):
        workload.run(inp)


def end_to_end(workload, args):
    workload.prepare(_first_rounds(workload))
    _warm_up(workload)
    loop = Loop(workload)
    wall = loop.timed(args.seconds, lambda: _setup_probe(args))
    raw, lat = loop.latencies, loop.scaled
    n = len(lat)
    # Only time inside operations counts: the client's input generation and
    # oracle checks stay out.
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * _quantile(lat, 90), "ms"),
        "setup_s": (statistics.median(loop.setup_scaled), "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    first = _first_rounds(workload)
    print(f"# {workload.name} seed {args.seed}: {n} operations in {wall:.2f} s, "
          f"{sum(raw):.2f} s of them inside knotlab")
    print(f"# machine speed x{loop.speed:.3f} of the reference; unscaled: "
          f"ops_per_s {n / sum(raw):.6g}, latency_p50_ms {1e3 * statistics.median(raw):.6g}, "
          f"latency_p90_ms {1e3 * _quantile(raw, 90):.6g}, "
          f"setup_s {statistics.median(loop.setup_times):.6g}")
    print(f"# failed_ratio {loop.failed / n:.6g} ratio ({loop.failed} of {n} failed)")
    for name, (value, unit) in metrics.items():
        note = {"setup_s": f" over {SETUP_PROBES} fresh processes, with {first} inputs",
                "peak_rss_mb": f" after the first {first} operations"}.get(name, f" n={n}")
        print(f"# {name} {value:.6g} {unit}{note}")
    return loop, metrics


def traced(workload, args):
    from layers import Tracer, layer_metrics, unit_of

    tracer = Tracer()
    if workload.in_process:
        tracer.install()
        tracer.begin_op("setup", name="setup")
        workload.prepare(_first_rounds(workload))
        tracer.end_op()
        tracer.uninstall()
    else:
        workload.prepare(_first_rounds(workload))
    _warm_up(workload)
    # Traced and untraced operations alternate one by one, so that both see
    # the same phases of a machine whose speed drifts; the overhead is their
    # time ratio over the same number of whole rounds.
    loop, plain = Loop(workload, tracer), Loop(workload)
    ops = workload.trace_rounds * workload.round_size
    for index in range(ops):
        if workload.in_process:
            tracer.install()
        loop.step(index)
        tracer.uninstall()
        plain.step(UNTRACED_BASE + index)
    traced_s, plain_s = sum(loop.latencies), sum(plain.latencies)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload.name}-{args.seed}.jsonl")
    values = layer_metrics(tracer.spans, ops)
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.ops_per_s"] = (ops / traced_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (ops / plain_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    print(f"# {workload.name} seed {args.seed}: {ops} traced operations, {ops} untraced; "
          f"tracing overhead x{traced_s / plain_s:.3f}, span coverage "
          f"{values['trace.coverage']:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    loop.latencies += plain.latencies
    loop.failed += plain.failed
    loop.errors += plain.errors
    return loop, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "knotlab" / "__init__.py").is_file():
        print(f"error: no knotlab sources under {SRC}; run from a knotlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        workload.prepare(_first_rounds(workload))
        print("ready", flush=True)
        return 0

    loop, metrics = (traced if args.trace else end_to_end)(workload, args)
    for error in loop.errors:
        print(f"# FAILED {error}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
