"""The four seeded workloads.

Each workload cuts its inputs into rounds of ``round_size`` slots.  A slot
fixes the kind and size of an input; the seed fixes the order of slots within
each round and every free parameter within a slot.  So every seed yields a
different input stream with the same cost profile, and a run that ends on a
round boundary has the same composition whatever its seed.  Input ``i`` is a
pure function of (workload, seed, i), which is how warm-up and timed inputs
stay disjoint: they come from disjoint index ranges.

``make`` only builds inputs; ``run`` is the timed call into knotlab; ``check``
compares the output with the expectation ``make`` attached, taken from
``oracles`` and never from knotlab.  ``prepare`` is the set-up: ``setup``
(imports, table load), then the inputs of the first indices, built ahead.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


class Workload:
    name = ""
    round_size = 1
    warmup_slots = None  # slots run once before timing; None means one whole round
    trace_rounds = 1  # rounds in each pass of a traced run
    in_process = True  # False: knotlab runs in child processes

    def __init__(self, seed):
        self.seed = seed
        self.inputs = []

    def prepare(self, count):
        """Set up, then build the inputs of indices 0 .. count-1 ahead of the loop."""
        self.setup()
        self.inputs = [self.make(i) for i in range(count)]

    def input(self, index):
        return self.inputs[index] if index < len(self.inputs) else self.make(index)

    def rng(self, index):
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def slot(self, index):
        r, k = divmod(index, self.round_size)
        order = list(range(self.round_size))
        random.Random(f"{self.name}/{self.seed}/round/{r}").shuffle(order)
        return order[k]

    def make(self, index):
        return self.build(self.slot(index), self.rng(index))

    def warmup(self, base):
        slots = self.warmup_slots or range(self.round_size)
        return [self.build(s, self.rng(base + k)) for k, s in enumerate(slots)]


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _first(*checks):
    return next((c for c in checks if c), None)


# ---------------------------------------------------------------------------


class TableRewrites(Workload):
    """Identify a freshly perturbed diagram of a bundled knot against the table."""

    name = "table-rewrites"
    round_size = 15  # one slot per bundled record
    trace_rounds = 20

    def setup(self):
        from knotlab import knotdb

        self.table = knotdb.bundled_table()

    def build(self, slot, rng):
        return self.table[slot], rng.randrange(2**31)

    def run(self, inp, tracer=None):
        from knotlab import knotdb, moves

        rec, seed = inp
        pd = moves.reidemeister_perturb(rec.pd, moves=6, seed=seed)
        return knotdb.identify(pd, self.table)

    def check(self, inp, out):
        rec, _ = inp
        return _mismatch("identify", (out.matches, out.ambiguous), (((rec.name, "same"),), False))


# ---------------------------------------------------------------------------

# One round: (crossings, family) per slot.  Alexander by Lagrange
# interpolation costs roughly C^3.2, so most slots are small and the tail
# ends at the 50-crossing ceiling.  Families are fixed per slot so that every
# seed's round costs the same; the seed picks signs, fractions, companions
# and twists.  The median falls in the middle of the 16-crossing run and the
# 90th percentile in the middle of the eight 29-crossing torus slots, so
# neither sits on a step of the ladder.
LADDER = (
    [(15, f) for f in ("torus", "rational", "cable") * 7 + ("torus",)]
    + [(16, f) for f in ("rational", "double") * 3 + ("rational",)]
    + [(17, "torus"), (17, "rational"), (17, "cable"), (18, "rational"), (18, "double"),
       (19, "cable"), (20, "double"), (21, "rational"), (22, "double"), (23, "torus"),
       (24, "rational")]
    + [(29, "torus")] * 8
    + [(44, "double"), (50, "rational")]
)


class LargeDiagrams(Workload):
    """Build one 15-50 crossing diagram, then its invariants and genus certificate."""

    name = "large-diagrams"
    round_size = len(LADDER)
    warmup_slots = (0, 1, 2, 23)  # one 15- or 16-crossing input of each family

    def setup(self):
        from knotlab import diagram, knotdb

        self.companions = [
            (rec, diagram.writhe(rec.pd))
            for rec in knotdb.bundled_table()
            if len(rec.pd) <= 7
        ]

    def build(self, slot, rng):
        c, family = LADDER[slot]
        return getattr(self, "_" + family)(c, rng)

    def _torus(self, c, rng):
        n = c * rng.choice((1, -1))
        alex = oracles.torus_alexander(n)
        return {"build": ("torus_2n", n), "alexander": alex, "det": c,
                "sig": -(c - 1) if n > 0 else c - 1, "span_half": (c - 1) // 2,
                "alternating": True}

    def _rational(self, c, rng):
        while True:
            parts = rng.randint(2, 6)
            cuts = sorted(rng.sample(range(1, c), parts - 1))
            cf = [b - a for a, b in zip([0] + cuts, cuts + [c])]
            if cf[0] >= 2 and cf[-1] >= 2 and oracles.continuant(cf) % 2:
                break
        return {"build": ("rational_knot", cf), "det": oracles.continuant(cf),
                "alternating": True}

    def _cable(self, c, rng):
        rec, w = rng.choice([(r, w) for r, w in self.companions if 4 * len(r.pd) < c])
        j = (c - 4 * len(rec.pd)) * rng.choice((1, -1))
        f = j + 2 * w
        base = oracles.TEXTBOOK[rec.name][0]
        alex = oracles.cable_alexander(base, f)
        return {"build": ("cable2", rec.pd, f), "alexander": alex,
                "det": abs(oracles.at_minus_one(alex)),
                "span_half": len(base) - 1 + (abs(f) - 1) // 2}

    def _double(self, c, rng):
        options = []
        for rec, w in self.companions:
            d = c - 4 * len(rec.pd) - 2
            if d >= 0:
                options += [(rec, t) for t in {w + d // 2, w - d // 2} if t != 0]
        rec, twists = rng.choice(sorted(options, key=lambda o: (o[0].name, o[1])))
        m = abs(twists)
        return {"build": ("double", rec.pd, twists), "alexander": oracles.twist_form(m),
                "det": 4 * m + 1, "span_half": 1}

    def run(self, inp, tracer=None):
        from knotlab import constructions, invariants, seifert

        kind, *args = inp["build"]
        if kind == "double":
            companion, twists = args
            spec = constructions.DoubleSpec(companion, twists, 1 if twists > 0 else -1)
            pd = constructions.whitehead_double(spec)
        else:
            pd = getattr(constructions, kind)(*args)
        return invariants.invariant_tuple(pd), seifert.incompressibility_certificate(pd)

    def check(self, inp, out):
        tup, cert = out
        checks = [_mismatch("det", tup.determinant, inp["det"])]
        if "alexander" in inp:
            got = oracles.normalise(tup.alexander.coeffs)
            checks.append(_mismatch("alexander", got, inp["alexander"]))
            checks.append(_mismatch("genus bound", tup.genus_lower_bound, (len(got) - 1) // 2))
        if "sig" in inp:
            checks.append(_mismatch("signature", tup.signature, inp["sig"]))
        if "span_half" in inp:
            checks.append(_mismatch("span_half", cert.span_half, inp["span_half"]))
        if inp.get("alternating"):
            # Seifert's algorithm on an alternating diagram gives a least-genus
            # surface, whose genus is half the Alexander span.
            checks.append(_mismatch("method", cert.method, "alternating"))
            checks.append(_mismatch("genus", cert.seifert_genus, cert.span_half))
        return _first(*checks)


# ---------------------------------------------------------------------------

# Sectors -> most curves.  Fourier-Motzkin elimination blows up past this:
# with 4 curves on 4 or 5 sectors about one model in a thousand runs past
# 0.5 s and one took 11 s, which no run of a few seconds can average out; at
# 5 sectors x 5 curves some take over a second, at 7 x 7 one did not finish
# in five minutes.  Of 100,000 models at 5 x 3 and 3 x 4 none took over 31 ms.
MAX_CURVES = {3: 4, 4: 3, 5: 3}
GRID_SECTORS = 3  # brute-force weight grid {1..4}^n only up to this many sectors
GRID_TOP = 4


def random_model(rng, n, k, feasible):
    """Model records with a planted answer, as (sectors, curves, expectation).

    Feasible: weights w in {1..4}^n are chosen first and every curve satisfies
    w[merged] = w[sheet1] + w[sheet2].  Infeasible: one curve has its merged
    side as one of its own sheets, forcing the other sheet's weight to 0.
    Relations follow a planted 2-colouring, so the model is transversely
    orientable unless the self-sheet relation is set to 'opposite'.
    """
    colour = [rng.randrange(2) for _ in range(n)]
    if feasible:
        while True:
            w = [rng.randint(1, GRID_TOP) for _ in range(n)]
            triples = [(m, a, b) for m in range(n) for a in range(n) for b in range(a, n)
                       if w[m] == w[a] + w[b]]
            if triples:
                break
        triples = [rng.choice(triples) for _ in range(k)]
    else:
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        m = rng.randrange(n)
        planted = rng.randrange(k)
        triples[planted] = (m, m, rng.randrange(n))
    flip = not feasible and rng.random() < 0.5
    sectors = [(f"S{i}", rng.randint(-3, -1)) for i in range(n)]
    curves, rows = [], []
    for idx, (m, a, b) in enumerate(triples):
        rel = ["same" if colour[m] == colour[s] else "opposite" for s in (a, b)]
        if flip and idx == planted:
            rel[0] = "opposite"
        curves.append((f"C{idx}", f"S{m}", f"S{a}", f"S{b}", *rel))
        row = [0] * n
        row[m] += 1
        row[a] -= 1
        row[b] -= 1
        rows.append(row)
    expect = {"closed": feasible, "orientable": not flip,
              "verdict": "persistently-laminar" if not feasible and not flip else "fails"}
    if n <= GRID_SECTORS:
        expect["grid"] = oracles.grid_feasible(rows, n, GRID_TOP)
    return sectors, curves, expect


def model_text(sectors, curves):
    lines = [f"sector {sid} {chi}" for sid, chi in sectors]
    lines += [f"curve {cid} {m} {a} {b} {r1} {r2} 0" for cid, m, a, b, r1, r2 in curves]
    lines += ["boundary F+ 1 1", "boundary F- 1 1", "disk D+ F+", "disk D- F-"]
    return "\n".join(lines) + "\n"


class BranchedModels(Workload):
    """Serialize, parse back and certify a seeded branched-surface model."""

    name = "branched-models"
    # every (sectors, curves, planted answer) once, plus three build_bf(g)
    SHAPES = [(n, k, f) for n, top in MAX_CURVES.items() for k in range(1, top + 1)
              for f in (True, False)] + [None] * 3
    round_size = len(SHAPES)
    trace_rounds = 100

    def setup(self):
        from knotlab import branched  # noqa: F401  (import is part of set-up)

    def build(self, slot, rng):
        from knotlab import branched

        shape = self.SHAPES[slot]
        if shape is None:
            # build_bf(g): one sector whose curve merges into itself.
            g = rng.randint(0, 6)
            return branched.build_bf(g), {"closed": False, "orientable": True,
                                          "verdict": "persistently-laminar",
                                          "grid": oracles.grid_feasible([[-1]], 1, GRID_TOP)}
        sectors, curves, expect = random_model(rng, *shape)
        model = branched.BranchedSurfaceModel(
            sectors,
            [branched.BranchCurve(cid, m, (a, b), 0, (r1, r2)) for cid, m, a, b, r1, r2 in curves],
            [("F+", 1, 1), ("F-", 1, 1)],
            [("D+", "F+"), ("D-", "F-")],
        )
        return model, expect

    def run(self, inp, tracer=None):
        from knotlab import branched

        text = branched.serialize_model(inp[0])
        return branched.persistence_certificate(branched.parse_model(text), True)

    def check(self, inp, out):
        expect = inp[1]
        checks = [
            _mismatch("closed surface", not out.carries_no_closed_surface, expect["closed"]),
            _mismatch("orientable", out.transversely_orientable, expect["orientable"]),
            _mismatch("verdict", out.verdict, expect["verdict"]),
        ]
        if "grid" in expect:
            checks.append(_mismatch("grid", not out.carries_no_closed_surface, expect["grid"]))
        return _first(*checks)


# ---------------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env.pop("KNOTLAB_TABLE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class CliSession(Workload):
    """One fresh `python -m knotlab.cli` process per operation (two for a pipe)."""

    name = "cli-session"
    # About 150 ms each for the first seven, 210 for identify, 245 for
    # paperlist.  The pipe takes 220-370 ms depending on whether its two
    # processes get a core each; with one pipe slot in thirteen, the 90th
    # percentile lies among the paperlist slots either way.
    SLOTS = ("validate", "invariants", "invariants", "seifert", "seifert", "bf-genus",
             "bf-model", "identify", "identify", "identify", "paperlist", "paperlist",
             "family")
    round_size = len(SLOTS)
    trace_rounds = 3
    in_process = False
    TIMEOUT = 120

    def setup(self):
        from knotlab import knotdb

        self.table = knotdb.bundled_table()
        self.env = _child_env()

    def build(self, slot, rng):
        from knotlab import diagram, moves

        kind = self.SLOTS[slot]
        if kind == "bf-genus":
            g = rng.randint(0, 8)
            return {"argv": [["bf", "--genus", str(g), "--certified"]], "stdin": "",
                    "expect": [("chi", str(-1 - 2 * g)), ("verdict", "persistently-laminar")]}
        if kind == "bf-model":
            shape = rng.choice(BranchedModels.SHAPES[:-3])
            sectors, curves, expect = random_model(rng, *shape)
            return {"argv": [["bf", "--model", "-", "--certified"]],
                    "stdin": model_text(sectors, curves),
                    "expect": [("carries_no_closed_surface", _bool(not expect["closed"])),
                               ("transversely_orientable", _bool(expect["orientable"])),
                               ("verdict", expect["verdict"])]}
        if kind == "paperlist":
            return {"argv": [["paperlist", "--check"]], "stdin": "",
                    "expect": [("family", f"{n} {2 * n + 6}_1 ok") for n in range(3)]}
        if kind == "family":
            n = rng.randint(0, 2)
            return {"argv": [["construct", "family", "--n", str(n)], ["identify"]], "stdin": "",
                    "expect": [("match", f"{2 * n + 6}_1 same"), ("matches", "1")]}
        rec = self.table[rng.randrange(len(self.table))]
        pd = moves.reidemeister_perturb(rec.pd, moves=3, seed=rng.randrange(2**31))
        text = diagram.serialize_pd(pd)
        alex, det, sig = oracles.TEXTBOOK[rec.name]
        half = (len(alex) - 1) // 2
        if kind == "validate":
            c = len(text.splitlines())
            expect = [("valid", "true"), ("crossings", str(c)), ("components", "1"),
                      ("faces", str(c + 2))]
        elif kind == "invariants":
            expect = [("alexander", alex), ("det", str(det)), ("|sig|", str(sig)),
                      ("genus_bound", str(half))]
        elif kind == "identify":
            expect = [("match", f"{rec.name} same"), ("matches", "1"), ("ambiguous", "false")]
        else:
            expect = [("cert_span_half", str(half)), ("genus>=", half)]
        return {"argv": [[kind]], "stdin": text, "expect": expect}

    def _command(self, argv, tracer):
        if tracer is None:
            return [sys.executable, "-m", "knotlab.cli", *argv]
        return [sys.executable, str(LAUNCHER), *argv]

    def run(self, inp, tracer=None):
        procs = []
        stdin = subprocess.PIPE
        for argv in inp["argv"]:
            env = dict(self.env, PERFBENCH_T0=repr(time.perf_counter()))
            p = subprocess.Popen(self._command(argv, tracer), stdin=stdin,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=env, cwd=ROOT, text=True)
            if procs:
                procs[-1].stdout.close()  # the child owns the read end now
            procs.append(p)
            stdin = p.stdout
        first, last = procs[0], procs[-1]
        try:
            if len(procs) == 1:
                out, err = first.communicate(inp["stdin"], timeout=self.TIMEOUT)
                errs = [err]
            else:
                first.stdin.close()
                out, err = last.communicate(timeout=self.TIMEOUT)
                errs = [first.stderr.read(), err]
                first.wait(timeout=self.TIMEOUT)
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()
                for stream in (p.stdin, p.stdout, p.stderr):
                    if stream is not None and not stream.closed:
                        stream.close()
        if tracer is not None:
            for err in errs:
                for line in err.splitlines():
                    if line.startswith("PERFBENCH_SPANS "):
                        tracer.adopt(json.loads(line[len("PERFBENCH_SPANS "):]),
                                     tracer._stack[-1])
        return [p.returncode for p in procs], out

    def check(self, inp, out):
        codes, text = out
        if any(codes):
            return f"exit codes {codes}: {text[-200:]!r}"
        pairs = [tuple(line.split(" ", 1)) if " " in line else (line, "")
                 for line in text.splitlines()]
        got = dict(pairs)
        if pairs[-1:] != [("status", "ok")]:
            return f"report does not end in 'status ok': {text[-200:]!r}"
        for key, want in inp["expect"]:
            if key == "alexander":
                value = oracles.normalise(int(c) for c in got.get(key, "").split())
            elif key == "|sig|":
                value = str(abs(int(got.get("sig", "nan"))))
            elif key == "genus>=":
                if int(got.get("genus", -1)) < want:
                    return f"seifert genus {got.get('genus')} below span/2 = {want}"
                continue
            elif key in ("family", "match"):
                value = want if (key, want) in pairs else [v for k, v in pairs if k == key]
            else:
                value = got.get(key)
            if value != want:
                return f"{key}: got {value!r}, want {want!r}"
        return None


def _bool(b):
    return "true" if b else "false"


WORKLOADS = {w.name: w for w in (TableRewrites, LargeDiagrams, BranchedModels, CliSession)}
