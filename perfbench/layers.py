"""Spans around the calls into knotlab's layers, recorded from the benchmark side.

The tracer replaces each layer's entry function with a wrapper bound under
the name its caller looks up (for example ``invariants.det_laurent``, which
is what ``invariants.alexander`` calls).  A span records name, start, end,
parent span and operation id; spans stay in memory until the run ends.  A
layer's self time is its span's duration minus the time its child spans
cover.  Size counts are taken at the same boundaries, after the span's end
time, so computing them is not charged to the layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

_MOVE_KIND = {"r1+": "r1_add", "r1-": "r1_remove", "r2+": "r2_add", "r2-": "r2_remove", "r3": "r3"}


def _points(rows):
    """Degree bound + 1 of a Laurent matrix, as the interpolation determinant sees it."""
    degree = 0
    for row in rows:
        nonzero = [e for e in row if not e.is_zero()]
        if not nonzero:
            return 0
        lo = min(e.min_exp for e in nonzero)
        degree += max(e.max_exp for e in nonzero) - lo
    return degree + 1


def _alexander_det(tracer, args, result, parent):
    rows = args[0]
    return {"laurent.alexander_det.dim": len(rows), "laurent.alexander_det.points": _points(rows)}


def _dim(prefix):
    return lambda tracer, args, result, parent: {prefix + ".dim": len(args[0])}


def _sites(tracer, args, result, parent):
    return {"moves.sites." + _MOVE_KIND[args[1]]: len(result)}


def _rows(tracer, args, result, parent):
    return {"branched.equations.rows": len(result)}


def _sectors(tracer, args, result, parent):
    return {"branched.sectors": len(args[0].sectors)}


def _crossings(tracer, args, result, parent):
    if parent >= 0 and tracer.spans[parent][0] == "constructions.build":
        return {}  # counted once, at the outermost construction
    pd = result[0] if isinstance(result, tuple) else result
    return {"constructions.build.crossings": len(pd)}


# (module, attribute the caller looks up, span name, size counter)
BOUNDARIES = [
    ("knotlab.invariants", "det_laurent", "laurent.alexander_det", _alexander_det),
    ("knotlab.invariants", "det_int", "laurent.goeritz_det", _dim("laurent.goeritz_det")),
    ("knotlab.invariants", "symmetric_signature", "laurent.signature", _dim("laurent.signature")),
    ("knotlab.invariants", "alexander_matrix", "invariants.fox_matrix", None),
    ("knotlab.invariants", "_goeritz", "invariants.goeritz", None),
    ("knotlab.invariants", "invariant_tuple", "invariants.tuple", None),
    ("knotlab.knotdb", "invariant_tuple", "invariants.tuple", None),
    ("knotlab.cli", "invariant_tuple", "invariants.tuple", None),
    ("knotlab.moves", "reidemeister_perturb", "moves.perturb", None),
    ("knotlab.moves", "move_candidates", "moves.candidates", _sites),
    ("knotlab.wiring", "StrandGraph.faces", "wiring.faces", None),
    ("knotlab.wiring", "StrandGraph.to_diagram", "wiring.to_diagram", None),
    ("knotlab.diagram", "parse_pd", "diagram.parse", None),
    ("knotlab.knotdb", "parse_pd", "diagram.parse", None),
    ("knotlab.cli", "parse_pd", "diagram.parse", None),
    ("knotlab.diagram", "_resolve", "diagram.resolve", None),
    ("knotlab.seifert", "seifert_circles", "seifert.circles", None),
    ("knotlab.cli", "seifert_circles", "seifert.circles", None),
    ("knotlab.seifert", "incompressibility_certificate", "seifert.certificate", None),
    ("knotlab.cli", "incompressibility_certificate", "seifert.certificate", None),
    ("knotlab.constructions", "torus_2n", "constructions.build", _crossings),
    ("knotlab.constructions", "rational_knot", "constructions.build", _crossings),
    ("knotlab.constructions", "twist_knot", "constructions.build", _crossings),
    ("knotlab.constructions", "cable2", "constructions.build", _crossings),
    ("knotlab.constructions", "whitehead_double", "constructions.build", _crossings),
    ("knotlab.constructions", "paper_family", "constructions.build", _crossings),
    ("knotlab.branched", "parse_model", "branched.parse_model", None),
    ("knotlab.cli", "parse_model", "branched.parse_model", None),
    ("knotlab.branched", "branch_equations", "branched.equations", _rows),
    ("knotlab.branched", "carries_closed_surface", "branched.closed_surface", None),
    ("knotlab.branched", "transversely_orientable", "branched.orientable", None),
    ("knotlab.branched", "persistence_certificate", "branched.certificate", _sectors),
    ("knotlab.cli", "persistence_certificate", "branched.certificate", _sectors),
    ("knotlab.knotdb", "load_table", "knotdb.load_table", None),
    ("knotlab.cli", "load_table", "knotdb.load_table", None),
    ("knotlab.knotdb", "identify", "knotdb.identify", None),
    ("knotlab.cli", "identify", "knotdb.identify", None),
    ("knotlab.cli", "main", "cli.main", None),
]

# per_layer metric -> (span or size key, statistic).  "calls" and "self_ms"
# are per operation; "per_op" sums a size count per operation; "per_call"
# averages a size over the calls of the span that carries it.
LAYER_METRICS = {
    "laurent.alexander_det.calls": ("laurent.alexander_det", "calls"),
    "laurent.alexander_det.self_ms": ("laurent.alexander_det", "self_ms"),
    "laurent.alexander_det.dim": ("laurent.alexander_det", "per_call"),
    "laurent.alexander_det.points": ("laurent.alexander_det", "per_call"),
    "laurent.goeritz_det.calls": ("laurent.goeritz_det", "calls"),
    "laurent.goeritz_det.self_ms": ("laurent.goeritz_det", "self_ms"),
    "laurent.goeritz_det.dim": ("laurent.goeritz_det", "per_call"),
    "laurent.signature.calls": ("laurent.signature", "calls"),
    "laurent.signature.self_ms": ("laurent.signature", "self_ms"),
    "laurent.signature.dim": ("laurent.signature", "per_call"),
    "invariants.fox_matrix.self_ms": ("invariants.fox_matrix", "self_ms"),
    "invariants.goeritz.calls": ("invariants.goeritz", "calls"),
    "invariants.goeritz.self_ms": ("invariants.goeritz", "self_ms"),
    "invariants.tuple.calls": ("invariants.tuple", "calls"),
    "invariants.tuple.self_ms": ("invariants.tuple", "self_ms"),
    "moves.perturb.self_ms": ("moves.perturb", "self_ms"),
    "moves.candidates.calls": ("moves.candidates", "calls"),
    "moves.candidates.self_ms": ("moves.candidates", "self_ms"),
    "moves.sites.r1_add": (None, "per_op"),
    "moves.sites.r1_remove": (None, "per_op"),
    "moves.sites.r2_add": (None, "per_op"),
    "moves.sites.r2_remove": (None, "per_op"),
    "moves.sites.r3": (None, "per_op"),
    "wiring.faces.calls": ("wiring.faces", "calls"),
    "wiring.faces.self_ms": ("wiring.faces", "self_ms"),
    "wiring.to_diagram.self_ms": ("wiring.to_diagram", "self_ms"),
    "diagram.parse.calls": ("diagram.parse", "calls"),
    "diagram.parse.self_ms": ("diagram.parse", "self_ms"),
    "diagram.resolve.hits": (None, "per_op"),
    "diagram.resolve.misses": (None, "per_op"),
    "diagram.resolve.hit_ratio": (None, "hit_ratio"),
    "diagram.resolve.self_ms": ("diagram.resolve", "self_ms"),
    "seifert.circles.self_ms": ("seifert.circles", "self_ms"),
    "seifert.certificate.self_ms": ("seifert.certificate", "self_ms"),
    "constructions.build.self_ms": ("constructions.build", "self_ms"),
    "constructions.build.crossings": (None, "per_op"),
    "branched.parse_model.self_ms": ("branched.parse_model", "self_ms"),
    "branched.sectors": (None, "per_op"),
    "branched.equations.rows": (None, "per_op"),
    "branched.closed_surface.self_ms": ("branched.closed_surface", "self_ms"),
    "branched.orientable.self_ms": ("branched.orientable", "self_ms"),
    "branched.certificate.self_ms": ("branched.certificate", "self_ms"),
    "knotdb.load_table.calls": ("knotdb.load_table", "calls"),
    "knotdb.load_table.self_ms": ("knotdb.load_table", "self_ms"),
    "knotdb.identify.self_ms": ("knotdb.identify", "self_ms"),
    "cli.main.self_ms": ("cli.main", "self_ms"),
    "cli.process_ms": ("cli.process", "self_ms"),
}

# Set-up is traced once per run and reported whole, not per operation.
SETUP_METRICS = ("setup.knotdb.load_table.calls", "setup.knotdb.load_table.ms", "setup.traced_ms")

# Counts that must repeat exactly between two traced runs with one seed.
COUNT_METRICS = sorted(
    [m for m, (_, stat) in LAYER_METRICS.items() if stat != "self_ms"]
    + ["setup.knotdb.load_table.calls"]
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, sizes]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []
        self._cache0 = (0, 0)

    def wrap(self, name, fn, sizer=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, self._op, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if sizer is not None:
                rec[5] = sizer(self, args, result, parent)
            return result

        return traced

    def install(self):
        for module_name, attr, name, sizer in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, sizer))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def begin_op(self, op, name="op"):
        """Open the root span of one operation (or of set-up, named "setup")."""
        from knotlab import diagram

        self._op = op
        info = diagram._res.cache_info()
        self._cache0 = (info.hits, info.misses)
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, -1, op, None])

    def end_op(self):
        from knotlab import diagram

        rec = self.spans[self._stack.pop()]
        rec[2] = time.perf_counter()
        info = diagram._res.cache_info()
        rec[5] = {
            "diagram.resolve.hits": info.hits - self._cache0[0],
            "diagram.resolve.misses": info.misses - self._cache0[1],
        }
        self._op = None

    def adopt(self, child_spans, parent):
        """Append spans recorded in a child process under span index `parent`."""
        base = len(self.spans)
        for name, start, end, par, _, sizes in child_spans:
            self.spans.append([name, start, end, base + par if par >= 0 else parent, self._op, sizes])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, sizes in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "sizes": sizes or {}}) + "\n")


def unit_of(metric):
    if metric.endswith(("_ms", ".ms")):
        return "ms"
    return "ratio" if metric.endswith(("hit_ratio", "coverage")) else "count"


def _union(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, ops):
    """Per-operation layer metrics, set-up metrics, and the share of op time in spans."""
    child_time = [0.0] * len(spans)
    top = {}
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            top.setdefault(parent, []).append((start, end))
    calls, self_s, sizes = {}, {}, {}
    setup = dict.fromkeys(SETUP_METRICS, 0)
    op_time = covered = 0.0
    for idx, (name, start, end, parent, op, sz) in enumerate(spans):
        if op == "setup":
            if name == "knotdb.load_table":
                setup["setup.knotdb.load_table.calls"] += 1
                setup["setup.knotdb.load_table.ms"] += 1e3 * (end - start)
            elif name == "setup":
                setup["setup.traced_ms"] += 1e3 * (end - start)
            continue
        if op is None:
            continue  # client-side work between operations
        if name == "op":
            op_time += end - start
            covered += _union(top.get(idx, ()))
        else:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
        for key, value in (sz or {}).items():
            sizes[key] = sizes.get(key, 0) + value
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        if stat == "calls":
            value = calls.get(span, 0) / ops
        elif stat == "self_ms":
            value = 1e3 * self_s.get(span, 0.0) / ops
        elif stat == "per_call":
            value = sizes.get(metric, 0) / calls[span] if calls.get(span) else 0
        elif stat == "per_op":
            value = sizes.get(metric, 0) / ops
        else:
            hits = sizes.get("diagram.resolve.hits", 0)
            looked_up = hits + sizes.get("diagram.resolve.misses", 0)
            value = hits / looked_up if looked_up else 0
        out[metric] = value
    out.update(setup)
    out["trace.coverage"] = covered / op_time if op_time else 0
    return out
