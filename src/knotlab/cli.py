"""Command-line front end.

Every informational subcommand prints a deterministic key/value report
(one `key value` pair per line, repeated keys allowed) or, with --json,
the same payload as a JSON object with repeated keys collected into lists.
`construct` subcommands take no --json and print raw PD text, so their
output pipes straight into file-consuming subcommands.

One command path serves them all: each `_cmd_*(args, rep)` only adds pairs
to the report `main` made, and returns "error" if that report is a failure.
`main` emits once, replacing the report by `command`, `error` and `status
error` on a KnotlabError or OSError.  Exit codes: 0 ok, 1 domain error,
2 usage error.

Only `construct` and `paperlist --check` import the construction code, and
only --json imports `json`, so a process pays for the modules its subcommand
uses.  The names the benchmark's layer tracer wraps stay bound here at
module level.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from .diagram import KnotlabError, ParseError, parse_pd, serialize_pd, validate
from .invariants import invariant_tuple
from .seifert import incompressibility_certificate, seifert_circles
from .branched import build_bf, parse_model, persistence_certificate, serialize_model
from .knotdb import bundled_table, identify, load_table, paper_list


class _Report:
    def __init__(self, command):
        self.pairs = [("command", command)]

    def add(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.pairs.append((key, str(value)))

    def emit(self, as_json, status="ok"):
        self.pairs.append(("status", status))
        if as_json:
            import json

            obj = {}
            for k, v in self.pairs:
                if k in obj:
                    if not isinstance(obj[k], list):
                        obj[k] = [obj[k]]
                    obj[k].append(v)
                else:
                    obj[k] = v
            print(json.dumps(obj, indent=2))
        else:
            for k, v in self.pairs:
                print(f"{k} {v}".rstrip())


def _read_input(path, rep):
    """The text of a file or of stdin ('-'); its digest goes into the report."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        # a non-UTF-8 stdin arrives surrogate-escaped and fails here instead
        data = text.encode()
    except UnicodeError as e:
        source = "stdin" if path == "-" else repr(path)
        raise ParseError(f"input {source} is not UTF-8 text: {e.reason}") from None
    rep.add("input", f"sha256:{hashlib.sha256(data).hexdigest()}")
    return text


def _read_pd(args, rep):
    return parse_pd(_read_input(args.file, rep))


def _cmd_validate(args, rep):
    text = _read_input(args.file, rep)
    try:
        pd = parse_pd(text)
    except KnotlabError as e:
        rep.add("valid", False)
        rep.add("failure", str(e))
        return
    report = validate(pd)
    rep.add("valid", report.ok)
    rep.add("crossings", report.crossing_count)
    rep.add("components", report.component_count)
    if report.ok:
        rep.add("faces", report.face_count)
    for f in report.failures:
        rep.add("failure", f)


def _cmd_invariants(args, rep):
    tup = invariant_tuple(_read_pd(args, rep))
    rep.add("alexander", " ".join(str(c) for c in tup.alexander.coeffs))
    rep.add("det", tup.determinant)
    rep.add("sig", tup.signature)
    rep.add("genus_bound", tup.genus_lower_bound)


def _cmd_seifert(args, rep):
    pd = _read_pd(args, rep)
    dec = seifert_circles(pd)
    cert = incompressibility_certificate(pd)
    rep.add("circles", dec.circle_count)
    rep.add("genus", dec.genus)
    rep.add("cert_method", cert.method)
    rep.add("cert_genus", cert.seifert_genus)
    rep.add("cert_span_half", cert.span_half)
    rep.add("certified", cert.certified)


def _parse_cf(text):
    from . import constructions

    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as e:
        raise constructions.ConstructionError(f"bad continued fraction {text!r}") from e


def _cmd_construct(args, rep):
    from . import constructions

    if args.kind == "torus":
        pd = constructions.torus_2n(args.n)
    elif args.kind == "twist":
        pd = constructions.twist_knot(args.c)
    elif args.kind == "rational":
        pd = constructions.rational_knot(_parse_cf(args.cf))
    elif args.kind == "cable2":
        pd = constructions.cable2(_read_pd(args, rep), args.f)
    elif args.kind == "double":
        spec = constructions.DoubleSpec(_read_pd(args, rep), args.twists, args.clasp)
        pd = constructions.whitehead_double(spec)
    else:
        pd, _ = constructions.paper_family(args.n)
    print(serialize_pd(pd))


def _cmd_bf(args, rep):
    if args.model is not None:
        model = parse_model(_read_input(args.model, rep))
    else:
        rep.add("genus", args.genus)
        model = build_bf(args.genus)
    report = persistence_certificate(model, args.certified)
    rep.add("chi", model.euler_characteristic())
    for bid, genus, circles in model.horizontal_boundary:
        rep.add("boundary", f"{bid} {genus} {circles}")
    rep.add("branch_curve_embedded", report.branch_curve_embedded)
    rep.add("carries_no_closed_surface", report.carries_no_closed_surface)
    rep.add("transversely_orientable", report.transversely_orientable)
    rep.add("disks_on_distinct_components", report.disks_on_distinct_components)
    rep.add("incompressibility_certified", report.incompressibility_certified)
    rep.add("verdict", report.verdict)
    for note in report.notes:
        rep.add("note", note)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(serialize_model(model))
        rep.add("wrote", args.out)


def _resolve_table(path_arg):
    path = path_arg or os.environ.get("KNOTLAB_TABLE")
    if path:
        with open(path, encoding="utf-8") as f:
            return load_table(f), path
    return bundled_table(), "bundled"


def _cmd_identify(args, rep):
    pd = _read_pd(args, rep)
    table, source = _resolve_table(args.table)
    result = identify(pd, table)
    rep.add("table", source)
    for name, chirality in result.matches:
        rep.add("match", f"{name} {chirality}")
    rep.add("matches", len(result.matches))
    rep.add("ambiguous", result.ambiguous)


def _cmd_paperlist(args, rep):
    names = paper_list()
    rep.add("count", len(names))
    if args.check:
        from . import constructions

        table = bundled_table()
        failures = []
        for n in range(3):
            pd, expected = constructions.paper_family(n)
            result = identify(pd, table)
            found = [name for name, _ in result.matches]
            ok = found == [expected] and expected in names
            rep.add("family", f"{n} {expected} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(expected)
        if failures:
            rep.add("error", f"paper list check failed for {failures}")
            return "error"
    else:
        def key(n):
            a, b = n.split("_")
            return (int(a), int(b))

        for name in sorted(names, key=key):
            rep.add("name", name)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="knotlab",
        description="Knot diagram toolkit: validation, invariants, constructions, "
        "branched-surface certificates, identification.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def reporting(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--json", action="store_true", help="emit the report as JSON")
        return sp

    for name, run, help in (
        ("validate", _cmd_validate, "check a PD file"),
        ("invariants", _cmd_invariants, "Alexander/determinant/signature/genus"),
        ("seifert", _cmd_seifert, "Seifert circles, genus, certificate"),
    ):
        reporting(name, run, help).add_argument(
            "file", nargs="?", default="-", help="PD file ('-' = stdin)")

    c = sub.add_parser("construct", help="emit a constructed diagram as PD text")
    c.set_defaults(run=_cmd_construct)
    csub = c.add_subparsers(dest="kind", required=True)
    t = csub.add_parser("torus", help="(2,n) torus knot")
    t.add_argument("--n", type=int, required=True)
    tw = csub.add_parser("twist", help="c-crossing twist knot (even c >= 4)")
    tw.add_argument("--c", type=int, required=True)
    r = csub.add_parser("rational", help="2-bridge knot from a continued fraction")
    r.add_argument("--cf", required=True, help="entries, e.g. '2 4' or 2,4")
    cb = csub.add_parser("cable2", help="(2,f) cable of a companion PD")
    cb.add_argument("--f", type=int, required=True, help="odd total twisting")
    cb.add_argument("file", nargs="?", default="-")
    d = csub.add_parser("double", help="twisted Whitehead double of a companion PD")
    d.add_argument("--twists", type=int, required=True)
    d.add_argument("--clasp", type=int, default=1, choices=(1, -1))
    d.add_argument("file", nargs="?", default="-")
    fam = csub.add_parser("family", help="n-th doubled knot of the twist-knot family")
    fam.add_argument("--n", type=int, required=True)

    b = reporting("bf", _cmd_bf, "branched-surface model and certificate")
    source = b.add_mutually_exclusive_group(required=True)
    source.add_argument("--genus", type=int)
    source.add_argument("--model", help="read a model file instead of building")
    b.add_argument("--certified", action="store_true",
                   help="assert the spanning surface's incompressibility certificate")
    b.add_argument("--out", default=None, help="also write the model file")

    ident = reporting("identify", _cmd_identify, "match a diagram against the knot table")
    ident.add_argument("file", nargs="?", default="-")
    ident.add_argument("--table", default=None,
                       help="table file (default: $KNOTLAB_TABLE or the bundled table)")

    pl = reporting("paperlist", _cmd_paperlist, "the published persistent-lamination name list")
    pl.add_argument("--check", action="store_true",
                    help="rebuild the doubled family and verify it lands in the list")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    rep = _Report(args.cmd)
    try:
        status = args.run(args, rep) or "ok"
    except (KnotlabError, OSError) as e:
        rep = _Report(args.cmd)
        rep.add("error", str(e))
        status = "error"
    # construct has no --json: it prints PD text and reports only a failure
    if status == "error" or hasattr(args, "json"):
        rep.emit(getattr(args, "json", False), status)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
