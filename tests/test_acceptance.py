"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each criterion runs inside its stated wall-clock budget and prints
`criterion N (<label>): PASS|FAIL ...` on the live terminal.
"""

import itertools
import time

from knotlab.branched import (
    BranchCurve,
    BranchedSurfaceModel,
    branch_equations,
    build_bf,
    carries_closed_surface,
    persistence_certificate,
)
from knotlab.cli import main
from knotlab.constructions import DoubleSpec, paper_family, rational_knot, twist_knot, whitehead_double
from knotlab.diagram import mirror, parse_pd, validate
from knotlab.invariants import _goeritz_determinant, alexander, invariant_tuple, signature
from knotlab.knotdb import bundled_table, identify, paper_list
from knotlab.moves import reidemeister_perturb
from knotlab.seifert import incompressibility_certificate, seifert_genus

UNKNOT = parse_pd("X 1,2,2,1")


def _run(capsys, number, label, budget, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL after {time.monotonic() - start:.2f}s")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({label}): {verdict} in {elapsed:.2f}s (budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} overran its budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_family_reproduction(capsys):
    def body():
        table = bundled_table()
        for n, name in ((0, "6_1"), (1, "8_1"), (2, "10_1")):
            pd, expected = paper_family(n)
            assert expected == name
            result = identify(pd, table)
            assert result.matches == ((name, "same"),), f"family {n}: {result.matches}"
            assert not result.ambiguous
            assert invariant_tuple(pd).key() == invariant_tuple(twist_knot(2 * n + 6)).key()

    _run(capsys, 1, "doubled family lands on 6_1/8_1/10_1", 1.0, body)


def test_criterion_2_two_bridge_oracle(capsys):
    def body():
        for m in range(2, 7):
            pd = rational_knot([2, 2 * m])
            tup = invariant_tuple(pd)
            assert tup.determinant == 4 * m + 1, m
            assert tup.alexander.coeffs == (m, -(2 * m + 1), m), m

    _run(capsys, 2, "[2,2m] determinant and Alexander form", 1.0, body)


def test_criterion_3_incompressibility_certificates(capsys):
    def body():
        count = 0
        for rec in bundled_table():
            if "alternating" not in rec.flags:
                continue
            count += 1
            cert = incompressibility_certificate(rec.pd)
            assert cert.method == "alternating", rec.name
            assert seifert_genus(rec.pd) == rec.invariants.alexander.span // 2, rec.name
        assert count == 15

    _run(capsys, 3, "alternating seeds certify genus = span/2", 5.0, body)


def test_criterion_4_branched_surface_certificates(capsys):
    def body():
        for g in range(11):
            model = build_bf(g)
            report = persistence_certificate(model, True)
            assert report.branch_curve_embedded, g
            assert report.carries_no_closed_surface, g
            assert report.transversely_orientable, g
            assert report.disks_on_distinct_components, g
            assert report.verdict == "persistently-laminar", g
            chi_h = sum(2 - 2 * genus - circles for _, genus, circles in model.horizontal_boundary)
            assert chi_h == 2 * model.euler_characteristic(), g
            rc = main(["bf", "--genus", str(g), "--certified"])
            out = capsys.readouterr().out
            assert rc == 0 and "verdict persistently-laminar" in out, g

    _run(capsys, 4, "build_bf checks and CLI verdict, g = 0..10", 1.0, body)


def test_criterion_5_invariant_soundness(capsys, fox_minor):
    def body():
        for rec in bundled_table():
            base = rec.invariants.key()
            for seed in range(100):
                pd = reidemeister_perturb(rec.pd, moves=6, seed=seed)
                tup = invariant_tuple(pd)
                delta = tup.alexander
                assert delta.evaluate(1) in (1, -1), (rec.name, seed)
                assert delta.coeffs == tuple(reversed(delta.coeffs)), (rec.name, seed)
                other = fox_minor(pd, len(pd) - 1, len(pd) // 2)
                assert other == delta, (rec.name, seed)
                assert tup.determinant == abs(delta.evaluate(-1)), (rec.name, seed)
                assert tup.determinant == _goeritz_determinant(pd), (rec.name, seed)
                assert signature(mirror(pd)) == -tup.signature, (rec.name, seed)
                assert tup.key() == base, (rec.name, seed)

    _run(capsys, 5, "15 seeds x 100 rewrites keep the tuple sound", 60.0, body)


def test_criterion_6_double_structure(capsys):
    def body():
        companions = (UNKNOT, parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3"), rational_knot([2, 2]))
        for companion in companions:
            for twists in range(-3, 4):
                spec = DoubleSpec(companion, twists, 1 if twists >= 0 else -1)
                pd = whitehead_double(spec)
                assert validate(pd).ok, (len(companion), twists)
                delta = alexander(pd)
                if delta.coeffs == (1,):
                    m = 0
                else:
                    m = delta.coeffs[0]
                    assert delta.coeffs == (m, -(2 * m + 1), m), (len(companion), twists)
                assert isinstance(m, int) and m >= 0, (len(companion), twists)

    _run(capsys, 6, "doubles validate with twist-knot Alexander form", 30.0, body)


def test_criterion_7_carried_surface_oracle(capsys):
    def body():
        for n in (1, 2, 3):
            sectors = [(f"S{i}", -1) for i in range(n)]
            curve_specs = [
                (m, s1, s2) for m in range(n) for s1 in range(n) for s2 in range(s1, n)
            ]
            weight_grid = list(itertools.product(range(1, 9), repeat=n))
            for k in range(4):
                for combo in itertools.combinations_with_replacement(curve_specs, k):
                    curves = [
                        BranchCurve(f"c{i}", f"S{m}", (f"S{a}", f"S{b}"), 0, ("same", "same"))
                        for i, (m, a, b) in enumerate(combo)
                    ]
                    model = BranchedSurfaceModel(sectors, curves, [], [])
                    rows = branch_equations(model)
                    got = carries_closed_surface(model)
                    want = any(
                        all(sum(c * x for c, x in zip(row, w)) == 0 for row in rows)
                        for w in weight_grid
                    )
                    assert got == want, f"{n} sectors, rows {rows}"

    _run(capsys, 7, "solver equals enumeration on all toy models", 10.0, body)


def test_criterion_8_paper_table_consistency(capsys):
    def body():
        names = paper_list()
        for required in ("6_1", "8_1", "10_1", "9_44", "9_46", "10_67", "10_146", "10_163"):
            assert required in names, required
        assert "10_139" not in names
        rc = main(["paperlist", "--check"])
        out = capsys.readouterr().out
        assert rc == 0 and "status ok" in out

    _run(capsys, 8, "published name list and CLI check", 1.0, body)
