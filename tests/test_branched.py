"""Branched-surface models, branch equations, and laminarity certificates."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from knotlab import branched
from knotlab.branched import (
    BranchCurve,
    BranchedSurfaceModel,
    ModelError,
    _feasible_positive,
    branch_equations,
    build_bf,
    carries_closed_surface,
    parse_model,
    persistence_certificate,
    serialize_model,
    transversely_orientable,
)


def test_build_bf_shape():
    for g in range(6):
        model = build_bf(g)
        assert model.sectors == (("S0", -1 - 2 * g),)
        (curve,) = model.branch_curves
        assert curve.merged_side == "S0"
        assert curve.sheet_sides == ("S0", "S0")
        assert curve.self_intersections == 0
        assert curve.orientation_relation == ("same", "same")
        assert model.horizontal_boundary == (("F+", g + 1, 1), ("F-", g + 1, 1))
        assert model.compressing_disks == (("D+", "F+"), ("D-", "F-"))
    with pytest.raises(ModelError):
        build_bf(-1)


def test_build_bf_boundary_euler_identity():
    """chi of the horizontal boundary doubles chi of the branched surface."""
    for g in range(11):
        model = build_bf(g)
        chi_b = model.euler_characteristic()
        chi_h = sum(2 - 2 * genus - circles for _, genus, circles in model.horizontal_boundary)
        assert chi_h == 2 * chi_b, g


def test_build_bf_checks():
    for g in range(6):
        model = build_bf(g)
        assert branch_equations(model) == [[-1]]
        assert not carries_closed_surface(model)
        assert transversely_orientable(model)


def test_carried_surface_exists():
    # w(A) = 2 w(B) has the strictly positive solution (2, 1)
    model = BranchedSurfaceModel(
        sectors=[("A", -2), ("B", -1)],
        branch_curves=[BranchCurve("c", "A", ("B", "B"), 0, ("same", "same"))],
        horizontal_boundary=[],
        compressing_disks=[],
    )
    assert branch_equations(model) == [[1, -2]]
    assert carries_closed_surface(model)


def test_orientability_flip():
    flipped = BranchedSurfaceModel(
        sectors=[("S0", -1)],
        branch_curves=[BranchCurve("G", "S0", ("S0", "S0"), 0, ("same", "opposite"))],
        horizontal_boundary=[],
        compressing_disks=[],
    )
    assert not transversely_orientable(flipped)
    chain = BranchedSurfaceModel(
        sectors=[("A", -1), ("B", -1)],
        branch_curves=[BranchCurve("c", "A", ("B", "B"), 0, ("opposite", "opposite"))],
        horizontal_boundary=[],
        compressing_disks=[],
    )
    assert transversely_orientable(chain)
    # seeded random models against a search over every sector 2-coloring
    rng = random.Random(3)
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 6)
        curves = []
        for k in range(rng.randint(0, 5)):
            merged, s1, s2 = (f"S{rng.randrange(n)}" for _ in range(3))
            rels = (rng.choice(("same", "opposite")), rng.choice(("same", "opposite")))
            curves.append(BranchCurve(f"c{k}", merged, (s1, s2), 0, rels))
        model = BranchedSurfaceModel([(f"S{i}", -1) for i in range(n)], curves, [], [])
        want = any(
            all(
                colors[int(c.merged_side[1:])] ^ colors[int(s[1:])] == (rel == "opposite")
                for c in curves
                for s, rel in zip(c.sheet_sides, c.orientation_relation)
            )
            for colors in itertools.product((0, 1), repeat=n)
        )
        assert transversely_orientable(model) == want, f"trial {trial}"
        seen.add(want)
    assert seen == {True, False}


def test_flags_invariant_under_relabeling():
    a = build_bf(2)
    b = BranchedSurfaceModel(
        sectors=[("base", -5)],
        branch_curves=[BranchCurve("gamma", "base", ("base", "base"), 0, ("same", "same"))],
        horizontal_boundary=[("top", 3, 1), ("bottom", 3, 1)],
        compressing_disks=[("d1", "top"), ("d2", "bottom")],
    )
    ra = persistence_certificate(a, True)
    rb = persistence_certificate(b, True)
    assert ra.flags() == rb.flags()
    assert ra.verdict == rb.verdict == "persistently-laminar"


def test_certificate_verdicts():
    model = build_bf(1)
    full = persistence_certificate(model, True)
    assert full.verdict == "persistently-laminar"
    assert all(full.flags())
    assert len(full.notes) == 1

    partial = persistence_certificate(model, False)
    assert partial.verdict == "essential-only-unknown"
    assert partial.flags()[:4] == (True, True, True, True)
    assert not partial.incompressibility_certified

    bad = BranchedSurfaceModel(
        sectors=model.sectors,
        branch_curves=[BranchCurve("G", "S0", ("S0", "S0"), 1, ("same", "same"))],
        horizontal_boundary=model.horizontal_boundary,
        compressing_disks=model.compressing_disks,
    )
    failing = persistence_certificate(bad, True)
    assert failing.verdict == "fails"
    assert not failing.branch_curve_embedded


def test_certificate_requires_two_disk_components():
    model = build_bf(0)
    one_disk = BranchedSurfaceModel(
        sectors=model.sectors,
        branch_curves=model.branch_curves,
        horizontal_boundary=model.horizontal_boundary,
        compressing_disks=[("D+", "F+")],
    )
    report = persistence_certificate(one_disk, True)
    assert not report.disks_on_distinct_components
    assert report.verdict == "fails"
    doubled = BranchedSurfaceModel(
        sectors=model.sectors,
        branch_curves=model.branch_curves,
        horizontal_boundary=model.horizontal_boundary,
        compressing_disks=[("D1", "F+"), ("D2", "F+")],
    )
    assert not persistence_certificate(doubled, True).disks_on_distinct_components


def test_multi_sector_note():
    model = BranchedSurfaceModel(
        sectors=[("A", -2), ("B", -1)],
        branch_curves=[BranchCurve("c", "A", ("B", "B"), 0, ("same", "same"))],
        horizontal_boundary=[("F1", 1, 1), ("F2", 1, 1)],
        compressing_disks=[("D1", "F1"), ("D2", "F2")],
    )
    report = persistence_certificate(model, True)
    assert len(report.notes) == 2


def _brute_force_carries(rows, n, bound=8):
    for w in itertools.product(range(1, bound + 1), repeat=n):
        if all(sum(c * x for c, x in zip(row, w)) == 0 for row in rows):
            return True
    return False


def test_solver_matches_enumeration_on_random_systems():
    """Small coefficients keep minimal positive solutions within the bound."""
    rng = random.Random(20)
    for trial in range(80):
        n = rng.randint(1, 3)
        sectors = [(f"S{i}", -1) for i in range(n)]
        curves = []
        for k in range(rng.randint(0, 3)):
            merged = f"S{rng.randrange(n)}"
            sheets = (f"S{rng.randrange(n)}", f"S{rng.randrange(n)}")
            curves.append(BranchCurve(f"c{k}", merged, sheets, 0, ("same", "same")))
        model = BranchedSurfaceModel(sectors, curves, [], [])
        rows = branch_equations(model)
        got = carries_closed_surface(model)
        want = _brute_force_carries(rows, n)
        assert got == want, f"trial {trial}: rows {rows}"


def test_model_validation_errors():
    with pytest.raises(ModelError):
        BranchCurve("c", "A", ("B",), 0, ("same", "same"))
    with pytest.raises(ModelError):
        BranchCurve("c", "A", ("B", "B"), 0, ("same", "sideways"))
    with pytest.raises(ModelError):
        BranchCurve("c", "A", ("B", "B"), -1, ("same", "same"))
    with pytest.raises(ModelError):
        branch_equations(
            BranchedSurfaceModel(
                sectors=[("A", -1)],
                branch_curves=[BranchCurve("c", "A", ("A", "Z"), 0, ("same", "same"))],
                horizontal_boundary=[],
                compressing_disks=[],
            )
        )
    with pytest.raises(ModelError):
        branch_equations(
            BranchedSurfaceModel([("A", -1), ("A", -2)], [], [], [])
        )
    with pytest.raises(ModelError):
        serialize_model(
            BranchedSurfaceModel([("A", -1)], [], [], [("D", "nowhere")])
        )
    # the constructor checks the model by itself, so no invalid model exists
    curve = BranchCurve("c", "A", ("A", "A"), 0, ("same", "same"))
    for sectors, curves, boundary, disks in (
        ([("A", -1)], [BranchCurve("c", "A", ("A", "Z"), 0, ("same", "same"))], [], []),
        ([("A", -1), ("A", -2)], [], [], []),
        ([("A", -1)], [curve, curve], [], []),
        ([("A", -1)], [], [("F", 1, 1), ("F", 2, 1)], []),
        ([("A", -1)], [], [("F", 1, 1)], [("D", "nowhere")]),
        ([("A", -1)], [], [("F", -2, 1)], []),
        ([("A", -1)], [], [("F", 1, -5)], []),
        ([("A", 2)], [curve], [], []),
        ([("A", -1), ("B", 3)], [], [], []),
    ):
        with pytest.raises(ModelError):
            BranchedSurfaceModel(sectors, curves, boundary, disks)


def test_counts_that_are_not_ints_are_refused():
    """int() would truncate a fractional genus into a model no surface has
    (sector chi -4 with boundary genus 2) and then certify it, so every count
    is taken as given and refused unless it is an int."""
    for g in (1.5, "1", True):
        with pytest.raises(ModelError, match="genus must be an int"):
            build_bf(g)
    for chi in ("1", -3.0, False):
        with pytest.raises(ModelError, match="sector A: chi must be an int"):
            BranchedSurfaceModel([("A", chi)], [], [], [])
    with pytest.raises(ModelError, match="F: genus must be an int"):
        BranchedSurfaceModel([("A", -1)], [], [("F", 1.0, 1)], [])
    with pytest.raises(ModelError, match="F: circle count must be an int"):
        BranchedSurfaceModel([("A", -1)], [], [("F", 1, "1")], [])
    with pytest.raises(ModelError, match="c: self-intersection count must be an int"):
        BranchCurve("c", "A", ("A", "A"), 0.0, ("same", "same"))
    with pytest.raises(ModelError, match="sector S0: chi must be an int"):
        build_bf(1)._replace(sectors=[("S0", -3.5)])


def test_elimination_bound_is_a_domain_error(capsys, tmp_path):
    from knotlab.cli import main

    # 7 sectors, 7 curves: one elimination step would need millions of rows
    rng = random.Random(4)
    curves = []
    for k in range(7):
        merged, s1, s2 = (f"S{rng.randrange(7)}" for _ in range(3))
        curves.append(BranchCurve(f"c{k}", merged, (s1, s2), 0, ("same", "same")))
    model = BranchedSurfaceModel([(f"S{i}", -1) for i in range(7)], curves, [], [])
    with pytest.raises(ModelError) as err:
        carries_closed_surface(model)
    assert str(err.value) == (
        "branch equations too large: eliminating sector 5 of 7 "
        "needs 3565956 inequalities (limit 50000)"
    )
    path = tmp_path / "big.model"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["bf", "--model", str(path)]) == 1
    out = capsys.readouterr().out
    assert "status error" in out and "too large" in out


def test_oversized_model_is_refused_before_it_is_built(capsys, tmp_path):
    from knotlab.cli import main

    # 5,000 sectors start 5,000 inequalities of 5,001 coefficients each
    text = "".join(f"sector S{i} -1\n" for i in range(5000))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ModelError) as err:
            carries_closed_surface(parse_model(text))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "branch equations too large: 5000 sectors and 0 curves "
        f"need 25005000 coefficients (limit {branched.MAX_COEFFICIENTS})"
    )
    assert elapsed < 1.0 and peak < 20 * 2**20, (elapsed, peak)
    path = tmp_path / "wide.model"
    path.write_text(text, encoding="utf-8")
    assert main(["bf", "--model", str(path), "--certified"]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"(limit {branched.MAX_COEFFICIENTS})\nstatus error\n")


def _wide_sparse_model(sectors=200, curves=6, seed=41):
    """Random curves on the first `curves` sectors of `sectors`, the rest
    untouched; the CI step "Wide sparse branched model is decided" builds the
    same text."""
    rng = random.Random(seed)
    text = "".join(f"sector S{i} -1\n" for i in range(sectors))
    for k in range(curves):
        m, a, b = (rng.randrange(curves) for _ in range(3))
        text += f"curve C{k} S{m} S{a} S{b} same same 0\n"
    return text


def test_curve_free_sectors_are_not_eliminated(capsys, tmp_path):
    """A sector on no curve has a zero column, satisfied by w = 1, so only
    the curved sectors enter elimination: 200 sectors cost what their 6
    curved ones do (1.8 s and 73.6 MB when every column was eliminated)."""
    from knotlab.cli import main

    text = _wide_sparse_model()
    model = parse_model(text)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        carried = carries_closed_surface(model)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 20 * 2**20, (elapsed, peak)
    curved = parse_model(_wide_sparse_model(sectors=6))
    assert carried is carries_closed_surface(curved) is False
    # the same model with its curved sectors listed last
    lines = text.splitlines(keepends=True)
    moved = parse_model("".join(lines[6:200] + lines[:6] + lines[200:]))
    assert carries_closed_surface(moved) is False
    path = tmp_path / "sparse.model"
    path.write_text(text, encoding="utf-8")
    assert main(["bf", "--model", str(path), "--certified"]) == 0
    assert capsys.readouterr().out.endswith("status ok\n")
    # sectors on no curve at all carry a surface; no sectors carry none
    assert carries_closed_surface(parse_model("sector A -1\nsector B 2\n"))
    assert not carries_closed_surface(BranchedSurfaceModel([], [], [], []))


def _fraction_feasible_positive(rows, n):
    """Reference decision: Fourier-Motzkin with every coefficient a Fraction."""
    if n == 0:
        return False
    ineqs = []
    for r in rows:
        ineqs.append(([Fraction(c) for c in r], Fraction(0)))
        ineqs.append(([Fraction(-c) for c in r], Fraction(0)))
    for i in range(n):
        ineqs.append(([Fraction(1 if j == i else 0) for j in range(n)], Fraction(-1)))
    for k in range(n):
        pos, neg, rest = [], [], []
        for coeffs, const in ineqs:
            if coeffs[k] > 0:
                pos.append((coeffs, const))
            elif coeffs[k] < 0:
                neg.append((coeffs, const))
            else:
                rest.append((coeffs, const))
        size = len(rest) + len(pos) * len(neg)
        if size > branched.MAX_INEQUALITIES:
            raise ModelError(
                f"branch equations too large: eliminating sector {k + 1} of {n} "
                f"needs {size} inequalities (limit {branched.MAX_INEQUALITIES})"
            )
        new = rest
        for pc, pk in pos:
            for nc, nk in neg:
                a, b = pc[k], -nc[k]
                coeffs = [a * nc[j] + b * pc[j] for j in range(n)]
                new.append((coeffs, a * nk + b * pk))
        ineqs = new
    return all(const >= 0 for _, const in ineqs)


def _outcome(solver, rows, n):
    try:
        return solver(rows, n)
    except ModelError as e:
        return str(e)


def test_feasible_positive_matches_fraction_reference(monkeypatch):
    """Integer elimination decides and refuses exactly as the Fraction one.

    A limit of 1,000 keeps the Fraction reference near a second: at 50,000 a
    few systems grow tens of thousands of Fraction rows, and these 300 take
    ~15 s on a 2-core machine.
    """
    monkeypatch.setattr(branched, "MAX_INEQUALITIES", 1000)
    rng = random.Random(11)
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 8)):
            row = [0] * n
            merged, s1, s2 = (rng.randrange(n) for _ in range(3))
            row[merged] += 1
            row[s1] -= 1
            row[s2] -= 1
            rows.append(row)
        want = _outcome(_fraction_feasible_positive, rows, n)
        assert _outcome(_feasible_positive, rows, n) == want, (trial, rows)
        seen.add(want if isinstance(want, bool) else "refused")
    assert seen == {True, False, "refused"}


def test_empty_model_carries_nothing():
    empty = BranchedSurfaceModel([], [], [], [])
    assert branch_equations(empty) == []
    assert not carries_closed_surface(empty)


def test_serialize_parse_round_trip():
    for model in (
        build_bf(0),
        build_bf(3),
        BranchedSurfaceModel(
            sectors=[("A", -2), ("B", -1)],
            branch_curves=[BranchCurve("c", "A", ("B", "B"), 0, ("same", "opposite"))],
            horizontal_boundary=[("F1", 2, 1)],
            compressing_disks=[("D1", "F1")],
        ),
    ):
        text = serialize_model(model)
        assert parse_model(text) == model
    commented = "# header\n\n" + serialize_model(build_bf(1)) + "# trailer\n"
    assert parse_model(commented) == build_bf(1)


def test_parse_model_errors():
    for text in (
        "secktor S0 -1",
        "sector S0",
        "sector S0 x",
        "curve c S0 S0 S0 same same",
        "sector S0 -1\ncurve c S0 S0 S0 same sidewise 0",
        "sector S0 -1\ndisk D F",
        "sector S0 -3\ncurve G S0 S0 S0 same same 0\nboundary F+ 2 1\nboundary F- 2 1\n"
        "disk D F+\ndisk D F-",
    ):
        with pytest.raises(ModelError):
            parse_model(text)
