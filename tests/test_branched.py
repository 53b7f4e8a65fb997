"""Branched-surface models, branch equations, and laminarity certificates."""

import itertools
import random

import pytest

from knotlab.branched import (
    BranchCurve,
    BranchedSurfaceModel,
    ModelError,
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
    ):
        with pytest.raises(ModelError):
            BranchedSurfaceModel(sectors, curves, boundary, disks)


def test_elimination_bound_is_a_domain_error(capsys, tmp_path):
    from knotlab.cli import main

    # 7 sectors, 7 curves: one elimination step would need millions of rows
    rng = random.Random(4)
    curves = []
    for k in range(7):
        merged, s1, s2 = (f"S{rng.randrange(7)}" for _ in range(3))
        curves.append(BranchCurve(f"c{k}", merged, (s1, s2), 0, ("same", "same")))
    model = BranchedSurfaceModel([(f"S{i}", -1) for i in range(7)], curves, [], [])
    with pytest.raises(ModelError, match="too large"):
        carries_closed_surface(model)
    path = tmp_path / "big.model"
    path.write_text(serialize_model(model), encoding="utf-8")
    assert main(["bf", "--model", str(path)]) == 1
    out = capsys.readouterr().out
    assert "status error" in out and "too large" in out


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
    ):
        with pytest.raises(ModelError):
            parse_model(text)
