"""Alexander polynomial, Goeritz signature, determinant, genus bound."""

import pytest

from knotlab.constructions import cable2, rational_knot, torus_2n
from knotlab.diagram import ValidationError, mirror, parse_pd
from knotlab.invariants import (
    _goeritz_determinant,
    alexander,
    alexander_matrix,
    determinant,
    genus_lower_bound,
    invariant_tuple,
    signature,
)
from knotlab.laurent import LaurentPoly
from knotlab.moves import reidemeister_perturb

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
KINK = parse_pd("X 1,2,2,1")
FIG8 = rational_knot([2, 2])


def test_alexander_anchors():
    assert alexander(TREFOIL).coeffs == (1, -1, 1)
    assert alexander(FIG8).coeffs == (1, -3, 1)
    assert alexander(torus_2n(5)).coeffs == (1, -1, 1, -1, 1)
    assert alexander(KINK) == LaurentPoly.const(1)
    assert alexander(rational_knot([2, 3])).coeffs == (2, -3, 2)


def test_alexander_matrix_shape():
    m = alexander_matrix(TREFOIL)
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    # each Wirtinger row mentions exactly three arcs and sums to 0 at t=1...
    for row in m:
        total = sum(p.evaluate(1) for p in row)
        assert total == 0


def test_fox_minor_independence():
    for pd in (TREFOIL, FIG8):
        base = alexander(pd)
        n = len(pd)
        for i in range(n):
            for j in range(n):
                assert alexander(pd, drop_column=j, drop_row=i) == base, (i, j)


def test_alexander_drop_bounds():
    with pytest.raises(ValueError):
        alexander(TREFOIL, drop_column=3)
    with pytest.raises(ValueError):
        alexander(TREFOIL, drop_row=-4)


def test_alexander_symmetry_and_unit():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([2, 4]), rational_knot([3, 1, 3])):
        delta = alexander(pd)
        assert delta.evaluate(1) in (1, -1)
        assert delta.coeffs == tuple(reversed(delta.coeffs))


def test_signature_anchors():
    assert signature(TREFOIL) == -2
    assert signature(mirror(TREFOIL)) == 2
    assert signature(FIG8) == 0
    assert signature(torus_2n(5)) == -4
    assert signature(torus_2n(7)) == -6
    assert signature(KINK) == 0


def test_signature_color_independent():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([3, 4]), KINK):
        assert signature(pd, color="white") == signature(pd, color="black")


def test_signature_of_large_forms():
    """Goeritz forms of 400, 800 and 190 rows, far larger than any table record."""
    assert signature(torus_2n(401)) == -400
    tup = invariant_tuple(torus_2n(801))
    assert (tup.determinant, tup.signature) == (801, -800)
    cable = cable2(cable2(cable2(TREFOIL, 1), 1), 1)
    assert len(cable) == 353
    assert signature(cable, "white") == signature(cable, "black")


def test_determinant_two_routes():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([2, 4]), rational_knot([3, 1, 3])):
        det = determinant(pd)
        assert det == abs(alexander(pd).evaluate(-1))
        assert det == _goeritz_determinant(pd)
        assert det == _goeritz_determinant(pd, color="black")
    assert determinant(TREFOIL) == 3
    assert determinant(FIG8) == 5


def test_genus_lower_bound():
    assert genus_lower_bound(KINK) == 0
    assert genus_lower_bound(TREFOIL) == 1
    assert genus_lower_bound(torus_2n(5)) == 2
    assert genus_lower_bound(rational_knot([2, 1, 1, 2])) == 2


def test_invariant_tuple_fields_and_key():
    tup = invariant_tuple(TREFOIL)
    assert tup.alexander.coeffs == (1, -1, 1)
    assert tup.determinant == 3
    assert tup.signature == -2
    assert tup.genus_lower_bound == 1
    assert tup.key() == (tup.alexander, 3, -2, 1)


def test_mirror_behaviour():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([3, 4])):
        m = mirror(pd)
        assert alexander(m) == alexander(pd)
        assert determinant(m) == determinant(pd)
        assert signature(m) == -signature(pd)


def test_tuple_stable_under_seeded_rewrites():
    base = invariant_tuple(FIG8).key()
    for seed in range(6):
        out = reidemeister_perturb(FIG8, moves=8, seed=seed)
        assert invariant_tuple(out).key() == base, f"seed {seed}"


def test_rejects_links():
    hopf = parse_pd("X 1,4,2,3\nX 3,2,4,1")
    with pytest.raises(ValidationError):
        invariant_tuple(hopf)
    with pytest.raises(ValidationError):
        signature(hopf)
    with pytest.raises(ValidationError):
        determinant(hopf)
    with pytest.raises(ValidationError):
        genus_lower_bound(hopf)
