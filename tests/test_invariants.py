"""Alexander polynomial, Goeritz signature, determinant, genus bound."""

import pytest

from knotlab import invariants
from knotlab.constructions import (
    DoubleSpec,
    cable2,
    paper_family,
    rational_knot,
    torus_2n,
    whitehead_double,
)
from knotlab.diagram import InconsistencyError, ValidationError, checkerboard, mirror, parse_pd
from knotlab.invariants import (
    _goeritz,
    _goeritz_determinant,
    alexander,
    alexander_matrix,
    determinant,
    genus_lower_bound,
    invariant_tuple,
    signature,
)
from knotlab.knotdb import bundled_table
from knotlab.laurent import LaurentPoly, symmetric_signature
from knotlab.moves import reidemeister_perturb
from knotlab.seifert import incompressibility_certificate

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


def test_fox_minor_independence(fox_minor):
    for pd in (TREFOIL, FIG8):
        base = alexander(pd)
        n = len(pd)
        for i in range(n):
            for j in range(n):
                assert fox_minor(pd, j, i) == base, (i, j)


def _route_agreement_corpus():
    """Diagrams the default region route and the Fox minor must agree on."""
    for rec in bundled_table():
        yield rec.name, rec.pd
        for moves in (8, 40):
            yield f"{rec.name} {moves} moves", reidemeister_perturb(rec.pd, moves=moves, seed=moves)
    cable = TREFOIL
    for fold in (1, 2, 3):
        cable = cable2(cable, 1)
        yield f"{fold}-fold trefoil cable", cable
    for twists in (-2, 0, 3):
        for clasp in (1, -1):
            yield f"double {twists} {clasp}", whitehead_double(DoubleSpec(torus_2n(5), twists, clasp))
    for n in range(4):
        yield f"family {n}", paper_family(n)[0]
    yield "rational 31", rational_knot([2, 3, 5, 7, 9, 5])
    yield "torus 801", torus_2n(801)
    # two corners of one crossing in the same face: their labels add up
    yield "kink", KINK
    for site in range(24):  # 6 wires, 4 kinds of kink on each
        yield f"trefoil r1+ {site}", reidemeister_perturb(TREFOIL, moves=[("r1+", site)])
        yield f"trefoil r1+ {site} twice", reidemeister_perturb(
            TREFOIL, moves=[("r1+", site), ("r1+", site)]
        )


def test_region_route_matches_fox_minor(fox_minor):
    for name, pd in _route_agreement_corpus():
        assert alexander(pd) == fox_minor(pd, len(pd) - 1, len(pd) - 1), name


@pytest.fixture
def det_calls(monkeypatch):
    """Counts the Alexander eliminations that invariants runs, from an empty memo."""
    calls = []
    real = invariants.det_laurent

    def counted(minor):
        calls.append(len(minor))
        return real(minor)

    monkeypatch.setattr(invariants, "det_laurent", counted)
    monkeypatch.setattr(invariants, "_last", (None, None))
    return calls


def test_tuple_and_certificate_share_one_alexander(det_calls):
    pd = torus_2n(7)
    tup = invariant_tuple(pd)
    cert = incompressibility_certificate(pd)
    assert len(det_calls) == 1
    assert cert.span_half == tup.genus_lower_bound == 3


def test_equal_diagrams_do_not_share_alexander(det_calls):
    first, second = torus_2n(7), torus_2n(7)
    assert first == second and first is not second
    for pd in (first, second):
        invariant_tuple(pd)
        incompressibility_certificate(pd)
    assert len(det_calls) == 2


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


def _color_signature(pd, color):
    """Signature from the Goeritz form of the chosen checkerboard color."""
    rows, mu = _goeritz(pd, color)
    return symmetric_signature(rows)[0] - mu


def test_signature_color_independent():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([3, 4]), KINK):
        assert _color_signature(pd, "white") == _color_signature(pd, "black")


def test_signature_of_large_forms():
    """Goeritz forms of 400, 800 and 190 rows, far larger than any table record."""
    assert signature(torus_2n(401)) == -400
    tup = invariant_tuple(torus_2n(801))
    assert (tup.determinant, tup.signature) == (801, -800)
    cable = cable2(cable2(cable2(TREFOIL, 1), 1), 1)
    assert len(cable) == 353
    assert _color_signature(cable, "white") == _color_signature(cable, "black")


@pytest.mark.parametrize("color", ["red", "White", "", 0])
def test_signature_rejects_unknown_colors(color):
    """A bad color is the caller's error, not an inconsistent diagram."""
    with pytest.raises(ValueError, match=f"color must be 'white', 'black' or None, not {color!r}"):
        _goeritz(TREFOIL, color)


# Twist regions put nearly every face in one color: 401/2, 2/401 and 301/13
# faces (white/black); then a 50-crossing rational knot (34/18) and the table
# records whose colors tie (3/3, 4/4 and 5/5 faces).
_TABLE = {rec.name: rec.pd for rec in bundled_table()}
SMALLER_COLOR_CASES = {
    "torus401": torus_2n(401),
    "torus-401": torus_2n(-401),
    "double312": whitehead_double(DoubleSpec(torus_2n(5), 150, 1)),
    "rational50": rational_knot([3, 7, 11, 9, 20]),
    "4_1": _TABLE["4_1"],
    "6_3": _TABLE["6_3"],
    "8_9": _TABLE["8_9"],
}


@pytest.fixture
def goeritz_forms(monkeypatch):
    """The rows invariant_tuple hands to symmetric_signature, in call order,
    from an empty memo."""
    forms = []
    real = invariants.symmetric_signature

    def recording_signature(rows):
        forms.append(rows)
        return real(rows)

    monkeypatch.setattr(invariants, "symmetric_signature", recording_signature)
    monkeypatch.setattr(invariants, "_last", (None, None))
    return forms


@pytest.mark.parametrize(
    "name, rows",
    [("torus401", 1), ("torus-401", 1), ("double312", 12)],
)
def test_invariant_tuple_eliminates_the_smaller_form(goeritz_forms, name, rows):
    invariant_tuple(SMALLER_COLOR_CASES[name])
    assert [len(form) for form in goeritz_forms] == [rows]


@pytest.mark.parametrize("name", list(SMALLER_COLOR_CASES))
def test_smaller_color_agrees_with_both_colors(goeritz_forms, name):
    pd = SMALLER_COLOR_CASES[name]
    tup = invariant_tuple(pd)
    colors = checkerboard(pd)
    smaller = "black" if colors.count("black") < colors.count("white") else "white"
    assert goeritz_forms == [_goeritz(pd, smaller)[0]]  # white on a tie
    for color in ("white", "black"):
        assert tup.signature == _color_signature(pd, color)
        assert tup.determinant == _goeritz_determinant(pd, color)
    assert signature(pd) == tup.signature


def test_determinant_two_routes():
    for pd in (TREFOIL, FIG8, torus_2n(5), rational_knot([2, 4]), rational_knot([3, 1, 3])):
        det = determinant(pd)
        assert det == abs(alexander(pd).evaluate(-1))
        assert det == _goeritz_determinant(pd)
        assert det == _goeritz_determinant(pd, color="black")
    assert determinant(TREFOIL) == 3
    assert determinant(FIG8) == 5


def test_every_public_invariant_is_cross_checked(monkeypatch):
    """A Goeritz determinant that disagrees with |Alexander(-1)| is an error
    whichever invariant is asked for."""
    real = invariants.symmetric_signature

    def wrong_determinant(rows):
        sig, det = real(rows)
        return sig, det + 1

    monkeypatch.setattr(invariants, "symmetric_signature", wrong_determinant)
    monkeypatch.setattr(invariants, "_last", (None, None))
    for public in (alexander, signature, determinant, genus_lower_bound):
        with pytest.raises(InconsistencyError, match="determinant mismatch"):
            public(TREFOIL)


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
