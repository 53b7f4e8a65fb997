"""Rational, torus, pretzel, cable, and double constructions."""

import pytest

from knotlab.constructions import (
    MAX_CROSSINGS,
    ConstructionError,
    DoubleSpec,
    Fraction,
    TwoBridgeFraction,
    cable2,
    cf_to_fraction,
    paper_family,
    pretzel,
    rational_knot,
    torus_2n,
    twist_knot,
    whitehead_double,
)
from knotlab.diagram import component_count, is_alternating, mirror, parse_pd, validate, writhe
from knotlab.invariants import alexander, determinant, invariant_tuple, signature

KINK = parse_pd("X 1,2,2,1")
TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")


def test_cf_to_fraction_values():
    assert cf_to_fraction([2, 4]) == Fraction(9, 2)
    assert cf_to_fraction([3]) == Fraction(3, 1)
    assert cf_to_fraction([2, 2]) == Fraction(5, 2)
    assert cf_to_fraction([3, 1, 3]) == Fraction(15, 4)
    assert cf_to_fraction([-2]) == Fraction(2, 1)  # normalized to 0 <= q < p


def test_cf_to_fraction_errors():
    with pytest.raises(ConstructionError):
        cf_to_fraction([])
    with pytest.raises(ConstructionError):
        cf_to_fraction([2, 0, 2])
    with pytest.raises(ConstructionError):
        cf_to_fraction([1, -1])  # evaluates to 0
    with pytest.raises(ConstructionError):
        cf_to_fraction([-1, 1, 1])  # zero denominator mid-fold


def test_fraction_validation():
    with pytest.raises(ConstructionError):
        Fraction(4, 2)
    with pytest.raises(ConstructionError):
        Fraction(0, 1)
    with pytest.raises(ConstructionError):
        Fraction(3, 3)
    assert Fraction(1, 0).p == 1
    assert Fraction is TwoBridgeFraction  # the former name stays an alias


def test_fraction_same_knot():
    assert Fraction(7, 2).same_knot(Fraction(7, 4))  # 2*4 = 1 mod 7
    assert Fraction(5, 2).same_knot(Fraction(5, 3))
    assert not Fraction(3, 1).same_knot(Fraction(3, 2))  # mirror trefoils
    assert Fraction(3, 1).same_knot(Fraction(3, 2), chirality=False)
    assert not Fraction(5, 2).same_knot(Fraction(7, 2))


def test_rational_knot_anchors():
    for cf, det in (([3], 3), ([2, 2], 5), ([2, 3], 7), ([2, 4], 9),
                    ([3, 4], 13), ([3, 1, 3], 15), ([2, 1, 1, 2], 13)):
        pd = rational_knot(cf)
        assert len(pd) == sum(abs(c) for c in cf), cf
        assert determinant(pd) == det, cf
        assert determinant(pd) == cf_to_fraction(cf).p, cf
        assert is_alternating(pd), cf
        assert validate(pd).ok, cf


def test_rational_knot_rejects_links():
    # even-p fractions close to 2-component links
    for cf in ([2], [4], [1, 1], [3, 1]):
        with pytest.raises(ConstructionError):
            rational_knot(cf)


def test_twist_knot():
    assert invariant_tuple(twist_knot(4)).key() == invariant_tuple(rational_knot([2, 2])).key()
    assert alexander(twist_knot(6)).coeffs == (2, -5, 2)
    assert determinant(twist_knot(8)) == 13
    for bad in (3, 2, 0, -4):
        with pytest.raises(ConstructionError):
            twist_knot(bad)


def test_torus_2n():
    for n, sig in ((3, -2), (5, -4), (7, -6), (9, -8)):
        pd = torus_2n(n)
        assert len(pd) == n
        assert writhe(pd) == n
        assert determinant(pd) == n
        assert signature(pd) == sig
        assert is_alternating(pd)
    neg = torus_2n(-3)
    assert signature(neg) == 2
    assert invariant_tuple(neg).key() == invariant_tuple(mirror(TREFOIL)).key()
    with pytest.raises(ConstructionError):
        torus_2n(4)


def test_pretzel():
    assert invariant_tuple(pretzel(1, 1, 1)).key() == invariant_tuple(TREFOIL).key()
    assert invariant_tuple(pretzel(-1, -1, -1)).key() == invariant_tuple(mirror(TREFOIL)).key()
    mixed = pretzel(3, 3, -3)
    assert alexander(mixed).coeffs == (2, -5, 2)
    assert determinant(mixed) == 9
    assert signature(mixed) == 0
    assert not is_alternating(mixed)
    # det P(p,q,r) = |pq + qr + rp| for odd columns
    assert determinant(pretzel(2, 3, 7)) == 41
    with pytest.raises(ConstructionError):
        pretzel(1, 0, 1)


def test_pretzel_links_are_allowed_as_diagrams():
    link = pretzel(2, 2, 2)
    assert validate(link).ok
    assert component_count(link) == 3


def test_cable2_anchors():
    cab = cable2(KINK, 3)
    assert invariant_tuple(cab).key() == invariant_tuple(TREFOIL).key()
    for companion in (KINK, TREFOIL, rational_knot([2, 2])):
        for f in (1, 3, 5, -3):
            pd = cable2(companion, f)
            assert validate(pd).ok
            assert component_count(pd) == 1
            assert determinant(pd) == abs(f), (len(companion), f)
            j = f - 2 * writhe(companion)
            assert len(pd) == 4 * len(companion) + abs(j)
    with pytest.raises(ConstructionError):
        cable2(KINK, 2)


def test_double_spec_validation():
    with pytest.raises(ConstructionError):
        DoubleSpec(TREFOIL, 1, 0)
    with pytest.raises(ConstructionError):
        DoubleSpec(TREFOIL, 1, 2)


def test_whitehead_double_matched_clasp():
    for m in range(4):
        pd = whitehead_double(DoubleSpec(TREFOIL, m, 1))
        delta = alexander(pd)
        if m == 0:
            assert delta.coeffs == (1,)
        else:
            assert delta.coeffs == (m, -(2 * m + 1), m), m
        assert determinant(pd) == 4 * m + 1, m


def test_whitehead_double_mismatched_clasp():
    for m in (1, 2, 3):
        pd = whitehead_double(DoubleSpec(TREFOIL, m, -1))
        assert alexander(pd).coeffs == (m, -(2 * m - 1), m), m
        assert determinant(pd) == 4 * m - 1, m


def test_whitehead_double_companion_independent():
    specs = [KINK, TREFOIL, rational_knot([2, 2]), torus_2n(-3)]
    keys = set()
    for companion in specs:
        pd = whitehead_double(DoubleSpec(companion, 2, 1))
        keys.add(invariant_tuple(pd).key())
    assert len(keys) == 1  # untwisted-pattern invariants see only the twist count


def test_whitehead_double_crossing_count():
    for companion in (KINK, TREFOIL):
        for twists in (-2, 0, 3):
            spec = DoubleSpec(companion, twists, 1 if twists >= 0 else -1)
            pd = whitehead_double(spec)
            inserted = 2 * twists - 2 * writhe(companion)
            assert len(pd) == 4 * len(companion) + abs(inserted) + 2


def test_paper_family():
    for n, name in ((0, "6_1"), (1, "8_1"), (2, "10_1"), (3, "12_1")):
        pd, got = paper_family(n)
        assert got == name
        assert invariant_tuple(pd).key() == invariant_tuple(twist_knot(2 * n + 6)).key()
    with pytest.raises(ConstructionError):
        paper_family(-1)


def test_twist_regions_are_capped():
    assert len(torus_2n(MAX_CROSSINGS - 1)) == MAX_CROSSINGS - 1
    for build in (
        lambda: torus_2n(MAX_CROSSINGS + 1),
        lambda: rational_knot([2, MAX_CROSSINGS + 2]),
        lambda: pretzel(3, -(MAX_CROSSINGS + 1), 3),
        lambda: whitehead_double(DoubleSpec(TREFOIL, MAX_CROSSINGS, 1)),
    ):
        with pytest.raises(ConstructionError, match="exceeds the limit"):
            build()
