"""Seifert circles, diagram genus, and incompressibility certificates."""

import pytest

from knotlab import invariants, seifert
from knotlab.constructions import rational_knot, torus_2n
from knotlab.diagram import InconsistencyError, ValidationError, is_alternating, parse_pd
from knotlab.invariants import genus_lower_bound
from knotlab.moves import reidemeister_perturb
from knotlab.seifert import incompressibility_certificate, seifert_circles, seifert_genus

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
KINK = parse_pd("X 1,2,2,1")


def test_trefoil_decomposition():
    dec = seifert_circles(TREFOIL)
    assert dec.circle_count == 2
    assert dec.genus == 1
    # one membership entry per edge label side walked; both circles used
    assert set(dec.circle_membership.values()) == {0, 1}
    assert dec.seifert_graph == ((0, 1), (0, 1), (0, 1))


def test_genus_anchors():
    assert seifert_genus(KINK) == 0
    assert seifert_genus(rational_knot([2, 2])) == 1  # figure eight
    assert seifert_genus(torus_2n(5)) == 2
    assert seifert_genus(torus_2n(7)) == 3
    assert seifert_genus(torus_2n(9)) == 4


def test_genus_euler_bookkeeping():
    """genus = (C - s + 1) / 2 for a knot diagram."""
    for pd in (TREFOIL, KINK, rational_knot([2, 2]), torus_2n(5), rational_knot([3, 1, 3])):
        dec = seifert_circles(pd)
        assert 2 * dec.genus == len(pd) - dec.circle_count + 1


def test_rejects_links():
    with pytest.raises(ValidationError):
        seifert_circles(parse_pd("X 1,4,2,3\nX 3,2,4,1"))


def test_certificate_alternating():
    cert = incompressibility_certificate(TREFOIL)
    assert cert.method == "alternating"
    assert cert.certified
    assert cert.seifert_genus == 1
    assert cert.span_half == 1


def test_certificate_span_equality():
    # one kink makes the diagram non-alternating but keeps genus = span/2
    pert = reidemeister_perturb(TREFOIL, moves=[("r1+", 0)])
    assert not is_alternating(pert)
    cert = incompressibility_certificate(pert)
    assert cert.method == "span-equality"
    assert cert.certified
    assert cert.seifert_genus == 1


def test_certificate_none_when_diagram_genus_inflated():
    # this rewrite inflates the diagram genus above the polynomial bound
    pert = reidemeister_perturb(TREFOIL, moves=8, seed=3)
    cert = incompressibility_certificate(pert)
    assert cert.method == "none"
    assert not cert.certified
    assert cert.seifert_genus > cert.span_half


def test_certified_genus_dominates_polynomial_bound():
    for pd in (TREFOIL, rational_knot([2, 2]), torus_2n(5), rational_knot([2, 3])):
        cert = incompressibility_certificate(pd)
        assert cert.certified
        assert cert.seifert_genus >= genus_lower_bound(pd)


def test_alternating_genus_check_is_live(monkeypatch):
    """An alternating diagram whose circle count gives a Seifert genus off
    span/2 is refused, not certified."""
    real = seifert.seifert_circles

    def undercounted(pd):
        dec = real(pd)
        return dec._replace(circle_count=dec.circle_count - 1)

    monkeypatch.setattr(seifert, "seifert_circles", undercounted)
    for pd in (TREFOIL, rational_knot([2, 2]), torus_2n(5)):
        with pytest.raises(InconsistencyError, match=r"Seifert genus \S+ != span/2 = \d+"):
            incompressibility_certificate(pd)
    # a diagram that does not alternate is not held to the equality
    incompressibility_certificate(reidemeister_perturb(TREFOIL, moves=8, seed=3))


def test_span_bound_check_is_live(monkeypatch):
    """A span-equality diagram with one Seifert circle too many has a
    surface of genus below span/2, which no Seifert surface has: refused."""
    real = seifert.seifert_circles

    def overcounted(pd):
        dec = real(pd)
        return dec._replace(circle_count=dec.circle_count + 1)

    kinked = [reidemeister_perturb(pd, moves=[("r1+", 0)]) for pd in (TREFOIL, torus_2n(5))]
    for pd in kinked:
        assert incompressibility_certificate(pd).method == "span-equality"
    monkeypatch.setattr(seifert, "seifert_circles", overcounted)
    for pd in kinked:
        with pytest.raises(InconsistencyError, match=r"Seifert genus \S+ is below span/2"):
            incompressibility_certificate(pd)


def test_signature_bound_check_is_live(monkeypatch):
    """A signature whose absolute value passes C - s + 1, the smoothing's
    2g, is refused on every certificate path."""
    real = invariants.invariant_tuple
    inflated = {}

    def oversigned(pd):
        tup = real(pd)
        return tup._replace(signature=-inflated[pd])

    monkeypatch.setattr(invariants, "invariant_tuple", oversigned)
    for pd in (
        TREFOIL,  # alternating
        reidemeister_perturb(TREFOIL, moves=[("r1+", 0)]),  # span-equality
        reidemeister_perturb(TREFOIL, moves=8, seed=3),  # none
    ):
        inflated[pd] = 2 * seifert_genus(pd) + 2
        with pytest.raises(InconsistencyError, match=r"\|signature\|/2 = \d+"):
            incompressibility_certificate(pd)
