"""Seifert's algorithm on knot diagrams.

The oriented smoothing replaces every crossing by two non-crossing arcs that
respect strand orientation; the resulting closed curves are the Seifert
circles.  Attaching a twisted band per crossing builds a surface whose genus
is (C - s + 1)/2 for a knot diagram with C crossings and s circles.
"""

from __future__ import annotations

from collections import namedtuple

from .diagram import InconsistencyError, is_alternating, _orbits, _ParityUnionFind, _require_knot
from . import invariants


# circle_membership maps edge label -> circle index; seifert_graph holds one
# (circle, circle) pair per crossing
SeifertDecomposition = namedtuple(
    "SeifertDecomposition", "circle_count circle_membership seifert_graph genus"
)


class IncompressibilityCertificate(
    namedtuple("IncompressibilityCertificate", "method seifert_genus span_half")
):
    """`method` is "alternating", "span-equality" or "none"."""

    __slots__ = ()

    @property
    def certified(self):
        return self.method != "none"


def seifert_circles(pd):
    rr = _require_knot(pd)
    succ = {}
    for ci, x in enumerate(pd.crossings):
        if rr.signs[ci] > 0:
            succ[x.a] = x.d
            succ[x.b] = x.c
        else:
            succ[x.a] = x.b
            succ[x.d] = x.c
    circles = _orbits(succ, sorted(succ))
    membership = {e: i for i, circle in enumerate(circles) for e in circle}
    count = len(circles)
    edges = []
    for ci, x in enumerate(pd.crossings):
        over_in = x.b if rr.signs[ci] > 0 else x.d
        edges.append((membership[x.a], membership[over_in]))
    twice_genus = len(pd) - count + 1
    if twice_genus % 2:
        raise InconsistencyError("C - s + 1 is odd on a knot diagram")
    uf = _ParityUnionFind(count)
    for u, v in edges:
        uf.union(u, v)
    if not uf.connected():
        raise InconsistencyError("Seifert graph of a connected diagram is split")
    return SeifertDecomposition(count, membership, tuple(edges), twice_genus // 2)


def incompressibility_certificate(pd):
    """Certify that this diagram's Seifert surface is incompressible.

    Two sufficient conditions are checked, in order: the diagram is
    alternating (Seifert's algorithm on an alternating projection gives a
    least-genus surface), or the surface genus meets the Alexander span bound
    genus >= span/2.  Least genus implies incompressible for knots.
    """
    dec = seifert_circles(pd)
    span = invariants.alexander(pd).span
    half = span // 2
    if is_alternating(pd):
        method = "alternating"
    elif dec.genus == half:
        method = "span-equality"
    else:
        method = "none"
    return IncompressibilityCertificate(method, dec.genus, half)


def seifert_genus(pd):
    return seifert_circles(pd).genus
