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
    # the incoming under-strand turns onto the outgoing over-strand, and the
    # incoming over-strand onto the outgoing under-strand
    succ = {}
    for x, (i, o) in zip(pd.crossings, rr.over):
        succ[x.a] = x[o]
        succ[x[i]] = x.c
    circles = _orbits(succ, sorted(succ))
    membership = {e: i for i, circle in enumerate(circles) for e in circle}
    count = len(circles)
    # one Seifert-graph edge per crossing, between its two incoming strands' circles
    edges = [(membership[x.a], membership[x[i]]) for x, (i, _) in zip(pd.crossings, rr.over)]
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

    Any Seifert surface of genus g bounds span Δ <= 2g and |σ| <= 2g, so
    InconsistencyError is raised when the span or |σ| exceeds C - s + 1, and
    on an alternating diagram the span must equal it (Murasugi 1958; Crowell
    1959).
    """
    dec = seifert_circles(pd)
    tup = invariants.invariant_tuple(pd)
    span = tup.alexander.span
    half = span // 2
    twice_genus = len(pd) - dec.circle_count + 1
    if span > twice_genus or abs(tup.signature) > twice_genus:
        raise InconsistencyError(
            f"Seifert genus {twice_genus / 2:g} is below span/2 = {span / 2:g} "
            f"or |signature|/2 = {abs(tup.signature) / 2:g}"
        )
    if is_alternating(pd):
        if twice_genus != span:
            raise InconsistencyError(
                f"alternating diagram with Seifert genus {twice_genus / 2:g} != "
                f"span/2 = {half}"
            )
        method = "alternating"
    elif dec.genus == half:
        method = "span-equality"
    else:
        method = "none"
    return IncompressibilityCertificate(method, dec.genus, half)


def seifert_genus(pd):
    return seifert_circles(pd).genus
