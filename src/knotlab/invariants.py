"""Exact integer invariants of knot diagrams.

Alexander polynomial by Fox calculus on the Wirtinger presentation,
determinant computed two independent ways (|Alexander at -1| and the Goeritz
determinant) that must agree, and the signature from the Goeritz form with
the Gordon-Litherland correction.  One sparse elimination of the Goeritz form
gives both its signature and its determinant, the product of its pivots;
the dense Bareiss det_int is kept only as the reference the tests compare
that determinant against.

Sign conventions, fixed once and anchored by the positive trefoil:

* eta(c) = -1 when the carrier color occupies the corner diagonal {0,2} of
  crossing c, +1 when it occupies {1,3}.
* A crossing is type II when the two carrier-side strands run antiparallel:
  diagonal {0,2} with negative sign, or diagonal {1,3} with positive sign.
* signature = sig(Goeritz form with one face deleted) - mu, where
  mu = sum of eta over type II crossings.  Positive trefoil: -2.

Both checkerboard colors give the same signature; the test suite holds the
implementation to that.
"""

from __future__ import annotations

from collections import namedtuple

from .diagram import InconsistencyError, checkerboard, _require_knot, _valid
from .laurent import LaurentPoly, ONE, T, det_int, det_laurent, symmetric_signature

_MT = -T
_ONE_MINUS_T = ONE - T
_T_MINUS_ONE = T - ONE
_MINUS_ONE = -ONE


class InvariantTuple(
    namedtuple("InvariantTuple", "alexander determinant signature genus_lower_bound")
):
    __slots__ = ()

    def key(self):
        return (self.alexander, self.determinant, self.signature, self.genus_lower_bound)


def _arc_of(pd, rr):
    """Edge label -> Wirtinger arc index of a knot, and the number of arcs.

    An arc runs along the strand until the strand passes under; the incoming
    edge of slot 0 at each crossing is the last edge of its arc.
    """
    breaks = {x.a for x in pd.crossings}
    (cycle,) = rr.components
    start = next(i for i, e in enumerate(cycle) if e in breaks) + 1
    arc_of = {}
    arc = 0
    for e in cycle[start:] + cycle[:start]:
        arc_of[e] = arc
        if e in breaks:
            arc += 1
    return arc_of, arc


def alexander_matrix(pd):
    """Fox-derivative rows of the Wirtinger presentation, one per crossing.

    Row for a positive crossing with over arc o, incoming under arc u and
    outgoing under arc v: (1-t)*o + t*u - v.  Negative crossing (the relation
    conjugates the other way, then scaled by t): (t-1)*o + u - t*v.
    """
    rr = _require_knot(pd)
    arc_of, arcs = _arc_of(pd, rr)
    rows = []
    for ci, x in enumerate(pd.crossings):
        row = [LaurentPoly.const(0)] * arcs
        u = arc_of[x.a]
        v = arc_of[x.c]
        if rr.signs[ci] > 0:
            o = arc_of[x.b]
            row[o] = row[o] + _ONE_MINUS_T
            row[u] = row[u] + T
            row[v] = row[v] + _MINUS_ONE
        else:
            o = arc_of[x.d]
            row[o] = row[o] + _T_MINUS_ONE
            row[u] = row[u] + ONE
            row[v] = row[v] + _MT
        rows.append(row)
    return rows


def alexander(pd, drop_column=0, drop_row=None):
    """Canonical Alexander polynomial via an (n-1)x(n-1) Fox minor.

    Which row and column get dropped is immaterial up to units; the canonical
    form removes the unit, and the test suite quantifies over all choices.
    """
    rows = alexander_matrix(pd)
    n = len(rows)
    if not 0 <= drop_column < n:
        raise ValueError("drop_column out of range")
    if drop_row is None:
        drop_row = n - 1
    if not 0 <= drop_row < n:
        raise ValueError("drop_row out of range")
    minor = [
        [p for j, p in enumerate(row) if j != drop_column]
        for i, row in enumerate(rows)
        if i != drop_row
    ]
    return det_laurent(minor).canonical()


def _goeritz(pd, color):
    """Goeritz form of one checkerboard color plus the correction term.

    Returns (sparse rows of the form with the anchor face deleted, mu), in
    the row format symmetric_signature reads.  A crossing between carrier
    faces i != j adds eta to entries (i, i) and (j, j) and -eta to (i, j) and
    (j, i).
    """
    rr = _valid(pd)
    colors = checkerboard(pd)
    carrier = [i for i, c in enumerate(colors) if c == color]
    pos = {f: k - 1 for k, f in enumerate(carrier)}  # the anchor face maps to -1
    rows = [{} for _ in carrier[1:]]
    mu = 0
    for ci in range(len(pd)):
        corners = [k for k in range(4) if colors[rr.face_of_corner[(ci, k)]] == color]
        if corners not in ([0, 2], [1, 3]):
            raise InconsistencyError(f"crossing {ci}: carrier corners not diagonal")
        d02 = corners == [0, 2]
        eta = -1 if d02 else 1
        positive = rr.signs[ci] > 0
        if (d02 and not positive) or (not d02 and positive):
            mu += eta
        fi = pos[rr.face_of_corner[(ci, corners[0])]]
        fj = pos[rr.face_of_corner[(ci, corners[1])]]
        if fi != fj:
            for a, b in ((fi, fj), (fj, fi)):
                if a >= 0:
                    rows[a][a] = rows[a].get(a, 0) + eta
                    if b >= 0:
                        rows[a][b] = rows[a].get(b, 0) - eta
    return rows, mu


def signature(pd, color="white"):
    _require_knot(pd)
    rows, mu = _goeritz(pd, color)
    return symmetric_signature(rows)[0] - mu


def _goeritz_determinant(pd, color="white"):
    """|det| of the Goeritz form by dense Bareiss: the tests' reference."""
    rows, _ = _goeritz(pd, color)
    return abs(det_int([[r.get(j, 0) for j in range(len(rows))] for r in rows]))


def determinant(pd):
    """Knot determinant: |Alexander(-1)|, which must equal |det| of the Goeritz form."""
    return invariant_tuple(pd).determinant


def genus_lower_bound(pd):
    """Half the span of the Alexander polynomial."""
    return invariant_tuple(pd).genus_lower_bound


def invariant_tuple(pd):
    """All four invariants from one Alexander polynomial and one Goeritz form,
    each consistency check made once."""
    delta = alexander(pd)
    at_one = delta.evaluate(1)
    if at_one not in (1, -1):
        raise InconsistencyError(f"Alexander(1) = {at_one}, expected +-1")
    if not delta.is_palindromic():
        raise InconsistencyError(f"Alexander polynomial not palindromic: {delta}")
    rows, mu = _goeritz(pd, "white")
    sig, from_goeritz = symmetric_signature(rows)
    det = abs(delta.evaluate(-1))
    if det != abs(from_goeritz):
        raise InconsistencyError(
            f"determinant mismatch: |Alexander(-1)| = {det}, Goeritz = {abs(from_goeritz)}"
        )
    sig -= mu
    if sig % 2:
        raise InconsistencyError(f"odd knot signature {sig}")
    if delta.span % 2:
        raise InconsistencyError("Alexander span of a knot is odd")
    return InvariantTuple(delta, det, sig, delta.span // 2)
