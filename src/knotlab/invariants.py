"""Exact integer invariants of knot diagrams.

Alexander polynomial by Fox calculus on the Wirtinger presentation,
determinant computed two independent ways (|Alexander at -1| and the Goeritz
determinant) that must agree, and the signature from the Goeritz form with
the Gordon-Litherland correction.

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

from dataclasses import dataclass

from .diagram import InconsistencyError, checkerboard, _require_knot, _valid
from .laurent import LaurentPoly, ONE, det_int, det_laurent, symmetric_signature

_T = LaurentPoly.t_power(1)
_MT = -_T
_ONE_MINUS_T = ONE - _T
_T_MINUS_ONE = _T - ONE
_MINUS_ONE = -ONE


@dataclass(frozen=True)
class InvariantTuple:
    alexander: LaurentPoly
    determinant: int
    signature: int
    genus_lower_bound: int

    def key(self):
        return (self.alexander, self.determinant, self.signature, self.genus_lower_bound)


def _arc_of(pd, rr):
    """Edge label -> Wirtinger arc index.

    An arc runs along the strand until the strand passes under; the incoming
    edge of slot 0 at each crossing is the last edge of its arc.
    """
    breaks = {x.a for x in pd.crossings}
    arc_of = {}
    arc = 0
    for cycle in rr.components:
        offsets = [i for i, e in enumerate(cycle) if e in breaks]
        if not offsets:
            for e in cycle:
                arc_of[e] = arc
            arc += 1
            continue
        start = offsets[0] + 1
        n = len(cycle)
        for i in range(n):
            e = cycle[(start + i) % n]
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
            row[u] = row[u] + _T
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
    """Goeritz matrix of one checkerboard color plus the correction term.

    Returns (reduced matrix with the anchor face deleted, mu).
    """
    rr = _valid(pd)
    colors = checkerboard(pd)
    carrier = [i for i, c in enumerate(colors) if c == color]
    pos = {f: k for k, f in enumerate(carrier)}
    n = len(carrier)
    g = [[0] * n for _ in range(n)]
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
            g[fi][fj] -= eta
            g[fj][fi] -= eta
    for i in range(n):
        g[i][i] = -sum(g[i])
    reduced = [[g[i][j] for j in range(1, n)] for i in range(1, n)]
    return reduced, mu


def signature(pd, color="white"):
    _require_knot(pd)
    reduced, mu = _goeritz(pd, color)
    return symmetric_signature(reduced) - mu


def _goeritz_determinant(pd, color="white"):
    reduced, _ = _goeritz(pd, color)
    return abs(det_int(reduced))


def _cross_checked_determinant(delta, reduced):
    """|delta(-1)| and |det(reduced Goeritz form)|, which must agree."""
    from_alexander = abs(delta.evaluate(-1))
    from_goeritz = abs(det_int(reduced))
    if from_alexander != from_goeritz:
        raise InconsistencyError(
            f"determinant mismatch: |Alexander(-1)| = {from_alexander}, "
            f"Goeritz = {from_goeritz}"
        )
    return from_alexander


def determinant(pd):
    """Knot determinant, cross-checked between two independent routes."""
    _require_knot(pd)
    return _cross_checked_determinant(alexander(pd), _goeritz(pd, "white")[0])


def _half_span(delta):
    if delta.span % 2:
        raise InconsistencyError("Alexander span of a knot is odd")
    return delta.span // 2


def genus_lower_bound(pd):
    return _half_span(alexander(pd))


def invariant_tuple(pd):
    """All four invariants from one Alexander polynomial and one Goeritz form."""
    delta = alexander(pd)
    at_one = delta.evaluate(1)
    if at_one not in (1, -1):
        raise InconsistencyError(f"Alexander(1) = {at_one}, expected +-1")
    if not delta.is_palindromic():
        raise InconsistencyError(f"Alexander polynomial not palindromic: {delta}")
    reduced, mu = _goeritz(pd, "white")
    det = _cross_checked_determinant(delta, reduced)
    sig = symmetric_signature(reduced) - mu
    if sig % 2:
        raise InconsistencyError(f"odd knot signature {sig}")
    return InvariantTuple(delta, det, sig, _half_span(delta))
