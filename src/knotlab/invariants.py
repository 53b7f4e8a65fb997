"""Exact integer invariants of knot diagrams.

invariant_tuple computes every invariant, each cross-check made once;
alexander, determinant, signature and genus_lower_bound each read one of its
fields.  The Alexander polynomial comes from Alexander's region matrix
(Trans. AMS 30, 1928), read off the faces that validating the diagram
already traced; the Fox calculus matrix of the Wirtinger presentation
(alexander_matrix) is the reference the tests hold it to.  The determinant
is computed two independent ways (|Alexander at -1| and the Goeritz
determinant) that must agree, and the signature from the Goeritz form with
the Gordon-Litherland correction.  One sparse elimination of the Goeritz
form, fraction-free and in ints throughout, gives both its signature and its
determinant, the last pivot as stored; the dense Bareiss det_int is kept
only as the reference the tests compare that determinant against.  Both
checkerboard colors give the same signature and |det| (Gordon-Litherland),
so invariant_tuple eliminates the form of the color with fewer faces, white
on a tie: on a long twist region one color holds nearly every face and the
other only a few.

Sign conventions, fixed once and anchored by the positive trefoil:

* eta(c) = -1 when the carrier color occupies the corner diagonal {0,2} of
  crossing c, +1 when it occupies {1,3}.
* A crossing is type II when the two carrier-side strands run antiparallel:
  diagonal {0,2} with negative sign, or diagonal {1,3} with positive sign.
* signature = sig(Goeritz form with one face deleted) - mu, where
  mu = sum of eta over type II crossings.  Positive trefoil: -2.

The test suite holds both colors to the same signature and |det|.
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
    conjugates the other way, then scaled by t): (t-1)*o + u - t*v.  Every
    (n-1)x(n-1) minor has determinant Delta up to a unit.  No invariant is
    computed from it: it is the Fox reference the tests hold the region
    route to.
    """
    rr = _require_knot(pd)
    arc_of, arcs = _arc_of(pd, rr)
    rows = []
    for ci, x in enumerate(pd.crossings):
        row = [LaurentPoly.const(0)] * arcs
        u = arc_of[x.a]
        v = arc_of[x.c]
        o = arc_of[x[rr.over[ci][0]]]
        if rr.signs[ci] > 0:
            row[o] = row[o] + _ONE_MINUS_T
            row[u] = row[u] + T
            row[v] = row[v] + _MINUS_ONE
        else:
            row[o] = row[o] + _T_MINUS_ONE
            row[u] = row[u] + ONE
            row[v] = row[v] + _MT
        rows.append(row)
    return rows


# Alexander's corner labels (Trans. AMS 30, 1928): corners 0 and 3 flank
# the incoming under edge, 1 and 2 the outgoing one.
_CORNER_LABEL = (T, _MT, ONE, _MINUS_ONE)


def _region_minor(pd):
    """Alexander's region matrix with the columns of two adjacent faces deleted.

    One row per crossing, one column per face; corners 0, 1, 2 and 3 add t,
    -t, 1 and -1 to the column of the face they lie in, so two corners of one
    crossing in the same face add up.  The deleted faces are the two beside
    the edge whose faces hold the most corners, the first such edge in
    crossing and slot order, so the densest columns go.  The square minor
    left has determinant Delta up to a unit.
    """
    rr = _require_knot(pd)
    faces = rr.faces
    face_of = rr.face_of_corner
    best = -1
    for u, v in rr.occ.values():
        fu, fv = face_of[u][0], face_of[v][0]
        size = len(faces[fu]) + len(faces[fv])
        if size > best:
            best, gone = size, (fu, fv)
    zero = LaurentPoly()
    rows = [[zero] * len(pd) for _ in pd.crossings]
    j = 0
    for f, face in enumerate(faces):
        if f in gone:
            continue
        for ci, k in face:
            row = rows[ci]
            row[j] = row[j] + _CORNER_LABEL[k] if row[j].coeffs else _CORNER_LABEL[k]
        j += 1
    return rows


def alexander(pd):
    """Canonical Alexander polynomial: the determinant of _region_minor,
    Alexander's own matrix, with the unit removed; see invariant_tuple."""
    return invariant_tuple(pd).alexander


def _goeritz(pd, color=None):
    """Goeritz form of one checkerboard color plus the correction term.

    color is "white", "black", or None for the color with fewer faces (white
    on a tie), whose form is the smallest.  Returns (sparse rows of the form
    with the anchor face deleted, mu), in the row format symmetric_signature
    reads.  A crossing between carrier faces i != j adds eta to entries
    (i, i) and (j, j) and -eta to (i, j) and (j, i).  Raises ValueError for
    any other color.
    """
    if color not in (None, "white", "black"):
        raise ValueError(f"color must be 'white', 'black' or None, not {color!r}")
    rr = _valid(pd)
    colors = checkerboard(pd)
    if color is None:
        color = "black" if 2 * colors.count("black") < len(colors) else "white"
    carrier = [i for i, c in enumerate(colors) if c == color]
    pos = {f: k - 1 for k, f in enumerate(carrier)}  # the anchor face maps to -1
    rows = [{} for _ in carrier[1:]]
    mu = 0
    face_of = rr.face_of_corner
    for ci in range(len(pd)):
        corners = [k for k in range(4) if colors[face_of[(ci, k)][0]] == color]
        if corners not in ([0, 2], [1, 3]):
            raise InconsistencyError(f"crossing {ci}: carrier corners not diagonal")
        d02 = corners == [0, 2]
        eta = -1 if d02 else 1
        positive = rr.signs[ci] > 0
        if (d02 and not positive) or (not d02 and positive):
            mu += eta
        fi = pos[face_of[(ci, corners[0])][0]]
        fj = pos[face_of[(ci, corners[1])][0]]
        if fi != fj:
            for a, b in ((fi, fj), (fj, fi)):
                if a >= 0:
                    rows[a][a] = rows[a].get(a, 0) + eta
                    if b >= 0:
                        rows[a][b] = rows[a].get(b, 0) - eta
    return rows, mu


def signature(pd):
    """Signature of the smaller Goeritz form minus the Gordon-Litherland
    correction; see invariant_tuple."""
    return invariant_tuple(pd).signature


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


_last = (None, None)  # (diagram object, its InvariantTuple)


def invariant_tuple(pd):
    """All four invariants from one Alexander polynomial and the smaller
    Goeritz form, each consistency check made once.

    The only place an invariant is computed: the other public functions each
    read one field of this tuple.  The tuple of the last diagram object asked
    is kept, and asking for that same object again (the tuple, then the
    Seifert certificate's alexander) returns it; diagrams are immutable, so
    one object has one tuple.  An equal but distinct diagram is computed
    afresh, and a tuple that fails a check is never kept.
    """
    global _last
    last_pd, last_tuple = _last  # one read: the pair is replaced whole
    if last_pd is pd:
        return last_tuple
    delta = det_laurent(_region_minor(pd)).canonical()
    at_one = delta.evaluate(1)
    if at_one not in (1, -1):
        raise InconsistencyError(f"Alexander(1) = {at_one}, expected +-1")
    if not delta.is_palindromic():
        raise InconsistencyError(f"Alexander polynomial not palindromic: {delta}")
    rows, mu = _goeritz(pd)
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
    tup = InvariantTuple(delta, det, sig, delta.span // 2)
    _last = (pd, tup)
    return tup
