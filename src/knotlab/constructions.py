"""Diagram generators: torus knots, rational knots, cables, doubles.

Twist-region handedness and closure conventions are frozen constants,
calibrated once against invariant anchors (positive trefoil signature -2,
rational determinants) and locked in by the test suite.
"""

from __future__ import annotations

from math import gcd

from .diagram import KnotlabError, validate, writhe, _occurrences, _Record, _valid
from .wiring import StrandGraph


class ConstructionError(KnotlabError):
    pass


# Largest diagram a construction builds.  Integer parameters grow a diagram
# through its twist regions and the companion's 2-parallel (4 crossings per
# companion crossing), so both check the whole graph before allocating.
MAX_CROSSINGS = 10_000


class TwoBridgeFraction(_Record):
    """2-bridge fraction p/q in lowest terms, 0 < q < p (q = 0 only for p = 1).

    Two fractions present the same knot iff q' = q or q*q' = 1 (mod p);
    replacing q by p - q mirrors the knot.
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q):
        self._set(p, q)
        if self.p < 1 or not 0 <= self.q < max(self.p, 2):
            raise ConstructionError(f"fraction {self.p}/{self.q} out of range")
        if self.p > 1 and gcd(self.p, self.q) != 1:
            raise ConstructionError(f"fraction {self.p}/{self.q} not reduced")

    def same_knot(self, other, chirality=True):
        if self.p != other.p:
            return False
        if self._class() == other._class():
            return True
        return not chirality and self._class(True) == other._class()

    def _class(self, mirrored=False):
        q = (self.p - self.q) % self.p if mirrored else self.q
        members = {q}
        if gcd(q, self.p) == 1:
            members.add(pow(q, -1, self.p))
        return frozenset(members)


def cf_to_fraction(cf):
    """Evaluate a continued fraction left to right: v -> c + 1/v.

    [2,4] -> 4 + 1/2 = 9/2.  Entries must be nonzero integers.
    """
    if not cf:
        raise ConstructionError("empty continued fraction")
    if any(c == 0 for c in cf):
        raise ConstructionError("zero entry in continued fraction")
    num, den = cf[0], 1
    for c in cf[1:]:
        if num == 0:
            raise ConstructionError("continued fraction hits a zero denominator")
        num, den = c * num + den, num
    if num == 0:
        raise ConstructionError("continued fraction evaluates to 0")
    if num < 0:
        num, den = -num, -den
    g = gcd(num, abs(den))
    num, den = num // g, den // g
    return TwoBridgeFraction(num, den % num if num > 1 else 0)


def _check_size(total):
    if total > MAX_CROSSINGS:
        raise ConstructionError(
            f"diagram of {total} crossings exceeds the limit of {MAX_CROSSINGS}"
        )


def _twist_nodes(g, count, positive):
    _check_size(len(g.over_vertical) + count)
    return [g.add_node(positive) for _ in range(count)]


def _h_chain(g, count, positive):
    """Horizontal twist region: `count` crossings between two west-east strands.

    Node ports counterclockwise: 0=SW, 1=SE, 2=NE, 3=NW.
    """
    ids = _twist_nodes(g, count, positive)
    for a, b in zip(ids, ids[1:]):
        g.connect((a, 2), (b, 3))
        g.connect((a, 1), (b, 0))
    first, last = ids[0], ids[-1]
    return (first, 3), (last, 2), (first, 0), (last, 1)


def _v_chain(g, count, positive):
    """Vertical twist region: strands enter at the north, exit at the south."""
    ids = _twist_nodes(g, count, positive)
    for a, b in zip(ids, ids[1:]):
        g.connect((a, 0), (b, 3))
        g.connect((a, 1), (b, 2))
    first, last = ids[0], ids[-1]
    return (first, 3), (first, 2), (last, 0), (last, 1)


# Handedness conventions for twist regions, anchored by rational_knot([3])
# being the positive trefoil and the determinant family
# rational_knot([2,2m]) -> 4m+1: a positive entry builds a positive chain.
def _twist_bottom(g, t, entry):
    """Add a vertical twist region below the tangle t = (nw, ne, sw, se)."""
    if entry == 0:
        return t
    nw, ne, sw, se = _v_chain(g, abs(entry), entry > 0)
    g.connect(t[2], nw)
    g.connect(t[3], ne)
    return t[0], t[1], sw, se


def _twist_right(g, t, entry):
    """Add a horizontal twist region right of the tangle t = (nw, ne, sw, se)."""
    if entry == 0:
        return t
    nw, ne, sw, se = _h_chain(g, abs(entry), entry > 0)
    g.connect(t[1], nw)
    g.connect(t[3], sw)
    return t[0], ne, t[2], se


def _build_rational_tangle(g, cf):
    t = _h_chain(g, abs(cf[0]), cf[0] > 0)
    for i, entry in enumerate(cf[1:]):
        if i % 2 == 0:
            t = _twist_bottom(g, t, entry)
        else:
            t = _twist_right(g, t, entry)
    return t


def _close(g, t, numerator):
    nw, ne, sw, se = t
    if numerator:
        g.connect(nw, ne)
        g.connect(sw, se)
    else:
        g.connect(nw, sw)
        g.connect(ne, se)
    return g.to_diagram()


def _validated_knot(pd, what):
    report = validate(pd)
    if not report.ok or report.component_count != 1:
        raise ConstructionError(f"{what} failed validation: {report.failures}")
    return pd


def rational_knot(cf):
    """4-plat diagram of the 2-bridge knot with continued fraction cf.

    A chain of odd length ends on a horizontal region and closes across the
    top and bottom; an even-length chain ends on a vertical region, leaving
    the tangle fraction inverted, so it closes across the sides instead.
    """
    frac = cf_to_fraction(cf)
    if frac.p % 2 == 0:
        raise ConstructionError(
            f"fraction {frac.p}/{frac.q} has even p: 2-component link, not a knot"
        )
    g = StrandGraph()
    pd = _close(g, _build_rational_tangle(g, list(cf)), len(cf) % 2 == 1)
    return _validated_knot(pd, "rational diagram")


def twist_knot(c):
    """The c-crossing twist knot, c even and at least 4: rational [2, c-2]."""
    if c % 2 or c < 4:
        raise ConstructionError(f"twist knot needs even c >= 4, got {c}")
    return rational_knot([2, c - 2])


def torus_2n(n):
    """Closed 2-braid with |n| crossings of sign(n); n odd for a knot."""
    if n % 2 == 0:
        raise ConstructionError(f"(2,{n}) closed braid is a 2-component link")
    g = StrandGraph()
    nw, ne, sw, se = _h_chain(g, abs(n), n > 0)
    g.connect(ne, nw)
    g.connect(se, sw)
    return g.to_diagram()


def pretzel(p, q, r):
    """Three-column pretzel diagram; columns are vertical twist regions."""
    if 0 in (p, q, r):
        raise ConstructionError("zero pretzel column")
    g = StrandGraph()
    cols = []
    for entry in (p, q, r):
        nw, ne, sw, se = _v_chain(g, abs(entry), entry > 0)
        cols.append((nw, ne, sw, se))
    for (l_nw, l_ne, l_sw, l_se), (r_nw, r_ne, r_sw, r_se) in zip(cols, cols[1:]):
        g.connect(l_ne, r_nw)
        g.connect(l_se, r_sw)
    g.connect(cols[-1][1], cols[0][0])
    g.connect(cols[-1][3], cols[0][2])
    return g.to_diagram()


# ---------------------------------------------------------------------------
# Satellite engine: 2-parallel of a companion diagram plus a spliced-in tangle


_TILE_PORT = {
    (0, 0): ("ws", 0),
    (0, 1): ("es", 0),
    (1, 0): ("es", 1),
    (1, 1): ("en", 1),
    (2, 0): ("en", 2),
    (2, 1): ("wn", 2),
    (3, 0): ("wn", 3),
    (3, 1): ("ws", 3),
}


def _doubled_with_gap(pd):
    """Blackboard 2-parallel of the companion with one doubled edge cut open.

    Each companion crossing becomes a 2x2 tile of four same-sign crossings
    (vertical lanes copy the under-strand, horizontal lanes the over-strand).
    Each companion edge becomes two parallel wires; the sub-lane index flips
    across every wire to keep the parallel copies untangled.  The two wires
    of edge 1 are left unwired: four stubs (a1, b1) on one side and (a2, b2)
    on the other, ready to receive a tangle.
    """
    _check_size(4 * len(pd))
    g = StrandGraph()
    tiles = []
    for _ in range(len(pd)):
        nodes = {name: g.add_node(False) for name in ("ws", "wn", "es", "en")}
        g.connect((nodes["ws"], 2), (nodes["wn"], 0))
        g.connect((nodes["es"], 2), (nodes["en"], 0))
        g.connect((nodes["es"], 3), (nodes["ws"], 1))
        g.connect((nodes["en"], 3), (nodes["wn"], 1))
        tiles.append(nodes)

    def tport(ci, slot, sub):
        name, port = _TILE_PORT[(slot, sub)]
        return (tiles[ci][name], port)

    occ = _occurrences(pd)
    for lab in sorted(occ):
        (c1, s1), (c2, s2) = occ[lab]
        if lab == 1:
            continue
        g.connect(tport(c1, s1, 0), tport(c2, s2, 1))
        g.connect(tport(c1, s1, 1), tport(c2, s2, 0))
    (c1, s1), (c2, s2) = occ[1]
    nw, sw = tport(c1, s1, 1), tport(c1, s1, 0)
    ne, se = tport(c2, s2, 0), tport(c2, s2, 1)
    return g, (nw, sw, ne, se)


def _splice_tangle(g, stubs, t):
    """Wire a tangle's corners (nw, ne, sw, se) into the cut, each to the
    stub at the same compass corner."""
    nw, sw, ne, se = stubs
    if t is None:
        g.connect(nw, ne)
        g.connect(sw, se)
        return
    for corner, stub in zip(t, (nw, ne, sw, se)):
        g.connect(corner, stub)


def cable2(pd, f):
    """(2,f)-cable of the companion: 2-parallel plus f - 2*writhe half-twists."""
    _valid(pd)
    if f % 2 == 0:
        raise ConstructionError(f"(2,{f}) cable is a 2-component link; f must be odd")
    j = f - 2 * writhe(pd)
    g, stubs = _doubled_with_gap(pd)
    t = _h_chain(g, abs(j), j > 0) if j else None
    _splice_tangle(g, stubs, t)
    return _validated_knot(g.to_diagram(), "cable")


class DoubleSpec(_Record):
    """Twisted Whitehead double parameters.

    ``twists`` is the absolute number of full twists in the pattern
    (writhe-compensated, so any diagram of the same companion with the same
    twists gives the same knot); ``clasp`` is the sign of the two clasp
    crossings.  Matching signs (clasp * twists >= 0) give the twist-knot
    Alexander polynomial m - (2m+1)t + mt^2 with m = |twists|.
    """

    __slots__ = ("companion", "twists", "clasp")

    def __init__(self, companion, twists, clasp):
        self._set(companion, twists, clasp)
        if self.clasp not in (1, -1):
            raise ConstructionError(f"clasp must be +1 or -1, got {self.clasp}")


def whitehead_double(spec):
    """Twisted Whitehead double: 2-parallel closed by a clasp-and-twists tangle."""
    _valid(spec.companion)
    inserted = 2 * spec.twists - 2 * writhe(spec.companion)
    g, stubs = _doubled_with_gap(spec.companion)
    t = _twist_right(g, _v_chain(g, 2, spec.clasp > 0), inserted)
    _splice_tangle(g, stubs, t)
    return _validated_knot(g.to_diagram(), "double")


def paper_family(n):
    """The n-th doubled knot of the genus-(n+1) surface family.

    Returns (diagram, expected_name); the diagram's invariant tuple matches
    twist_knot(2n+6), the (2n+6)-crossing twist knot.
    """
    if n < 0:
        raise ConstructionError(f"family index must be >= 0, got {n}")
    companion = torus_2n(1)
    pd = whitehead_double(DoubleSpec(companion, n + 2, 1))
    return pd, f"{2 * n + 6}_1"
