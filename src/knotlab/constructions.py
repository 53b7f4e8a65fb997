"""Diagram generators: torus knots, rational knots, pretzels, cables, doubles.

Every construction is a Conway tangle expression on a StrandGraph.  A tangle
is the tuple (nw, ne, sw, se) of its four free ports, by compass corner, each
the int 4 * node + slot of ``knotlab.wiring``; a one-crossing tangle is one
node.  The horizontal sum ``_join`` wires the left
tangle's ne, se to the right one's nw, sw; the vertical sum ``_stack`` wires
the upper tangle's sw, se to the lower one's nw, ne.  A twist region is a
chain of one-crossing tangles under one sum.  ``_close`` is the one closure:
the numerator wires nw-ne and sw-se, the denominator nw-sw and ne-se.  A
satellite's cut 2-parallel is the outside of a tangle, read as a tangle to
its right, so the pattern fills the cut as the numerator of their sum.

Twist-region handedness and closure conventions are frozen constants,
calibrated once against invariant anchors (positive trefoil signature -2,
rational determinants) and locked in by the test suite.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .diagram import MAX_CROSSINGS, KnotlabError, validate, writhe
from .diagram import _occurrences, _require_knot, _validated_make
from .wiring import StrandGraph


class ConstructionError(KnotlabError):
    pass


class TwoBridgeFraction(namedtuple("TwoBridgeFraction", "p q")):
    """2-bridge fraction p/q in lowest terms, 0 < q < p (q = 0 only for p = 1).

    Two fractions present the same knot iff q' = q or q*q' = 1 (mod p);
    replacing q by p - q mirrors the knot.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, p, q):
        _check_int(p, "fraction numerator")
        _check_int(q, "fraction denominator")
        if p < 1 or not 0 <= q < max(p, 2):
            raise ConstructionError(f"fraction {p}/{q} out of range")
        if p > 1 and gcd(p, q) != 1:
            raise ConstructionError(f"fraction {p}/{q} not reduced")
        return super().__new__(cls, p, q)

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
    _check_cf(cf)
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


# Integer parameters grow a diagram through its twist regions and the
# companion's 2-parallel (4 crossings per companion crossing), so both check
# the whole graph against MAX_CROSSINGS before allocating.
def _check_size(total):
    if total > MAX_CROSSINGS:
        raise ConstructionError(
            f"diagram of {total} crossings exceeds the limit of {MAX_CROSSINGS}"
        )


# A float or a str would fail deep in the tangle algebra, and True would
# build a one-crossing twist region, so an integer parameter is checked first.
def _check_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConstructionError(f"{what} must be an int, not {value!r}")


def _check_cf(cf):
    if not isinstance(cf, list):
        raise ConstructionError(f"continued fraction must be a list of ints, not {cf!r}")
    for c in cf:
        _check_int(c, "continued fraction entry")


def _join(g, a, b):
    """Horizontal sum: a's east ports wire to b's west ports."""
    g.connect(a[1], b[0])
    g.connect(a[3], b[2])
    return a[0], b[1], a[2], b[3]


def _stack(g, a, b):
    """Vertical sum: a's south ports wire to b's north ports."""
    g.connect(a[2], b[0])
    g.connect(a[3], b[1])
    return a[0], a[1], b[2], b[3]


def _chain(g, count, positive, add):
    """Twist region: `count` one-crossing tangles summed by `add`.

    Ports run counterclockwise with the over-strand on ports 1 and 3, so a
    positive crossing, whose over-strand runs SW-NE, is numbered from SE.
    """
    _check_size(len(g.nodes) + count)
    sw, se, ne, nw = (3, 0, 1, 2) if positive else (0, 1, 2, 3)
    t = None
    for _ in range(count):
        n = 4 * g.add_node()
        one = n + nw, n + ne, n + sw, n + se
        t = add(g, t, one) if t else one
    return t


# Handedness conventions for twist regions, anchored by rational_knot([3])
# being the positive trefoil and the determinant family
# rational_knot([2,2m]) -> 4m+1: a positive entry builds a positive chain.
def _twist(g, t, entry, add):
    """Sum a region of |entry| crossings onto t, built with the same sum."""
    return add(g, t, _chain(g, abs(entry), entry > 0, add)) if entry else t


def _close(g, t, numerator):
    """Wire nw-ne and sw-se (numerator) or nw-sw and ne-se, then trace."""
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
    if not report.ok:
        raise ConstructionError(f"{what} failed validation: {report.failures}")
    if report.component_count != 1:
        raise ConstructionError(f"{what} has {report.component_count} components, not 1")
    return pd


def rational_knot(cf):
    """4-plat diagram of the 2-bridge knot with continued fraction cf.

    A chain of odd length ends on a horizontal region and closes across the
    top and bottom; an even-length chain ends on a vertical region, leaving
    the tangle fraction inverted, so it closes across the sides instead.
    """
    _check_cf(cf)
    _check_size(sum(abs(c) for c in cf))  # its exact crossing count, before the continuant
    frac = cf_to_fraction(cf)
    if frac.p % 2 == 0:
        raise ConstructionError(
            f"fraction {frac.p}/{frac.q} has even p: 2-component link, not a knot"
        )
    g = StrandGraph()
    t = _chain(g, abs(cf[0]), cf[0] > 0, _join)
    for i, entry in enumerate(cf[1:]):
        t = _twist(g, t, entry, _join if i % 2 else _stack)
    return _validated_knot(_close(g, t, len(cf) % 2 == 1), "rational diagram")


def twist_knot(c):
    """The c-crossing twist knot, c even and at least 4: rational [2, c-2]."""
    _check_int(c, "twist knot crossing count")
    if c % 2 or c < 4:
        raise ConstructionError(f"twist knot needs even c >= 4, got {c}")
    return rational_knot([2, c - 2])


def torus_2n(n):
    """Closed 2-braid with |n| crossings of sign(n); n odd for a knot."""
    _check_int(n, "closed braid crossing count")
    if n % 2 == 0:
        raise ConstructionError(f"(2,{n}) closed braid is a 2-component link")
    g = StrandGraph()
    return _close(g, _chain(g, abs(n), n > 0, _join), True)


def pretzel(p, q, r):
    """Three-column pretzel diagram; columns are vertical twist regions."""
    for entry in (p, q, r):
        _check_int(entry, "pretzel column")
    if 0 in (p, q, r):
        raise ConstructionError("zero pretzel column")
    g = StrandGraph()
    a, b, c = (_chain(g, abs(entry), entry > 0, _stack) for entry in (p, q, r))
    return _close(g, _join(g, _join(g, a, b), c), True)


# ---------------------------------------------------------------------------
# Satellite engine: 2-parallel of a companion diagram, cut open for a tangle


# The tile node that carries companion slot s on sub-lane k, at index 2s + k;
# it carries it at its own slot s.
_TILE_PORT = ("ws", "es", "es", "en", "en", "wn", "wn", "ws")


def _doubled_with_gap(pd):
    """Blackboard 2-parallel of the companion with one doubled edge cut open.

    Each companion crossing becomes a 2x2 tile of four same-sign crossings
    (vertical lanes copy the under-strand, horizontal lanes the over-strand).
    Each companion edge becomes two parallel wires; the sub-lane index flips
    across every wire to keep the parallel copies untangled.  The two wires
    of edge 1 are left unwired, and the rest is returned as a tangle read to
    the right of the cut: its west ports are the stubs at one end of edge 1,
    its east ports those at the other, so ``_close(g, _join(g, t, out), True)``
    fills the cut with the tangle t.
    """
    _check_size(4 * len(pd))
    g = StrandGraph()
    tiles = []
    for _ in range(len(pd)):
        ws, wn, es, en = (4 * g.add_node() for _ in range(4))
        g.connect(ws + 2, wn)
        g.connect(es + 2, en)
        g.connect(es + 3, ws + 1)
        g.connect(en + 3, wn + 1)
        tiles.append({"ws": ws, "wn": wn, "es": es, "en": en})

    def tport(p, sub):
        """The tile port of companion port p on sub-lane sub."""
        return tiles[p >> 2][_TILE_PORT[2 * (p & 3) + sub]] + (p & 3)

    occ = _occurrences(pd)
    p1, p2 = occ.pop(1)
    for a, b in occ.values():
        g.connect(tport(a, 0), tport(b, 1))
        g.connect(tport(a, 1), tport(b, 0))
    return g, (tport(p2, 0), tport(p1, 1), tport(p2, 1), tport(p1, 0))


def cable2(pd, f):
    """(2,f)-cable of the companion: 2-parallel plus f - 2*writhe half-twists."""
    _require_knot(pd)
    _check_int(f, "cable parameter f")
    if f % 2 == 0:
        raise ConstructionError(f"(2,{f}) cable is a 2-component link; f must be odd")
    j = f - 2 * writhe(pd)  # odd, so the cut always gets a twist region
    g, out = _doubled_with_gap(pd)
    t = _chain(g, abs(j), j > 0, _join)
    return _validated_knot(_close(g, _join(g, t, out), True), "cable")


class DoubleSpec(namedtuple("DoubleSpec", "companion twists clasp")):
    """Twisted Whitehead double parameters.

    ``twists`` is the absolute number of full twists in the pattern
    (writhe-compensated, so any diagram of the same companion with the same
    twists gives the same knot); ``clasp`` is the sign of the two clasp
    crossings.  Matching signs (clasp * twists >= 0) give the twist-knot
    Alexander polynomial m - (2m+1)t + mt^2 with m = |twists|.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, companion, twists, clasp):
        _check_int(twists, "twists")
        _check_int(clasp, "clasp")
        if clasp not in (1, -1):
            raise ConstructionError(f"clasp must be +1 or -1, got {clasp}")
        return super().__new__(cls, companion, twists, clasp)


def whitehead_double(spec):
    """Twisted Whitehead double: 2-parallel closed by a clasp-and-twists tangle."""
    _require_knot(spec.companion)
    inserted = 2 * spec.twists - 2 * writhe(spec.companion)
    g, out = _doubled_with_gap(spec.companion)
    t = _twist(g, _chain(g, 2, spec.clasp > 0, _stack), inserted, _join)
    return _validated_knot(_close(g, _join(g, t, out), True), "double")


def paper_family(n):
    """The n-th doubled knot of the genus-(n+1) surface family.

    Returns (diagram, expected_name); the diagram's invariant tuple matches
    twist_knot(2n+6), the (2n+6)-crossing twist knot.
    """
    _check_int(n, "family index")
    if n < 0:
        raise ConstructionError(f"family index must be >= 0, got {n}")
    companion = torus_2n(1)
    pd = whitehead_double(DoubleSpec(companion, n + 2, 1))
    return pd, f"{2 * n + 6}_1"
