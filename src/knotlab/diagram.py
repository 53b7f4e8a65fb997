"""Planar knot/link diagrams as PD codes.

A diagram is a list of crossings `X a,b,c,d`: the four edge labels around a
crossing, listed counterclockwise starting from the incoming under-strand.
Edge labels run 1..2C and increase by one (cyclically within a component)
along each strand, so slot 2 always holds the outgoing under-strand.

The crossing sign convention: a crossing is positive when the incoming
over-strand occupies slot 1 (rotating the under direction counterclockwise
by a quarter turn gives the over direction).  Under this convention
"X 1,4,2,5 / X 3,6,4,1 / X 5,2,6,3" is the positive trefoil, writhe +3.

The planar embedding is the rotation system implied by the slot order;
validation checks it is genuinely planar by counting faces (Euler: a
connected 4-valent diagram with C crossings must have C + 2 faces).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class KnotlabError(Exception):
    pass


class ParseError(KnotlabError):
    pass


class ValidationError(KnotlabError):
    pass


class InconsistencyError(KnotlabError):
    """Two supposedly-equivalent internal computations disagreed."""


class _Record:
    """Immutable value record whose fields are its `__slots__`.

    Records compare, hash and print by their field values in slot order, the
    way frozen dataclasses do.  `__init__` stores the fields through `_set`,
    after normalising them, and validates them afterwards.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values())


class Crossing(namedtuple("Crossing", "a b c d")):
    __slots__ = ()

    def slots(self):
        return (self.a, self.b, self.c, self.d)


class PlanarDiagram(_Record):
    """The crossings of a diagram, in input order.

    Not a tuple, so a diagram is never mistaken for a (diagram, name) pair.
    """

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        # the resolve cache hashes diagrams, so a list of crossings must not stay a list
        self._set(tuple(crossings))

    # the resolve cache compares and hashes a diagram per lookup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.crossings == other.crossings
        return NotImplemented

    def __hash__(self):
        return hash((self.crossings,))

    def __len__(self):
        return len(self.crossings)


ValidationReport = namedtuple(
    "ValidationReport", "ok failures crossing_count component_count face_count"
)


def parse_pd(text):
    """Parse PD text: one `X a,b,c,d` per line, `#` comments, blank lines ignored."""
    crossings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("X"):
            raise ParseError(f"line {lineno}: expected 'X a,b,c,d', got {raw!r}")
        body = line[1:].strip()
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: need exactly 4 edge labels, got {raw!r}")
        try:
            a, b, c, d = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer edge label in {raw!r}") from None
        crossings.append(Crossing(a, b, c, d))
    if not crossings:
        raise ParseError("no crossings; the empty diagram is not representable")
    return PlanarDiagram(tuple(crossings))


def serialize_pd(pd):
    """Canonical PD text: crossings in input order, LF line endings."""
    return "".join(f"X {x.a},{x.b},{x.c},{x.d}\n" for x in pd.crossings)


def _occurrences(pd):
    """Edge label -> [(crossing, slot), ...], in crossing then slot order."""
    occ = {}
    for ci, x in enumerate(pd.crossings):
        for s, lab in enumerate(x.slots()):
            occ.setdefault(lab, []).append((ci, s))
    return occ


def _orbits(step, starts):
    """Cycles of the map `step`, each entered at its first element in `starts`.

    An orbit ends before the first element already traced, so on a
    permutation every orbit closes on its start; a caller that cannot assume
    one checks step[orbit[-1]] == orbit[0].
    """
    seen = set()
    out = []
    for start in starts:
        if start in seen:
            continue
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = step[cur]
        out.append(tuple(orbit))
    return out


def _face_orbits(partner, nodes):
    """Faces of a rotation system given its port pairing (crossing, slot) <->
    (crossing, slot): follow the edge to its other end and turn to the
    clockwise-adjacent slot."""
    nxt = {u: (v[0], (v[1] - 1) % 4) for u, v in partner.items()}
    return _orbits(nxt, ((c, s) for c in nodes for s in range(4)))


class _ParityUnionFind:
    """Union-find over 0..n-1 that tracks each element's parity to its root."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n

    def find(self, a):
        """(root of a, parity of a relative to the root), halving the path."""
        parent, parity = self.parent, self.parity
        p = 0
        while parent[a] != a:
            b = parent[a]
            parity[a] ^= parity[b]
            parent[a] = parent[b]
            p ^= parity[a]
            a = parent[a]
        return a, p

    def union(self, a, b, odd=False):
        """Join a and b with relative parity `odd`; False if that closes an odd cycle."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == odd
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ odd
        return True

    def connected(self):
        return len({self.find(a)[0] for a in range(len(self.parent))}) <= 1


class _Resolved:
    """Everything derivable from a structurally valid diagram in one pass."""

    __slots__ = (
        "ok",
        "failures",
        "occ",
        "head",
        "components",
        "signs",
        "faces",
        "face_of_corner",
    )


def _resolve(pd):
    r = _Resolved()
    failures = []
    n = len(pd.crossings)
    ne = 2 * n

    occ = _occurrences(pd)
    bad_labels = sorted(k for k in occ if not (1 <= k <= ne))
    if bad_labels:
        failures.append(f"edge labels out of range 1..{ne}: {bad_labels}")
    missing = [e for e in range(1, ne + 1) if e not in occ]
    if missing:
        failures.append(f"missing edge labels: {missing}")
    wrong_arity = sorted(e for e, v in occ.items() if len(v) != 2)
    if wrong_arity:
        failures.append(f"labels not appearing exactly twice: {wrong_arity}")
    if failures:
        r.ok = False
        r.failures = tuple(failures)
        return r
    r.occ = occ

    # Resolve strand orientations.  Under slots are forced (slot 0 takes the
    # incoming edge, slot 2 the outgoing one); each crossing's over pair
    # (slots 1 and 3) has a binary orientation choice, and every edge needs
    # one incoming and one outgoing end.  Node n stands for "slot 1 is the
    # incoming over-strand": a crossing joined to it at even parity makes
    # that choice, at odd parity the other.
    orient = _ParityUnionFind(n + 1)
    for u, v in occ.values():
        (ci, s), (c2, s2) = (u, v) if u[1] % 2 else (v, u)  # an over end first, if any
        if s % 2 == 0:
            continue  # two under ends; the head and tail pass reports them
        if s2 % 2:
            # two over ends: equal slots need opposite choices
            joined = orient.union(ci, c2, s == s2)
        else:
            # the over end is incoming exactly when the under end is slot 2
            joined = orient.union(ci, n, (s == 1) == (s2 == 0))
        if not joined:
            r.ok = False
            r.failures = (f"inconsistent strand orientation at crossing {ci}",)
            return r
    root, parity = orient.find(n)
    choice = []
    for ci, x in enumerate(pd.crossings):
        rc, pc = orient.find(ci)
        if rc == root:
            choice.append(pc == parity)
        else:
            # a component lying entirely over: labels increase along the strand
            choice.append(x.d == x.b + 1 if abs(x.b - x.d) == 1 else x.b > x.d)

    # In and out ends: slots 0 and 2, then 1 and 3 when the choice holds, else 3 and 1.
    head = {}
    tail = {}
    succ = {}  # successor along the strand: the edge leaving the crossing this edge enters
    for ci, x in enumerate(pd.crossings):
        over = ((x.b, 1), (x.d, 3)) if choice[ci] else ((x.d, 3), (x.b, 1))
        for (e_in, s_in), (e_out, s_out) in (((x.a, 0), (x.c, 2)), over):
            if e_in in head:
                failures.append(f"edge {e_in} has two head ends")
            if e_out in tail:
                failures.append(f"edge {e_out} has two tail ends")
            head[e_in] = (ci, s_in)
            tail[e_out] = (ci, s_out)
            succ[e_in] = e_out
    if failures:
        r.ok = False
        r.failures = tuple(failures)
        return r
    r.head = head
    r.signs = [1 if ch else -1 for ch in choice]

    # strand components; each must be a cyclic run lo, lo+1, ..., hi
    components = _orbits(succ, range(1, ne + 1))
    for cyc in components:
        if succ[cyc[-1]] != cyc[0]:
            failures.append("edge successor structure is not a permutation")
        lo = min(cyc)
        k = cyc.index(lo)
        if cyc[k:] + cyc[:k] != tuple(range(lo, lo + len(cyc))):
            failures.append(
                f"edge labels do not increase by one along component containing {lo}"
            )
    r.components = components

    # connectivity of the underlying 4-valent graph
    uf = _ParityUnionFind(n)
    for (c1, _), (c2, _) in occ.values():
        uf.union(c1, c2)
    if not uf.connected():
        failures.append("split diagram: underlying graph is disconnected")

    r.faces = ()
    r.face_of_corner = {}
    if not failures:
        partner = {}
        for u, v in occ.values():
            partner[u] = v
            partner[v] = u
        r.faces = tuple(_face_orbits(partner, range(n)))
        r.face_of_corner = {h: fi for fi, face in enumerate(r.faces) for h in face}
        if len(r.faces) != n + 2:
            failures.append(
                f"rotation system is not planar: {len(r.faces)} faces, expected {n + 2}"
            )

    r.ok = not failures
    r.failures = tuple(failures)
    return r


# A diagram is reused only within one call chain (plus the table records), so
# 64 entries keep nearly every hit; each entry holds ~15 KB.
@lru_cache(maxsize=64)
def _res(pd):
    return _resolve(pd)


def _valid(pd):
    rr = _res(pd)
    if not rr.ok:
        raise ValidationError("; ".join(rr.failures))
    return rr


def _require_knot(pd):
    rr = _valid(pd)
    if len(rr.components) != 1:
        raise ValidationError(f"expected a knot, got {len(rr.components)} components")
    return rr


def validate(pd):
    rr = _res(pd)
    return ValidationReport(
        ok=rr.ok,
        failures=rr.failures,
        crossing_count=len(pd.crossings),
        component_count=len(rr.components) if rr.ok else 0,
        face_count=len(rr.faces) if rr.ok else 0,
    )


def component_count(pd):
    return len(_valid(pd).components)


def crossing_signs(pd):
    return list(_valid(pd).signs)


def writhe(pd):
    return sum(_valid(pd).signs)


def mirror(pd):
    """Swap over- and under-strands at every crossing.

    The slot cycle is re-rooted at the new incoming under-strand, so the
    rotation system (and hence the faces) is unchanged while every crossing
    sign flips.
    """
    rr = _valid(pd)
    out = []
    for ci, x in enumerate(pd.crossings):
        if rr.signs[ci] > 0:
            out.append(Crossing(x.b, x.c, x.d, x.a))
        else:
            out.append(Crossing(x.d, x.a, x.b, x.c))
    return PlanarDiagram(tuple(out))


def faces(pd):
    """Faces as tuples of corners (crossing, k); corner k sits counterclockwise
    between slot k and slot k+1.  The 4C corners are partitioned."""
    return _valid(pd).faces


def checkerboard(pd):
    """Two-color the faces; returns a list of 'white'/'black' aligned with faces(pd).

    The face containing corner 0 of crossing 0 is declared white.
    """
    rr = _valid(pd)
    uf = _ParityUnionFind(len(rr.faces))
    for u, v in rr.occ.values():
        # the two faces on either side of an edge are the orbits of its two
        # departure half-edges, and they must get opposite colors
        if not uf.union(rr.face_of_corner[u], rr.face_of_corner[v], True):
            raise InconsistencyError("faces of a 4-valent diagram must be 2-colorable")
    _, white = uf.find(rr.face_of_corner[(0, 0)])
    return ["white" if uf.find(f)[1] == white else "black" for f in range(len(rr.faces))]


def strand_passages(pd):
    """Per component, the cyclic sequence of (crossing, 'O'|'U') passages in
    strand order."""
    rr = _valid(pd)
    out = []
    for cyc in rr.components:
        seq = []
        for e in cyc:
            ci, s = rr.head[e]
            seq.append((ci, "U" if s == 0 else "O"))
        out.append(seq)
    return out


def is_alternating(pd):
    for seq in strand_passages(pd):
        for i in range(len(seq)):
            if seq[i][1] == seq[i - 1][1]:
                return False
    return True


def gauss_code(pd):
    """Signed Gauss tokens O<k><s> / U<k><s> in strand order, crossings 1-based."""
    rr = _valid(pd)
    tokens = []
    for seq in strand_passages(pd):
        for ci, role in seq:
            s = "+" if rr.signs[ci] > 0 else "-"
            tokens.append(f"{role}{ci + 1}{s}")
    return " ".join(tokens)


TREFOIL_PD = "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3\n"
KINK_PD = "X 1,2,2,1\n"
