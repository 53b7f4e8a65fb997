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

Inside the library a port, slot s of crossing c, and a corner, corner k of
crossing c, are the one int 4c + s (or 4c + k).  So p >> 2 is the crossing,
p & 3 the slot, p & 1 the level (odd slots carry the over-strand) and p ^ 2
the slot across.  The map is increasing in (crossing, slot) order, so sorting
ints sorts ports as the pairs would sort.  The public faces(pd) still gives
(crossing, k) pairs.  Being ints, ports index lists: the one face walk
(_face_orbits) records each port's face in a flat list, face_of[port].
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain


class KnotlabError(Exception):
    pass


class ParseError(KnotlabError):
    pass


class ValidationError(KnotlabError):
    pass


class InconsistencyError(KnotlabError):
    """Two supposedly-equivalent internal computations disagreed."""


# The _make of a record that validates in __new__: through it, _replace
# normalises and validates too, so a record stays valid for its lifetime.
_validated_make = classmethod(lambda cls, fields: cls(*fields))


class Crossing(namedtuple("Crossing", "a b c d")):
    __slots__ = ()

    def slots(self):
        return (self.a, self.b, self.c, self.d)


def _crossing(x):
    if isinstance(x, tuple) and len(x) == 4:
        return Crossing(*x)
    raise ValidationError(f"crossing {x!r} is not a tuple of four edge labels")


class PlanarDiagram:
    """The crossings of a diagram, in input order.

    Immutable, and compared, hashed and printed by its crossings.  Not a
    tuple, so a diagram is never mistaken for a (diagram, name) pair.
    """

    __slots__ = ("crossings",)

    def __init__(self, crossings):
        # the resolve cache hashes diagrams, so a list of crossings must not stay a list
        crossings = tuple(crossings)
        # crossings are read by field name, so a plain 4-tuple becomes a Crossing
        if not set(map(type, crossings)) <= {Crossing}:
            crossings = tuple(map(_crossing, crossings))
        # the cache finds diagrams by equality, where 1 == 1.0 == True: only
        # int labels keep a diagram from being handed an equal one's resolution
        if not set(map(type, chain.from_iterable(crossings))) <= {int}:
            bad = next(v for v in chain.from_iterable(crossings) if v.__class__ is not int)
            raise ValidationError(f"edge label {bad!r} is not an int")
        object.__setattr__(self, "crossings", crossings)

    # the resolve cache compares and hashes a diagram per lookup
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.crossings == other.crossings
        return NotImplemented

    def __hash__(self):
        return hash((self.crossings,))

    def __len__(self):
        return len(self.crossings)

    def __repr__(self):
        return f"PlanarDiagram(crossings={self.crossings!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (PlanarDiagram, (self.crossings,))


ValidationReport = namedtuple(
    "ValidationReport", "ok failures crossing_count component_count face_count"
)


# Largest diagram the toolkit accepts, from PD text, a table or a construction.
MAX_CROSSINGS = 10_000


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
        if len(crossings) == MAX_CROSSINGS:
            raise ParseError(f"line {lineno}: more than {MAX_CROSSINGS} crossings")
        crossings.append(Crossing(a, b, c, d))
    if not crossings:
        raise ParseError("no crossings; the empty diagram is not representable")
    return PlanarDiagram(tuple(crossings))


def serialize_pd(pd):
    """Canonical PD text: crossings in input order, LF line endings."""
    return "".join(f"X {x.a},{x.b},{x.c},{x.d}\n" for x in _diagram(pd).crossings)


def _occurrences(pd):
    """Edge label -> [port, ...], ports 4 * crossing + slot in increasing order."""
    occ = {}
    for p, lab in enumerate(chain.from_iterable(pd.crossings)):
        if lab in occ:
            occ[lab].append(p)
        else:
            occ[lab] = [p]
    return occ


def _orbits(step, starts):
    """Cycles of the map `step`, each entered at its first element in `starts`.

    An orbit ends before the first element already traced, so on a
    permutation every orbit closes on its start.
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
    """Faces of a rotation system given its port pairing: follow the edge to
    its other end e and turn to the clockwise-adjacent slot of e's node,
    (e & ~3) | ((e - 1) & 3).

    Returns (faces, face_of, same): the faces as tuples of ports, each entered
    at its first port in node then slot order; face_of, the list indexed by
    port that holds each port's face, and -1 at the ports of nodes not in
    `nodes`; and the number of wires with the same face on both sides.
    Raises KeyError on a port a dict pairing leaves unwired.
    """
    faces = []
    face_of = [-1] * (4 * nodes[-1] + 4 if nodes else 0)
    same = 0
    for c in nodes:
        for h in range(4 * c, 4 * c + 4):
            if face_of[h] >= 0:
                continue
            f = len(faces)
            face = []
            while face_of[h] < 0:
                face_of[h] = f
                face.append(h)
                e = partner[h]
                # a wire is counted at the second of its two ports to be walked
                if face_of[e] == f:
                    same += 1
                h = (e & ~3) | ((e - 1) & 3)
            faces.append(tuple(face))
    return faces, face_of, same


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
        "components",
        "over",
        "signs",
        "faces",
        "face_of_corner",  # list: corner 4 * crossing + k -> its face
    )


def _resolve(pd):
    r = _Resolved()
    n = len(pd.crossings)
    if n > MAX_CROSSINGS:
        # a diagram built in the library reaches here without parse_pd's check
        r.ok = False
        r.failures = (f"diagram of {n} crossings exceeds the limit of {MAX_CROSSINGS}",)
        return r
    failures = []
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
    # that choice, at odd parity the other.  Each union gives an over-ended
    # edge one head and one tail, so only two equal under slots can fail.
    orient = _ParityUnionFind(n + 1)
    partner = [0] * (4 * n)  # port pairing along the edges, for the face walk
    for e, (u, v) in occ.items():
        partner[u] = v
        partner[v] = u
        if not u & 1:
            u, v = v, u  # an over end first, if any
        ci, s, c2, s2 = u >> 2, u & 3, v >> 2, v & 3
        if s % 2 == 0:
            if s == s2:
                failures.append(f"edge {e} has two {'head' if s == 0 else 'tail'} ends")
            continue
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
    if failures:
        r.ok = False
        r.failures = tuple(failures)
        return r
    # One reference per parity class: the class joined to node n keeps its
    # parity; any other class is one strand lying entirely over, oriented so
    # that labels increase at its first crossing, and its other crossings
    # follow by parity.  Now the successor map is a permutation.
    root, parity = orient.find(n)
    ref = {root: parity}
    over = []  # per crossing, the (incoming, outgoing) over slots
    succ = {}  # successor along the strand: the edge leaving the crossing this edge enters
    for ci, x in enumerate(pd.crossings):
        rc, pc = orient.find(ci)
        if rc not in ref:
            up = x.d == x.b + 1 if abs(x.b - x.d) == 1 else x.b > x.d
            ref[rc] = pc ^ (not up)
        over.append((1, 3) if pc == ref[rc] else (3, 1))
        i, o = over[-1]
        succ[x[0]], succ[x[i]] = x[2], x[o]
    r.over = over
    r.signs = [1 if o == (1, 3) else -1 for o in over]

    # strand components; each must be a cyclic run lo, lo+1, ..., hi
    components = _orbits(succ, range(1, ne + 1))
    for cyc in components:
        lo = min(cyc)
        k = cyc.index(lo)
        if cyc[k:] + cyc[:k] != tuple(range(lo, lo + len(cyc))):
            failures.append(
                f"edge labels do not increase by one along component containing {lo}"
            )
    r.components = components

    # connectivity of the underlying 4-valent graph; one strand passes every
    # crossing, so only a link can be split
    if len(components) > 1:
        uf = _ParityUnionFind(n)
        for u, v in occ.values():
            uf.union(u >> 2, v >> 2)
        if not uf.connected():
            failures.append("split diagram: underlying graph is disconnected")

    r.faces = ()
    r.face_of_corner = []
    if not failures:
        faces, r.face_of_corner, _ = _face_orbits(partner, range(n))
        r.faces = tuple(faces)
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


def _diagram(pd):
    """pd, refused unless it is a PlanarDiagram: the resolve cache hashes its
    argument, so anything else would fail there with a stray TypeError."""
    if not isinstance(pd, PlanarDiagram):
        raise ValidationError(f"expected a PlanarDiagram, not {type(pd).__name__}")
    return pd


def _valid(pd):
    rr = _res(_diagram(pd))
    if not rr.ok:
        raise ValidationError("; ".join(rr.failures))
    return rr


def _require_knot(pd):
    rr = _valid(pd)
    if len(rr.components) != 1:
        raise ValidationError(f"expected a knot, got {len(rr.components)} components")
    return rr


def validate(pd):
    rr = _res(_diagram(pd))
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

    The slot cycle is rotated to start at the incoming over-strand, the new
    incoming under-strand, so the rotation system (and hence the faces) is
    unchanged while every crossing sign flips.
    """
    over = _valid(pd).over
    return PlanarDiagram(tuple(Crossing(*x[i:], *x[:i]) for x, (i, _) in zip(pd.crossings, over)))


def faces(pd):
    """Faces as tuples of corners (crossing, k); corner k sits counterclockwise
    between slot k and slot k+1.  The 4C corners are partitioned.  These are
    the resolver's int corners 4 * crossing + k, read back as pairs."""
    return tuple(tuple(divmod(h, 4) for h in face) for face in _valid(pd).faces)


def _component_of(rr):
    """Edge label -> index of its component."""
    return {e: k for k, cyc in enumerate(rr.components) for e in cyc}


def _colors(pd, rr):
    """The checkerboard read from the labels: (per face, whether it is white;
    per crossing, whether its corner 0 is white).

    Along a strand the face on its left changes color at every crossing the
    strand passes, and the labels rise by one per passage, so corner k of
    crossing c has the parity of a_c + k, a_c its incoming under label, plus
    a phase bit of a_c's component.  The face holding corner (0, 0) is white.
    A link's phases come from the crossings between components: where the
    under strand lies in component A and the incoming over label x in B,
    phase(B) = phase(A) ^ ((a_c + x + 1) & 1), a term that is 0 within one
    component.  Every face's corners must share one parity, or it raises
    InconsistencyError.
    """
    xs = pd.crossings
    if len(rr.components) == 1:
        par = [x[0] & 1 for x in xs]
    else:
        comp = _component_of(rr)
        links = [[] for _ in rr.components]
        for x, (i, _) in zip(xs, rr.over):
            a, b = comp[x[0]], comp[x[i]]
            bit = (x[0] + x[i] + 1) & 1
            links[a].append((b, bit))
            links[b].append((a, bit))
        phase = {comp[xs[0][0]]: 0}
        stack = list(phase)
        while stack:
            a = stack.pop()
            for b, bit in links[a]:
                if b not in phase:
                    phase[b] = phase[a] ^ bit
                    stack.append(b)
        par = [(x[0] + phase[comp[x[0]]]) & 1 for x in xs]
    white = par[0]
    face_white = []
    for face in rr.faces:
        h = face[0]
        p = par[h >> 2] ^ h & 1
        for h in face:
            if par[h >> 2] ^ h & 1 != p:
                raise InconsistencyError("faces of a 4-valent diagram must be 2-colorable")
        face_white.append(p == white)
    return face_white, [p == white for p in par]


def checkerboard(pd):
    """Two-color the faces; returns a list of 'white'/'black' aligned with faces(pd).

    The face containing corner 0 of crossing 0 is white.  The colors are read
    from the label parities (see _colors): corner k of crossing c, its
    incoming under label a_c, is white exactly when a_c + k, plus the phase
    bit of a_c's component on a link, has the parity of corner (0, 0).
    """
    face_white, _ = _colors(pd, _valid(pd))
    return ["white" if w else "black" for w in face_white]


def strand_passages(pd):
    """Per component, the cyclic sequence of (crossing, 'O'|'U') passages in
    strand order.  Each edge ends where it enters a crossing: at slot 0 from
    below, at the incoming over slot from above."""
    rr = _valid(pd)
    head = {}
    for ci, (x, (i, _)) in enumerate(zip(pd.crossings, rr.over)):
        head[x[0]], head[x[i]] = (ci, "U"), (ci, "O")
    return [[head[e] for e in cyc] for cyc in rr.components]


def is_alternating(pd):
    """Whether every strand passes over and under in turn.

    Labels rise by one per passage, so a component alternates exactly when
    the labels entering its crossings from below all share one parity and
    those entering from above all share the other.
    """
    rr = _valid(pd)
    comp = _component_of(rr) if len(rr.components) > 1 else {}  # a knot's one key is None
    parity = {}  # component -> parity of its under-head labels
    for x, (i, _) in zip(pd.crossings, rr.over):
        u, o = x[0], x[i]
        if parity.setdefault(comp.get(u), u & 1) != u & 1:
            return False
        if parity.setdefault(comp.get(o), ~o & 1) != ~o & 1:
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
