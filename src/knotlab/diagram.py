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

from dataclasses import dataclass
from functools import lru_cache


class KnotlabError(Exception):
    pass


class ParseError(KnotlabError):
    pass


class ValidationError(KnotlabError):
    pass


class InconsistencyError(KnotlabError):
    """Two supposedly-equivalent internal computations disagreed."""


@dataclass(frozen=True)
class Crossing:
    a: int
    b: int
    c: int
    d: int

    def slots(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple

    def __post_init__(self):
        # the resolve cache hashes diagrams, so a list of crossings must not stay a list
        object.__setattr__(self, "crossings", tuple(self.crossings))

    def __len__(self):
        return len(self.crossings)

    def edge_count(self):
        return 2 * len(self.crossings)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple
    crossing_count: int
    component_count: int
    face_count: int


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
        "over_in_slot",
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
    # (slots 1 and 3) has a binary orientation choice.  choice[c] = True
    # means slot 1 is the incoming over-strand (head of its label).
    choice = [None] * n

    def occ_role_fixed(ci, s):
        # head = edge ends here (incoming); returns None for over slots
        if s == 0:
            return "head"
        if s == 2:
            return "tail"
        return None

    # constraints from edges with one under occurrence and one over occurrence
    pending = True
    conflict = False
    while pending and not conflict:
        pending = False
        for e, pair in occ.items():
            (c1, s1), (c2, s2) = pair
            r1 = occ_role_fixed(c1, s1)
            r2 = occ_role_fixed(c2, s2)
            for (ci, s, other_role) in ((c1, s1, r2), (c2, s2, r1)):
                if occ_role_fixed(ci, s) is not None:
                    continue
                if ci == c1 == c2 and s1 != 0 and s1 != 2 and s2 != 0 and s2 != 2:
                    continue  # both occurrences in the same over pair; free
                if other_role is None:
                    # other occurrence is an over slot; propagate if decided
                    oc, os = (c2, s2) if (ci, s) == (c1, s1) else (c1, s1)
                    if choice[oc] is None:
                        continue
                    other_head = (os == 1) == choice[oc]
                    other_role = "head" if other_head else "tail"
                want_head = other_role == "tail"
                implied = (s == 1) == want_head
                if choice[ci] is None:
                    choice[ci] = implied
                    pending = True
                elif choice[ci] != implied:
                    conflict = True
                    failures.append(f"inconsistent strand orientation at crossing {ci}")
                    break
            if conflict:
                break
    # leftover undecided crossings (components lying entirely over): use the
    # numbering convention, labels increase along the strand
    for ci, x in enumerate(pd.crossings):
        if choice[ci] is None:
            b, d = x.b, x.d
            if d == b + 1:
                choice[ci] = True
            elif b == d + 1:
                choice[ci] = False
            else:
                choice[ci] = b > d
    if conflict:
        r.ok = False
        r.failures = tuple(failures)
        return r

    head = {}
    tail = {}

    def set_role(e, ci, s, role):
        target = head if role == "head" else tail
        if e in target:
            failures.append(f"edge {e} has two {role} ends")
            return False
        target[e] = (ci, s)
        return True

    ok_roles = True
    for ci, x in enumerate(pd.crossings):
        ok_roles &= set_role(x.a, ci, 0, "head")
        ok_roles &= set_role(x.c, ci, 2, "tail")
        if choice[ci]:
            ok_roles &= set_role(x.b, ci, 1, "head")
            ok_roles &= set_role(x.d, ci, 3, "tail")
        else:
            ok_roles &= set_role(x.d, ci, 3, "head")
            ok_roles &= set_role(x.b, ci, 1, "tail")
    if not ok_roles or len(head) != ne or len(tail) != ne:
        if not failures:
            failures.append("orientation resolution failed")
        r.ok = False
        r.failures = tuple(failures)
        return r
    r.head = head
    r.over_in_slot = [1 if ch else 3 for ch in choice]
    r.signs = [1 if ch else -1 for ch in choice]

    # successor along the strand: the edge leaving the crossing this edge enters
    succ = {}
    for ci, x in enumerate(pd.crossings):
        succ[x.a] = x.c
        if choice[ci]:
            succ[x.b] = x.d
        else:
            succ[x.d] = x.b

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


@lru_cache(maxsize=4096)
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
        if rr.over_in_slot[ci] == 1:
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
