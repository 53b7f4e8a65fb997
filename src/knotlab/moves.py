"""Reidemeister moves on wired diagrams.

Moves are enumerated as deterministic candidate lists per kind ("r1+", "r1-",
"r2+", "r2-", "r3") and applied to a StrandGraph.  Every listed site is viable:
a removal site is kept only when its splice would strand no crossingless loop.
``apply_move`` re-traces and re-validates the diagram after its move, and a
random perturbation validates its input and its output, so a wiring mistake
surfaces before it can corrupt downstream invariants.

``_sweep(g, kinds)`` is the one source of sites.  For each asked kind it gives
the number of sites and the site at an index, in ``move_candidates`` order.
r1+ and r2+ sites, the many, are counted and only the drawn one is built.
The r1-, r2- and r3 sites come from one pass over the faces (walked once per
graph state), which runs only when a removal kind is asked for.  A random move
picks a kind uniformly among the kinds that have sites, then a site uniformly
in that kind's order.

Ports are the ints 4 * node + slot of ``knotlab.wiring``, so a port's level
is its parity (odd ports carry the over-strand) and p ^ 2 is the port across
its node.  The sites ``move_candidates`` lists, each kind sorted by its ports:

* r1+  ``((u, v), variant)``: a wire u < v and one of four variants 0..3.
* r1-  ``(h, e)``: a kink's wire, h the one port of its monogon face and
  e = h's node's next slot, the port h is wired to.
* r2+  ``(h1, h2, variant)``: two sides of one face, h1 < h2, and "over" or
  "under".
* r2-  ``(h1, h2)``: the two ports of a bigon face, h1 < h2.
* r3   ``(h1, h2, h3)``: the three ports of a triangle face in face order,
  starting at the least.

Conventions used by the rewirings:

* r1+  cuts a wire and inserts a one-crossing loop; four variants cover both
  chiralities on both sides of the strand.
* r2+  pushes a finger of one face side across another side of the same face,
  either over or under it.
* r2-  deletes a bigon whose two corners give one strand the over role at both
  crossings.
* r3   slides the strand that runs over both of its triangle crossings across
  the opposite crossing, so each of the three strands meets the other two in
  the opposite order.  That is one port rotation per strand: with x and y its
  ports at its two triangle crossings, x -> across(x) -> y -> across(y) -> x.
  The cycle is the same whichever end is x, so the strands' levels only pick
  the sites.  Each wire at a rotated port is relabeled through them, so
  external wires joining two triangle nodes need no special casing.
"""

from __future__ import annotations

import random

from .diagram import MAX_CROSSINGS, KnotlabError, _valid, validate
from .wiring import StrandGraph, WiringError

MOVE_KINDS = ("r1+", "r1-", "r2+", "r2-", "r3")
_ADDED = {"r1+": 1, "r2+": 2}  # crossings a move of the kind adds


class MoveError(KnotlabError):
    pass


def _spliceable(g, nodes):
    try:
        g.splice_pairs(nodes)
    except WiringError:
        return False
    return True


# Per r1+ variant: the slot the cut wire enters, the two slots the loop joins,
# and the slot it leaves by.
_R1_ADD_PORTS = ((0, 2, 1, 3), (0, 2, 3, 1), (1, 3, 0, 2), (3, 1, 0, 2))


def _apply_r1_add(g, site):
    (a, b), variant = site
    entry, p, q, exit_ = _R1_ADD_PORTS[variant]
    g.disconnect(a)
    k = 4 * g.add_node()
    g.connect(a, k + entry)
    g.connect(k + p, k + q)
    g.connect(k + exit_, b)


def _apply_removal(g, site):  # r1- or r2-: a kink's wire has both ends on its one node
    g.splice_out({site[0] >> 2, site[1] >> 2})


def _r2_add_sites(g, skip=0):
    """The r2+ sites (h1, h2, variant) in sorted order, from the skip-th on.

    h2 is a side of h1's face later in the face than h1, other than h1's own
    wire seen from its far side.  Walking h1 over the ports in sorted order
    yields every site in sorted order, and the sites of an h1 wholly before
    the skip-th are counted, never built.  The ports' positions in their
    faces are read off the faces here, the one reader that needs them.
    """
    faces, face_of, _ = g.face_walk()
    at = [0] * len(face_of)
    for face in faces:
        for i, h in enumerate(face):
            at[h] = i
    for h1, f in enumerate(face_of):
        if f < 0:
            continue  # a port of a removed node
        face = faces[f]
        i = at[h1]
        e = g.conn[h1]
        block = 2 * (len(face) - 1 - i - (face_of[e] == f and at[e] > i))
        if skip >= block:
            skip -= block
            continue
        sites = [(h1, h2, v) for h2 in sorted(face[i + 1 :]) if h2 != e for v in ("over", "under")]
        yield from sites[skip:]
        skip = 0


# Per r2+ variant, the slots (x, y) of the strand beta -> alpha, which runs
# c1 + x -> c1 + y -> c2 + y -> c2 + x, and the slots (u, v) of the strand
# gamma -> delta, which runs c1 + u -> c1 + v -> c2 + u -> c2 + v.
_R2_ADD_PORTS = {"over": ((3, 1), (0, 2)), "under": ((0, 2), (1, 3))}


def _apply_r2_add(g, site):
    h1, h2, variant = site
    alpha, beta = h1, g.conn[h1]
    gamma, delta = h2, g.conn[h2]
    (x, y), (u, v) = _R2_ADD_PORTS[variant]
    g.disconnect(alpha)
    g.disconnect(gamma)
    c1 = 4 * g.add_node()
    c2 = 4 * g.add_node()
    g.connect(beta, c1 + x)
    g.connect(c1 + y, c2 + y)
    g.connect(c2 + x, alpha)
    g.connect(gamma, c1 + u)
    g.connect(c1 + v, c2 + u)
    g.connect(c2 + v, delta)


def _apply_r3(g, site):
    rho = {}
    for h in site:
        e = g.conn[h]
        rho.update({h: h ^ 2, h ^ 2: e, e: e ^ 2, e ^ 2: h})
    # only the wires at the 12 rotated ports move, each keyed once by its smaller port
    moved = dict(sorted((u, g.conn[u])) for u in rho)
    for u in moved:
        g.disconnect(u)
    for u, v in moved.items():
        g.connect(rho.get(u, u), rho.get(v, v))


_APPLY = {
    "r1+": _apply_r1_add,
    "r1-": _apply_removal,
    "r2+": _apply_r2_add,
    "r2-": _apply_removal,
    "r3": _apply_r3,
}


def _sweep(g, kinds=MOVE_KINDS):
    """Each asked kind's (number of sites, site at an index), as a dict by kind.

    r1+ sites are counted from the wires, four variants per wire, and r2+
    sites from the pairs of sides of one face: two variants per pair, less
    the pairs that are one wire seen from both sides (a wire bounds one face
    on both sides only in a rotation system that is not planar).  Only the
    drawn site of either is built.  When a removal kind is asked for, one
    pass over the faces of g's current walk also lists the r1- sites
    (monogons), r2- sites (bigons) and r3 sites (triangles), each sorted.  A
    kink is judged by its node's wiring: its splice strands a loop exactly
    when the node's other two ports are wired to each other, the one-crossing
    figure eight.  A bigon is probed with ``StrandGraph.splice_pairs``, so
    an r1+ or r2+ alone makes no probe, and an r1+ alone walks no faces.
    """
    sites = {}
    if "r1+" in kinds:
        sites["r1+"] = 2 * len(g.conn), lambda i: (g.wires()[i // 4], i % 4)
    removals = "r1-" in kinds or "r2-" in kinds or "r3" in kinds
    if not removals and "r2+" not in kinds:
        return sites
    faces, _, same_wire = g.face_walk()
    conn = g.conn
    bigons = len(g.nodes) >= 3  # an r2- must leave at least one crossing
    r1, r2, r3 = [], [], []
    pairs = 0
    for face in faces:
        m = len(face)
        pairs += m * (m - 1) // 2
        if not removals:
            continue
        if m == 1:
            h = face[0]  # a kink is a monogon: h wired to the next slot of its node
            if conn[h ^ 2] >> 2 != h >> 2:  # the node's other two ports are not wired together
                r1.append((h, conn[h]))
        elif m == 2:
            h1, h2 = face
            if h1 > h2:
                h1, h2 = h2, h1
            n1, n2 = h1 >> 2, h2 >> 2
            # the strand must keep its level across the bigon
            if bigons and n1 != n2 and not (h1 ^ conn[h1]) & 1 and _spliceable(g, {n1, n2}):
                r2.append((h1, h2))
        elif m == 3:
            h1, h2, h3 = face
            n1, n2, n3 = h1 >> 2, h2 >> 2, h3 >> 2
            # three crossings, and not cyclic: some strand runs over both of its
            if n1 != n2 != n3 != n1 and (h1 & conn[h1] | h2 & conn[h2] | h3 & conn[h3]) & 1:
                if h1 < h2 and h1 < h3:
                    r3.append(face)
                elif h2 < h3:
                    r3.append((h2, h3, h1))
                else:
                    r3.append((h3, h1, h2))
    if "r2+" in kinds:
        sites["r2+"] = 2 * (pairs - same_wire), lambda i: next(_r2_add_sites(g, i))
    if removals:
        for kind, found in (("r1-", r1), ("r2-", r2), ("r3", r3)):
            found.sort()
            sites[kind] = len(found), found.__getitem__
    return sites


def move_candidates(g, kind):
    """Viable move sites of one kind, in deterministic order: every site
    ``_sweep`` picks from, in its order.  r1+ and r2+ are listed in one
    pass each, not picked site by site."""
    if kind not in MOVE_KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    if kind == "r1+":
        return [(w, v) for w in g.wires() for v in range(4)]
    if kind == "r2+":
        return list(_r2_add_sites(g))
    n, pick = _sweep(g, (kind,))[kind]
    return [pick(i) for i in range(n)]


def _is_non_negative_int(n):
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def apply_move(g, kind, index=0):
    """Apply the index-th candidate of the given kind in place."""
    if not _is_non_negative_int(index):
        raise MoveError(f"move site index must be a non-negative integer, not {index!r}")
    if kind not in MOVE_KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    if kind in _ADDED and len(g.nodes) + _ADDED[kind] > MAX_CROSSINGS:
        raise MoveError(f"{kind} would pass the limit of {MAX_CROSSINGS} crossings")
    n, pick = _sweep(g, (kind,))[kind]
    if index >= n:
        raise MoveError(f"no {kind} move at site index {index}")
    _APPLY[kind](g, pick(index))
    report = validate(g.to_diagram())
    if not report.ok:
        raise MoveError(f"{kind} produced an invalid diagram: {report.failures}")


def _random_step(g, rng, cap):
    """Apply one random move: a kind uniformly among the kinds that have
    sites, then a site uniformly in that kind's candidate order."""
    options = []
    size = len(g.nodes)
    swept = _sweep(g)
    for kind in MOVE_KINDS:
        if kind in _ADDED and (size + 2 > cap or size + _ADDED[kind] > MAX_CROSSINGS):
            continue
        n, pick = swept[kind]
        if n:
            options.append((kind, n, pick))
    if not options:
        raise MoveError("no applicable moves")
    kind, n, pick = options[rng.randrange(len(options))]
    _APPLY[kind](g, pick(rng.randrange(n)))


def _move_pairs(moves):
    """An explicit move sequence as a list of (kind, site_index) pairs."""
    try:
        pairs = [tuple(m) for m in moves]
    except TypeError:
        pairs = None
    if pairs is None or any(len(m) != 2 for m in pairs):
        raise MoveError(f"moves must be a count or (kind, site_index) pairs, not {moves!r}")
    return pairs


def reidemeister_perturb(pd, moves=10, seed=0):
    """Rewrite a diagram by Reidemeister moves, preserving the knot type.

    ``moves`` is either a count of random moves (driven by ``seed``) or an
    explicit sequence of ``(kind, site_index)`` pairs; anything else raises
    MoveError.  Each random move picks a kind uniformly among the kinds that
    have sites, then a site uniformly in the kind's ``move_candidates``
    order.  For an n-crossing input, r1+ and r2+ are both drawn only while
    the diagram has at most max(2n, n + 8) - 2 crossings, and each only while
    its result stays within MAX_CROSSINGS.  The faces are walked once per
    graph state, and r1+ and r2+ sites are counted and only the drawn one is
    built; it is the site ``move_candidates`` lists at the drawn index.  The
    graph is compacted after each move, so a step costs what the current
    diagram costs, however long the move history.

    Raises MoveError when an explicit move is inapplicable or would pass
    MAX_CROSSINGS, and ValidationError on an invalid input diagram (tracing
    the graph renumbers every edge, which would hide it).
    """
    if not _is_non_negative_int(moves):
        moves = _move_pairs(moves)
    _valid(pd)
    g = StrandGraph.from_diagram(pd)
    if isinstance(moves, int):
        rng = random.Random(seed)
        cap = max(2 * len(pd), len(pd) + 8)
        for _ in range(moves):
            _random_step(g, rng, cap)
            g.compact()
    else:
        for kind, index in moves:
            apply_move(g, kind, index)
            g.compact()
    out = g.to_diagram()
    report = validate(out)
    if not report.ok:
        raise MoveError(f"perturbation produced an invalid diagram: {report.failures}")
    return out
