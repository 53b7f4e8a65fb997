"""Reidemeister moves on wired diagrams.

Moves are enumerated as deterministic candidate lists per kind ("r1+", "r1-",
"r2+", "r2-", "r3") and applied to a StrandGraph.  Every listed site is viable:
a removal site is kept only when its splice would strand no crossingless loop.
``apply_move`` re-traces and re-validates the diagram after its move, and a
random perturbation validates its input and its output, so a wiring mistake
surfaces before it can corrupt downstream invariants.

Conventions used by the rewirings:

* r1+  cuts a wire and inserts a one-crossing loop; four variants cover both
  chiralities on both sides of the strand.
* r2+  pushes a finger of one face side across another side of the same face,
  either over or under it.
* r2-  deletes a bigon whose two corners give one strand the over role at both
  crossings.
* r3   slides the strand that runs over both of its triangle crossings across
  the opposite crossing.  The rewiring is a pure port relabeling: each of the
  twelve triangle ports hands its wire to the port the strand occupies after
  the slide, so degenerate adjacencies (external wires joining two triangle
  nodes) need no special casing.
"""

from __future__ import annotations

import random

from .diagram import KnotlabError, _valid, validate
from .wiring import StrandGraph, WiringError

MOVE_KINDS = ("r1+", "r1-", "r2+", "r2-", "r3")


class MoveError(KnotlabError):
    pass


def _role_over(g, port):
    return port[1] in g.over_pair(port[0])


def _spliceable(g, nodes):
    try:
        g.splice_pairs(nodes)
    except WiringError:
        return False
    return True


def _candidates_r1_add(g):
    return [(w, v) for w in g.wires() for v in range(4)]


def _apply_r1_add(g, site):
    (a, b), variant = site
    g.disconnect(a)
    k = g.add_node(False)
    if variant == 0:
        g.connect(a, (k, 0))
        g.connect((k, 2), (k, 1))
        g.connect((k, 3), b)
    elif variant == 1:
        g.connect(a, (k, 0))
        g.connect((k, 2), (k, 3))
        g.connect((k, 1), b)
    elif variant == 2:
        g.connect(a, (k, 1))
        g.connect((k, 3), (k, 0))
        g.connect((k, 2), b)
    else:
        g.connect(a, (k, 3))
        g.connect((k, 1), (k, 0))
        g.connect((k, 2), b)


def _candidates_r1_remove(g):
    out = []
    for nid in sorted(g.over_vertical):
        for p in range(4):
            q = (p + 1) % 4
            if g.conn.get((nid, p)) == (nid, q) and _spliceable(g, {nid}):
                out.append((nid, (p, q)))
    return out


def _apply_r1_remove(g, site):
    nid, _loop = site
    g.splice_out({nid})


def _candidates_r2_add(g):
    out = []
    for face in g.faces():
        for i, h1 in enumerate(face):
            for h2 in face[i + 1 :]:
                if g.conn[h1] == h2:
                    continue  # same wire seen from both sides
                for variant in ("over", "under"):
                    out.append((h1, h2, variant))
    out.sort()
    return out


def _apply_r2_add(g, site):
    h1, h2, variant = site
    alpha, beta = h1, g.conn[h1]
    gamma, delta = h2, g.conn[h2]
    g.disconnect(alpha)
    g.disconnect(gamma)
    c1 = g.add_node(False)
    c2 = g.add_node(False)
    if variant == "over":
        g.connect(beta, (c1, 3))
        g.connect((c1, 1), (c2, 1))
        g.connect((c2, 3), alpha)
        g.connect(gamma, (c1, 0))
        g.connect((c1, 2), (c2, 0))
        g.connect((c2, 2), delta)
    else:
        g.connect(beta, (c1, 0))
        g.connect((c1, 2), (c2, 2))
        g.connect((c2, 0), alpha)
        g.connect(gamma, (c1, 1))
        g.connect((c1, 3), (c2, 1))
        g.connect((c2, 3), delta)


def _candidates_r2_remove(g):
    out = []
    if len(g.over_vertical) < 3:
        return out  # removal must leave at least one crossing
    for face in g.faces():
        if len(face) != 2:
            continue
        h1, h2 = sorted(face)
        n1, n2 = h1[0], h2[0]
        if n1 == n2:
            continue
        if g.conn[h1] == h2:
            continue  # single wire doubling back
        if _role_over(g, h1) != _role_over(g, g.conn[h1]):
            continue  # strand changes level across the bigon
        if not _spliceable(g, {n1, n2}):
            continue
        out.append((h1, h2))
    out.sort()
    return out


def _apply_r2_remove(g, site):
    h1, h2 = site
    g.splice_out({h1[0], h2[0]})


def _triangle_sides(g, face):
    """(departure, arrival, over@dep, over@arr) per side of a triangle face."""
    sides = []
    for h in face:
        e = g.conn[h]
        sides.append((h, e, _role_over(g, h), _role_over(g, e)))
    return sides


def _candidates_r3(g):
    out = []
    for face in g.faces():
        if len(face) != 3:
            continue
        nodes = {h[0] for h in face}
        if len(nodes) != 3:
            continue
        wires = {frozenset((h, g.conn[h])) for h in face}
        if len(wires) != 3:
            continue
        sides = _triangle_sides(g, face)
        if not any(up and dn for _, _, up, dn in sides):
            continue  # cyclic triangle: no strand runs over both crossings
        k = min(range(3), key=lambda i: face[i])
        out.append(tuple(face[(k + i) % 3] for i in range(3)))
    out.sort()
    return out


def _apply_r3(g, site):
    sides = _triangle_sides(g, site)
    node = [h[0] for h in site]

    def level(i):
        _, _, up, dn = sides[i]
        if up and dn:
            return "T"
        if not up and not dn:
            return "B"
        return "M"

    levels = [level(i) for i in range(3)]
    t, m, b = (levels.index(x) for x in ("T", "M", "B"))

    def port_at(i, n):
        dep, arr, _, _ = sides[i]
        if dep[0] == arr[0]:
            raise MoveError("degenerate triangle side")
        return dep[1] if dep[0] == n else arr[1]

    def shared(i, j):
        ni = {node[i], node[(i + 1) % 3]}
        nj = {node[j], node[(j + 1) % 3]}
        return (ni & nj).pop()

    c_tm, c_tb, c_mb = shared(t, m), shared(t, b), shared(m, b)
    p_tseg = (c_tm, port_at(t, c_tm))
    p_tsg2 = (c_tb, port_at(t, c_tb))
    p_mseg = (c_tm, port_at(m, c_tm))
    m_tri = (c_mb, port_at(m, c_mb))
    p_bseg = (c_tb, port_at(b, c_tb))
    b_tri = (c_mb, port_at(b, c_mb))

    def across(port):
        return (port[0], (port[1] + 2) % 4)

    p_text, p_txt2 = across(p_tseg), across(p_tsg2)
    p_mext, m_other = across(p_mseg), across(m_tri)
    p_bext, b_other = across(p_bseg), across(b_tri)

    rho = {
        p_tseg: p_text,
        p_text: p_tsg2,
        p_tsg2: p_txt2,
        p_txt2: p_tseg,
        p_mseg: p_mext,
        p_mext: m_tri,
        m_tri: m_other,
        m_other: p_mseg,
        p_bseg: p_bext,
        p_bext: b_tri,
        b_tri: b_other,
        b_other: p_bseg,
    }
    old = g.wires()
    for u, _ in old:
        if u in g.conn:
            g.disconnect(u)
    for u, v in old:
        g.connect(rho.get(u, u), rho.get(v, v))


_ENUM = {
    "r1+": _candidates_r1_add,
    "r1-": _candidates_r1_remove,
    "r2+": _candidates_r2_add,
    "r2-": _candidates_r2_remove,
    "r3": _candidates_r3,
}
_APPLY = {
    "r1+": _apply_r1_add,
    "r1-": _apply_r1_remove,
    "r2+": _apply_r2_add,
    "r2-": _apply_r2_remove,
    "r3": _apply_r3,
}


def move_candidates(g, kind):
    """Viable move sites of one kind, in deterministic order."""
    if kind not in _ENUM:
        raise MoveError(f"unknown move kind {kind!r}")
    return _ENUM[kind](g)


def apply_move(g, kind, index=0):
    """Apply the index-th candidate of the given kind in place."""
    sites = move_candidates(g, kind)
    if index >= len(sites):
        raise MoveError(f"no {kind} move at site index {index}")
    _APPLY[kind](g, sites[index])
    report = validate(g.to_diagram())
    if not report.ok:
        raise MoveError(f"{kind} produced an invalid diagram: {report.failures}")


def reidemeister_perturb(pd, moves=10, seed=0):
    """Rewrite a diagram by Reidemeister moves, preserving the knot type.

    ``moves`` is either a count of random moves (driven by ``seed``) or an
    explicit sequence of ``(kind, site_index)`` pairs.  Raises MoveError when
    an explicit move is inapplicable, and ValidationError on an invalid input
    diagram (tracing the graph renumbers every edge, which would hide it).
    """
    _valid(pd)
    g = StrandGraph.from_diagram(pd)
    if isinstance(moves, int):
        rng = random.Random(seed)
        cap = max(2 * len(pd), len(pd) + 8)
        for _ in range(moves):
            options = []
            size = len(g.over_vertical)
            for kind in MOVE_KINDS:
                if kind.endswith("+") and size + 2 > cap:
                    continue
                sites = move_candidates(g, kind)
                if sites:
                    options.append((kind, sites))
            if not options:
                raise MoveError("no applicable moves")
            kind, sites = options[rng.randrange(len(options))]
            _APPLY[kind](g, sites[rng.randrange(len(sites))])
    else:
        for kind, index in moves:
            apply_move(g, kind, index)
    out = g.to_diagram()
    report = validate(out)
    if not report.ok:
        raise MoveError(f"perturbation produced an invalid diagram: {report.failures}")
    return out
