"""Reidemeister moves: candidate enumeration, application, seeded rewrites."""

import copy
import hashlib

import pytest

from knotlab.constructions import torus_2n
from knotlab.diagram import (
    MAX_CROSSINGS,
    ValidationError,
    component_count,
    parse_pd,
    serialize_pd,
    validate,
    writhe,
)
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import bundled_table
from knotlab.moves import (
    MOVE_KINDS,
    MoveError,
    _r2_add_sites,
    _spliceable,
    _sweep,
    apply_move,
    move_candidates,
    reidemeister_perturb,
)
from knotlab.wiring import StrandGraph, WiringError

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
TREFOIL_KEY = invariant_tuple(TREFOIL).key()


def test_move_kinds():
    assert MOVE_KINDS == ("r1+", "r1-", "r2+", "r2-", "r3")
    g = StrandGraph.from_diagram(TREFOIL)
    with pytest.raises(MoveError):
        move_candidates(g, "r4")


def test_candidates_on_reduced_trefoil():
    g = StrandGraph.from_diagram(TREFOIL)
    assert move_candidates(g, "r1+")
    assert move_candidates(g, "r2+")
    # nothing to remove on a reduced alternating diagram
    assert move_candidates(g, "r1-") == []
    assert move_candidates(g, "r2-") == []


def _probed_removals(g, kind):
    """Reference removal sites: every kink or same-level bigon whose splice,
    tried on a deep copy of the graph, raises no WiringError."""
    if kind == "r1-":
        sites = [
            ((h, g.conn[h]), {nid})
            for nid in sorted(g.nodes)
            for h in range(4 * nid, 4 * nid + 4)  # port 4 * node + slot
            if g.conn[h] == 4 * nid + (h + 1) % 4
        ]
    else:
        sites = []
        for face in g.faces() if len(g.nodes) >= 3 else []:
            if len(face) != 2:
                continue
            h1, h2 = sorted(face)
            e = g.conn[h1]
            level = (h1 & 1, e & 1)  # odd ports carry the over-strand
            if h1 >> 2 != h2 >> 2 and e != h2 and level[0] == level[1]:
                sites.append(((h1, h2), {h1 >> 2, h2 >> 2}))
        sites.sort(key=lambda s: s[0])
    viable = []
    for site, nodes in sites:
        probe = copy.deepcopy(g)
        try:
            probe.splice_out(nodes)
        except WiringError:
            continue
        viable.append(site)
    return viable, len(sites)


def test_removal_sites_match_probing_a_copy():
    kink_pair = parse_pd("X 1,2,2,1")
    diagrams = [TREFOIL, kink_pair]
    for rec in bundled_table():
        diagrams.extend(reidemeister_perturb(rec.pd, moves=8, seed=s) for s in range(3))
    kept = refused = 0
    for pd in diagrams:
        g = StrandGraph.from_diagram(pd)
        for kind in ("r1-", "r2-"):
            want, tried = _probed_removals(g, kind)
            assert move_candidates(g, kind) == want, (kind, pd)
            kept += len(want)
            refused += tried - len(want)
    assert kept and refused
    # both kinks of the one-crossing unknot would strand a crossingless loop
    assert move_candidates(StrandGraph.from_diagram(kink_pair), "r1-") == []
    assert _probed_removals(StrandGraph.from_diagram(kink_pair), "r1-")[1] == 2


def test_r1_add_then_remove_round_trips():
    g = StrandGraph.from_diagram(TREFOIL)
    apply_move(g, "r1+", 0)
    mid = g.to_diagram()
    assert len(mid) == 4
    assert validate(mid).ok
    assert invariant_tuple(mid).key() == TREFOIL_KEY
    apply_move(g, "r1-", 0)
    out = g.to_diagram()
    assert len(out) == 3
    assert invariant_tuple(out).key() == TREFOIL_KEY


def test_r2_add_then_remove_round_trips():
    g = StrandGraph.from_diagram(TREFOIL)
    apply_move(g, "r2+", 0)
    mid = g.to_diagram()
    assert len(mid) == 5
    assert writhe(mid) == writhe(TREFOIL)  # r2 is writhe-neutral
    assert invariant_tuple(mid).key() == TREFOIL_KEY
    assert move_candidates(g, "r2-")
    apply_move(g, "r2-", 0)
    assert len(g.to_diagram()) == 3


def test_r3_preserves_count_and_tuple():
    # this seeded rewrite of the trefoil exposes triangle sites
    pd = reidemeister_perturb(TREFOIL, moves=8, seed=1)
    g = StrandGraph.from_diagram(pd)
    sites = move_candidates(g, "r3")
    assert sites
    apply_move(g, "r3", 0)
    out = g.to_diagram()
    assert len(out) == len(pd)
    assert validate(out).ok
    assert invariant_tuple(out).key() == TREFOIL_KEY


def test_r3_rewires_only_its_triangle(monkeypatch):
    g = StrandGraph.from_diagram(reidemeister_perturb(TREFOIL, moves=8, seed=1))
    for _ in range(100):
        apply_move(g, "r1+", 2 * len(g.conn) - 1)  # a kink on the last wire
    assert len(g.conn) // 2 == 208 and move_candidates(g, "r3")
    calls = []
    disconnect = StrandGraph.disconnect

    def counted_disconnect(self, u):
        calls.append(u)
        return disconnect(self, u)

    monkeypatch.setattr(StrandGraph, "disconnect", counted_disconnect)
    apply_move(g, "r3", 0)
    # 3 triangle sides and at most 6 wires leaving the triangle
    assert len(calls) <= 9
    assert invariant_tuple(g.to_diagram()).key() == TREFOIL_KEY


def test_apply_move_bad_index():
    g = StrandGraph.from_diagram(TREFOIL)
    with pytest.raises(MoveError):
        apply_move(g, "r1-", 0)
    with pytest.raises(MoveError):
        apply_move(g, "r1+", 10 ** 6)


def test_apply_move_rejects_negative_index():
    g = StrandGraph.from_diagram(TREFOIL)
    with pytest.raises(MoveError, match="-1"):
        apply_move(g, "r1+", -1)
    assert len(g.to_diagram()) == 3  # no site was applied


def test_apply_move_rejects_non_integer_index():
    g = StrandGraph.from_diagram(TREFOIL)
    with pytest.raises(MoveError, match="'0'"):
        apply_move(g, "r1+", "0")


def test_perturbation_rejects_negative_move_count():
    with pytest.raises(MoveError, match="-2"):
        reidemeister_perturb(TREFOIL, moves=-2)


def test_perturbation_rejects_fractional_move_count():
    with pytest.raises(MoveError, match="1.5"):
        reidemeister_perturb(TREFOIL, moves=1.5)


def test_perturbation_rejects_malformed_move_pair():
    with pytest.raises(MoveError, match=r"\('r1\+',\)"):
        reidemeister_perturb(TREFOIL, moves=[("r1+",)])


def test_explicit_move_sequence():
    out = reidemeister_perturb(TREFOIL, moves=[("r1+", 0), ("r2+", 3), ("r1-", 0)])
    assert len(out) == 5
    assert invariant_tuple(out).key() == TREFOIL_KEY
    with pytest.raises(MoveError):
        reidemeister_perturb(TREFOIL, moves=[("r2-", 0)])
    # every r2- of this 2-component diagram leaves one circle lying over the other twice
    pd = parse_pd("X 1,5,2,6\nX 2,5,3,8\nX 3,7,4,8\nX 4,7,1,6")
    for i in range(4):
        out = reidemeister_perturb(pd, moves=[("r2-", i)])
        assert serialize_pd(out) == "X 1,3,2,4\nX 2,3,1,4\n"
        assert component_count(out) == 2


def test_perturbation_rejects_invalid_input():
    # tracing renumbers every edge, so an unchecked invalid input comes back valid
    bad = parse_pd("X 1,5,3,6\nX 2,4,5,1\nX 6,3,4,2")
    assert not validate(bad).ok
    for moves in (0, 3, [("r1+", 0)]):
        with pytest.raises(ValidationError, match="do not increase by one"):
            reidemeister_perturb(bad, moves=moves)


def test_seeded_perturbation_preserves_knot_type():
    for seed in range(12):
        out = reidemeister_perturb(TREFOIL, moves=10, seed=seed)
        report = validate(out)
        assert report.ok, f"seed {seed}: {report.failures}"
        assert component_count(out) == 1, f"seed {seed}"
        assert invariant_tuple(out).key() == TREFOIL_KEY, f"seed {seed}"


def test_perturbation_is_deterministic_per_seed():
    a = reidemeister_perturb(TREFOIL, moves=9, seed=5)
    b = reidemeister_perturb(TREFOIL, moves=9, seed=5)
    assert a == b
    c = reidemeister_perturb(TREFOIL, moves=9, seed=6)
    assert a != c  # different seeds explore different rewrites


def test_perturbation_outputs_are_pinned():
    # any change to the candidate order or to the draw changes this digest
    h = hashlib.sha256()
    for rec in bundled_table():
        for seed in range(8):
            for moves in (6, 12):
                h.update(serialize_pd(reidemeister_perturb(rec.pd, moves=moves, seed=seed)).encode())
    assert h.hexdigest() == "3aed8255de230a7fdecd1691411a41be5a4fc5d644ee568a6acfa2e3ddcce9b2"


def test_perturbation_stays_within_the_crossing_limit():
    # growth stops at MAX_CROSSINGS, so a perturbed diagram parses back
    pd = torus_2n(MAX_CROSSINGS - 3)
    out = reidemeister_perturb(pd, moves=6, seed=1)
    size = len(out)  # 10,001 without the limit
    assert size <= MAX_CROSSINGS
    assert parse_pd(serialize_pd(out)) == out
    # an r1+ to exactly MAX_CROSSINGS is still drawn when r2+ would pass it
    out = reidemeister_perturb(torus_2n(MAX_CROSSINGS - 1), moves=4, seed=1)
    assert len(out) <= MAX_CROSSINGS
    assert parse_pd(serialize_pd(out)) == out
    g = StrandGraph.from_diagram(torus_2n(MAX_CROSSINGS - 1))
    with pytest.raises(MoveError, match="limit of 10000"):
        apply_move(g, "r2+", 0)
    apply_move(g, "r1+", 0)
    assert len(g.nodes) == MAX_CROSSINGS
    with pytest.raises(MoveError, match="limit of 10000"):
        apply_move(g, "r1+", 0)


def test_explicit_additions_make_no_removal_probe(monkeypatch):
    """An explicit r1+ or r2+ move asks for its own kind's sites only, so it
    probes no bigon with splice_pairs; an r2- probes its bigons, then
    splices one out."""
    calls = []
    splice_pairs = StrandGraph.splice_pairs

    def counted(g, removed):
        calls.append(set(removed))
        return splice_pairs(g, removed)

    monkeypatch.setattr(StrandGraph, "splice_pairs", counted)
    for rec in bundled_table():
        g = StrandGraph.from_diagram(rec.pd)
        for kind, index in (("r1+", 0), ("r1+", 5), ("r2+", 0), ("r2+", 7)):
            apply_move(g, kind, index)
        assert calls == [], rec.name
        apply_move(g, "r2-", 0)
        assert len(calls) >= 2, rec.name  # at least one probe, and the splice
        calls.clear()


def test_counted_sites_match_the_candidate_lists():
    # a planar diagram has no wire with one face on both sides; this torus-like
    # rotation system has two, so the skipped same-wire pairs are counted too
    diagrams = [TREFOIL, parse_pd("X 1,2,1,2")]
    for rec in bundled_table():
        diagrams.append(rec.pd)
        diagrams.extend(reidemeister_perturb(rec.pd, moves=6, seed=s) for s in range(3))
    for pd in diagrams:
        g = StrandGraph.from_diagram(pd)
        for kind in MOVE_KINDS:
            sites = move_candidates(g, kind)
            n, pick = _sweep(g, (kind,))[kind]
            assert n == len(sites), (kind, pd)
            assert [pick(i) for i in range(n)] == sites, (kind, pd)
        r2_add = move_candidates(g, "r2+")
        assert list(_r2_add_sites(g, len(r2_add) // 3)) == r2_add[len(r2_add) // 3 :]


def _loop_r1_remove(g):
    out = []
    for face in g.faces():
        if len(face) == 1 and _spliceable(g, {face[0] >> 2}):
            h = face[0]
            out.append((h, g.conn[h]))
    out.sort()
    return out


def _loop_r2_remove(g):
    out = []
    if len(g.nodes) < 3:
        return out
    for face in g.faces():
        if len(face) != 2:
            continue
        h1, h2 = sorted(face)
        n1, n2 = h1 >> 2, h2 >> 2
        if n1 == n2:
            continue
        if (h1 ^ g.conn[h1]) & 1:
            continue
        if not _spliceable(g, {n1, n2}):
            continue
        out.append((h1, h2))
    out.sort()
    return out


def _loop_r3(g):
    out = []
    for face in g.faces():
        if len(face) != 3 or len({h >> 2 for h in face}) != 3:
            continue
        if not any(h & g.conn[h] & 1 for h in face):
            continue
        k = face.index(min(face))
        out.append(face[k:] + face[:k])
    out.sort()
    return out


def _loop_r2_add_count(g):
    faces, _, same_wire = g.face_walk()
    return 2 * (sum(len(face) * (len(face) - 1) // 2 for face in faces) - same_wire)


def test_one_sweep_matches_the_per_kind_loops():
    """The one sweep lists what a loop over the faces per kind lists, and
    counts the r2+ sites as the sum over faces did, on 300 seeded rewrites,
    the one-crossing figure eight and kinked rewrites.  A kink is judged by
    its node's wiring, the loop probes its splice: both must agree on kinks
    that can be removed and on the figure eight's, which cannot."""
    loops = {"r1-": _loop_r1_remove, "r2-": _loop_r2_remove, "r3": _loop_r3}
    seen = dict.fromkeys(loops, 0)
    eight = parse_pd("X 1,2,2,1")
    corpus = [("eight", eight)]
    corpus.extend((("eight r1+", v), reidemeister_perturb(eight, [("r1+", v)])) for v in range(4))
    for rec in bundled_table():
        corpus.extend(
            ((rec.name, seed), reidemeister_perturb(rec.pd, moves=6, seed=seed))
            for seed in range(20)
        )
        kinked = [("r1+", 0), ("r1+", 5), ("r1+", 11)]
        corpus.append(((rec.name, "kinked"), reidemeister_perturb(rec.pd, kinked)))
    kinks = 0
    for where, pd in corpus:
        g = StrandGraph.from_diagram(pd)
        swept = _sweep(g)
        for kind, loop in loops.items():
            want = loop(g)
            assert move_candidates(g, kind) == want, (where, kind)
            n, pick = swept[kind]
            assert [pick(i) for i in range(n)] == want, (where, kind)
            seen[kind] += len(want)
        kinks += sum(len(face) == 1 for face in g.faces())
        r2_add = _loop_r2_add_count(g)
        assert swept["r2+"][0] == _sweep(g, ("r2+",))["r2+"][0] == r2_add, where
        assert swept["r1+"][0] == _sweep(g, ("r1+",))["r1+"][0], where
    assert all(seen.values()), seen
    assert 0 < seen["r1-"] < kinks  # some kinks are viable and some are refused


def test_every_r3_site_is_pinned():
    # every triangle site, not only the drawn ones: any change to the r3
    # candidate order or to its rewiring changes this digest
    diagrams = [parse_pd("X 1,2,1,2")]
    for rec in bundled_table():
        diagrams.append(rec.pd)
        diagrams.extend(reidemeister_perturb(rec.pd, moves=12, seed=s) for s in range(8))
    h = hashlib.sha256()
    applied = 0
    for pd in diagrams:
        for i in range(len(move_candidates(StrandGraph.from_diagram(pd), "r3"))):
            g = StrandGraph.from_diagram(pd)
            apply_move(g, "r3", i)
            h.update(serialize_pd(g.to_diagram()).encode())
            applied += 1
    assert applied == 110
    assert h.hexdigest() == "0b7fe9c43b6e7a0826c79f4eee6a07b7f7242cb49878ec98fff0ecb15d97cbd5"


def test_long_perturbations_are_compacted():
    """Node ids are never reused, so a long rewrite keeps taking new ones
    while the crossing cap keeps its diagram small.  Compacting after each
    move keeps every face walk within twice the live ports and changes no
    output."""
    longest = []
    walk = StrandGraph.face_walk

    def measured(g):
        longest.append(len(walk(g)[1]) / (8 * len(g.nodes)))
        return walk(g)

    outputs = [reidemeister_perturb(TREFOIL, moves=400, seed=s) for s in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StrandGraph, "face_walk", measured)
        reidemeister_perturb(TREFOIL, moves=400, seed=0)
        reidemeister_perturb(TREFOIL, moves=[("r1+", 0), ("r1-", 0)] * 100)
        assert max(longest) <= 1
        mp.setattr(StrandGraph, "compact", lambda g: None)
        assert [reidemeister_perturb(TREFOIL, moves=400, seed=s) for s in range(3)] == outputs
        longest.clear()
        reidemeister_perturb(TREFOIL, moves=400, seed=0)
        assert max(longest) > 4  # without it, the walk grows with the history
