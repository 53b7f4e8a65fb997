"""Reidemeister moves: candidate enumeration, application, seeded rewrites."""

import copy

import pytest

from knotlab.diagram import ValidationError, component_count, parse_pd, validate, writhe
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import bundled_table
from knotlab.moves import MOVE_KINDS, MoveError, apply_move, move_candidates, reidemeister_perturb
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
            ((nid, (p, (p + 1) % 4)), {nid})
            for nid in sorted(g.over_vertical)
            for p in range(4)
            if g.conn[(nid, p)] == (nid, (p + 1) % 4)
        ]
    else:
        sites = []
        for face in g.faces() if len(g.over_vertical) >= 3 else []:
            if len(face) != 2:
                continue
            h1, h2 = sorted(face)
            e = g.conn[h1]
            level = (h1[1] in g.over_pair(h1[0]), e[1] in g.over_pair(e[0]))
            if h1[0] != h2[0] and e != h2 and level[0] == level[1]:
                sites.append(((h1, h2), {h1[0], h2[0]}))
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


def test_apply_move_bad_index():
    g = StrandGraph.from_diagram(TREFOIL)
    with pytest.raises(MoveError):
        apply_move(g, "r1-", 0)
    with pytest.raises(MoveError):
        apply_move(g, "r1+", 10 ** 6)


def test_explicit_move_sequence():
    out = reidemeister_perturb(TREFOIL, moves=[("r1+", 0), ("r2+", 3), ("r1-", 0)])
    assert len(out) == 5
    assert invariant_tuple(out).key() == TREFOIL_KEY
    with pytest.raises(MoveError):
        reidemeister_perturb(TREFOIL, moves=[("r2-", 0)])


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
