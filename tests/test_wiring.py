"""Port-level strand graph: wiring discipline and diagram round-trips."""

import pytest

from knotlab.diagram import faces, parse_pd, serialize_pd, validate
from knotlab.knotdb import bundled_table
from knotlab.moves import reidemeister_perturb
from knotlab.wiring import StrandGraph, WiringError

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")


def test_connect_discipline():
    g = StrandGraph()
    a = g.add_node()
    b = g.add_node()
    g.connect((a, 0), (b, 2))
    with pytest.raises(WiringError):
        g.connect((a, 0), (b, 3))  # port reuse
    with pytest.raises(WiringError):
        g.connect((a, 1), (a, 1))  # self-wire
    assert g.wires() == [((a, 0), (b, 2))]


def test_remove_node_requires_unwired():
    g = StrandGraph()
    a = g.add_node()
    b = g.add_node()
    g.connect((a, 0), (b, 0))
    with pytest.raises(WiringError):
        g.remove_node(a)
    g.disconnect((a, 0))
    g.remove_node(a)
    assert a not in g.over_vertical


def test_over_under_pairs_follow_flag():
    g = StrandGraph()
    flat = g.add_node(over_vertical=False)
    tall = g.add_node(over_vertical=True)
    assert g.under_pair(flat) == (0, 2) and g.over_pair(flat) == (1, 3)
    assert g.under_pair(tall) == (1, 3) and g.over_pair(tall) == (0, 2)


def test_from_to_diagram_round_trip():
    for text in ("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3", "X 1,2,2,1", "X 1,4,2,3\nX 3,2,4,1"):
        pd = parse_pd(text)
        out = StrandGraph.from_diagram(pd).to_diagram()
        # edge labels are renumbered canonically, so compare validated shape
        assert validate(out).ok == validate(pd).ok
        assert len(out) == len(pd)
        assert out == parse_pd(serialize_pd(out))


def test_round_trip_is_stable():
    g = StrandGraph.from_diagram(TREFOIL)
    once = g.to_diagram()
    twice = StrandGraph.from_diagram(once).to_diagram()
    assert once == twice


def test_splice_out_reconnects_through_strands():
    from knotlab.invariants import invariant_tuple
    from knotlab.moves import reidemeister_perturb

    kinked = reidemeister_perturb(TREFOIL, moves=[("r1+", 0)])
    g = StrandGraph.from_diagram(kinked)
    kink_node = next(
        nid for nid in g.over_vertical
        if any(g.conn[(nid, p)][0] == nid for p in range(4))
    )
    g.splice_out({kink_node})
    out = g.to_diagram()
    assert len(out) == 3
    assert validate(out).ok
    assert invariant_tuple(out).key() == invariant_tuple(TREFOIL).key()


def test_splice_out_refuses_stranded_loops():
    g = StrandGraph.from_diagram(parse_pd("X 1,2,2,1"))
    conn, over_vertical = dict(g.conn), dict(g.over_vertical)
    with pytest.raises(WiringError):
        g.splice_pairs(set(g.over_vertical))
    with pytest.raises(WiringError):
        g.splice_out(set(g.over_vertical))
    # the refusal is decided before any wire is touched
    assert g.conn == conn
    assert g.over_vertical == over_vertical


def test_faces_counts_match_euler():
    g = StrandGraph.from_diagram(TREFOIL)
    assert len(g.faces()) == len(TREFOIL) + 2
    # the port graph and the diagram trace the same faces in the same order
    diagrams = [TREFOIL]
    for rec in bundled_table():
        diagrams.append(rec.pd)
        diagrams.extend(reidemeister_perturb(rec.pd, moves=6, seed=s) for s in range(20))
    for pd in diagrams:
        got = StrandGraph.from_diagram(pd).faces()
        assert len(got) == len(pd) + 2
        assert tuple(got) == faces(pd), pd
