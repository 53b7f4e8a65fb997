"""Port-level strand graph: wiring discipline and diagram round-trips."""

import random
import re

import pytest

from knotlab.diagram import _face_orbits, _valid, faces, mirror, parse_pd, serialize_pd, validate
from knotlab.knotdb import bundled_table
from knotlab.moves import apply_move, move_candidates, reidemeister_perturb
from knotlab.wiring import StrandGraph, WiringError

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")
HOPF = parse_pd("X 1,4,2,3\nX 3,2,4,1")
# a chain of three rings
THREE_CHAIN = parse_pd("X 1,3,2,4\nX 4,2,5,1\nX 7,5,8,6\nX 6,8,3,7")


def _port(node, slot):
    return 4 * node + slot


def test_connect_discipline():
    g = StrandGraph()
    a = g.add_node()
    b = g.add_node()
    g.connect(_port(a, 0), _port(b, 2))
    with pytest.raises(WiringError):
        g.connect(_port(a, 0), _port(b, 3))  # port reuse
    with pytest.raises(WiringError):
        g.connect(_port(a, 1), _port(a, 1))  # self-wire
    assert g.wires() == [(_port(a, 0), _port(b, 2))]


def test_unknown_ports_and_nodes_are_refused():
    g = StrandGraph()
    a = g.add_node()
    b = g.add_node()
    with pytest.raises(WiringError, match=r"node 7, slot 1"):
        g.connect(_port(a, 0), _port(7, 1))  # node 7 was never added
    with pytest.raises(WiringError, match=r"malformed port \(0, 4\)"):
        g.connect((a, 4), _port(b, 0))  # a port is one int, not a (node, slot) pair
    with pytest.raises(WiringError, match=r"node 0, slot 0"):
        g.disconnect(_port(a, 0))  # unwired port
    with pytest.raises(WiringError, match="node 3"):
        g.remove_node(3)
    assert g.conn == {}
    assert g.nodes == {a, b}
    with pytest.raises(WiringError, match="node 3"):
        StrandGraph().remove_node(3)


def test_remove_node_requires_unwired():
    g = StrandGraph()
    a = g.add_node()
    b = g.add_node()
    g.connect(_port(a, 0), _port(b, 0))
    with pytest.raises(WiringError):
        g.remove_node(a)
    g.disconnect(_port(a, 0))
    g.remove_node(a)
    assert a not in g.nodes


def test_from_to_diagram_round_trip():
    for text in ("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3", "X 1,2,2,1", "X 1,4,2,3\nX 3,2,4,1"):
        pd = parse_pd(text)
        out = StrandGraph.from_diagram(pd).to_diagram()
        # edge labels are renumbered canonically, so compare validated shape
        assert validate(out).ok == validate(pd).ok
        assert len(out) == len(pd)
        assert out == parse_pd(serialize_pd(out))


def test_from_diagram_refuses_a_label_seen_once():
    with pytest.raises(WiringError, match="^edge label 1 does not appear exactly twice$"):
        StrandGraph.from_diagram(parse_pd("X 1,2,3,4"))


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
        nid for nid in g.nodes
        if any(g.conn[_port(nid, p)] >> 2 == nid for p in range(4))
    )
    g.splice_out({kink_node})
    out = g.to_diagram()
    assert len(out) == 3
    assert validate(out).ok
    assert invariant_tuple(out).key() == invariant_tuple(TREFOIL).key()


def test_splice_out_refuses_stranded_loops():
    g = StrandGraph.from_diagram(parse_pd("X 1,2,2,1"))
    conn, nodes = dict(g.conn), set(g.nodes)
    with pytest.raises(WiringError):
        g.splice_pairs(set(g.nodes))
    with pytest.raises(WiringError):
        g.splice_out(set(g.nodes))
    # the refusal is decided before any wire is touched
    assert g.conn == conn
    assert g.nodes == nodes


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
        assert tuple(tuple(divmod(h, 4) for h in face) for face in got) == faces(pd), pd


def _assert_fresh_faces(g):
    """g.faces() and g.face_walk() are what a fresh walk of the current wiring
    gives; a graph with an unwired port has no faces, and must not answer
    from a stale walk.  The port index and the same-face wire count are also
    recomputed from the faces and the wires."""
    try:
        want = _face_orbits(g.conn, sorted(g.nodes))
    except KeyError:
        for walk in (g.faces, g.face_walk):
            with pytest.raises(KeyError):
                walk()
        return
    got, index, same = g.face_walk()
    assert g.faces() == got == want[0]
    assert index == want[1]
    assert {h: f for h, f in enumerate(index) if f >= 0} == {
        h: f for f, face in enumerate(got) for h in face
    }
    assert same == want[2]
    assert same == sum(index[h] == index[e] for h, e in g.conn.items()) // 2


def test_faces_are_forgotten_on_every_mutation():
    g = StrandGraph.from_diagram(TREFOIL)
    _assert_fresh_faces(g)
    k = g.add_node()
    _assert_fresh_faces(g)
    g.remove_node(k)
    _assert_fresh_faces(g)
    u = _port(0, 0)
    v = g.disconnect(u)
    _assert_fresh_faces(g)
    g.connect(u, v)
    _assert_fresh_faces(g)

    kinked = StrandGraph.from_diagram(reidemeister_perturb(TREFOIL, moves=[("r1+", 0)]))
    _assert_fresh_faces(kinked)
    kink = next(
        n for n in kinked.nodes if any(kinked.conn[_port(n, p)] >> 2 == n for p in range(4))
    )
    kinked.splice_out({kink})
    _assert_fresh_faces(kinked)
    assert len(kinked.faces()) == len(TREFOIL) + 2

    # a rotation system that is not planar: its wires bound one face on both sides
    twisted = StrandGraph.from_diagram(parse_pd("X 1,2,1,2"))
    _assert_fresh_faces(twisted)
    assert twisted.face_walk()[2] == 2

    # this seeded rewrite has sites of all five kinds
    g = StrandGraph.from_diagram(reidemeister_perturb(TREFOIL, moves=8, seed=3))
    for kind in ("r3", "r2-", "r1-", "r1+", "r2+"):
        _assert_fresh_faces(g)
        apply_move(g, kind, 0)
        _assert_fresh_faces(g)


def test_compact_renumbers_in_order_once_most_ids_are_unused():
    g = StrandGraph.from_diagram(TREFOIL)
    apply_move(g, "r1+", 0)
    conn = g.conn
    g.compact()  # ids 0..3 all in use: nothing to do
    assert g.conn is conn and g.nodes == {0, 1, 2, 3}

    g = StrandGraph.from_diagram(TREFOIL)
    for nid in [g.add_node() for _ in range(5)]:
        g.remove_node(nid)
    apply_move(g, "r1+", 0)  # the kink takes id 8: 4 of 9 ids in use
    assert g.nodes == {0, 1, 2, 8}
    pd, wires, faces = g.to_diagram(), g.wires(), g.faces()
    sites = {kind: move_candidates(g, kind) for kind in ("r1-", "r2-", "r3")}
    g.compact()
    assert g.nodes == {0, 1, 2, 3}

    def moved(p):
        return 4 * {0: 0, 1: 1, 2: 2, 8: 3}[p >> 2] + (p & 3)

    assert g.to_diagram() == pd
    assert g.wires() == [(moved(u), moved(v)) for u, v in wires]
    assert g.faces() == [tuple(map(moved, f)) for f in faces]
    assert len(g.face_walk()[1]) == 16
    assert sites["r1-"] and move_candidates(g, "r1-") == [tuple(map(moved, s)) for s in sites["r1-"]]
    _assert_fresh_faces(g)
    assert g.add_node() == 4


def test_to_diagram_reads_past_gaps_in_node_ids():
    """Labels are kept in a list indexed by port up to the largest node id:
    with most ids unused, the trace is the one compact() leaves unchanged."""
    g = StrandGraph.from_diagram(TREFOIL)
    for _ in range(6):
        apply_move(g, "r1+", 0)  # kinks on nodes 3..8
    for nid in range(3, 8):
        assert any(len(f) == 1 and f[0] >> 2 == nid for f in g.faces()), nid
        g.splice_out({nid})
    assert g.nodes == {0, 1, 2, 8}
    pd = g.to_diagram()
    assert validate(pd).ok and len(pd) == 4
    g.compact()
    assert g.nodes == {0, 1, 2, 3}
    assert g.to_diagram() == pd

    g = StrandGraph.from_diagram(TREFOIL)
    assert g.disconnect(_port(1, 1)) == _port(2, 2)
    with pytest.raises(WiringError, match=re.escape("unwired port 5 (node 1, slot 1)")):
        g.to_diagram()


def test_malformed_ports_are_refused():
    g = StrandGraph.from_diagram(TREFOIL)
    conn = dict(g.conn)
    a = g.add_node()
    for port in (True, (a, 0), -1, 1.0, "0"):
        for call in (lambda: g.connect(port, _port(a, 1)), lambda: g.connect(_port(a, 1), port),
                     lambda: g.disconnect(port)):
            with pytest.raises(WiringError, match=r"malformed port " + re.escape(repr(port))):
                call()
    assert g.conn == conn  # a refused port leaves the wiring as it was


def _assert_faces_start_at_their_least_port(walked):
    assert all(face[0] == min(face) for face in walked), walked
    firsts = [face[0] for face in walked]
    assert firsts == sorted(firsts), walked


def test_faces_start_at_their_least_port():
    """The order contract of diagram._face_orbits that moves._sweep builds its
    sorted site lists on: each face starts at its least port, and the faces
    come in increasing order of that port."""
    diagrams = [rec.pd for rec in bundled_table()]
    diagrams += [reidemeister_perturb(pd, moves=6, seed=s) for pd in diagrams for s in range(4)]
    for link in (HOPF, mirror(HOPF), THREE_CHAIN):
        diagrams.append(link)
        diagrams += [reidemeister_perturb(link, moves=4 + s % 9, seed=s) for s in range(20)]
    for pd in diagrams:
        _assert_faces_start_at_their_least_port(_valid(pd).faces)
        _assert_faces_start_at_their_least_port(StrandGraph.from_diagram(pd).face_walk()[0])

    # graphs mid-rewrite, whose removed nodes leave gaps until compact() closes them
    rng = random.Random(5)
    gaps = renumbered = 0
    for rec in bundled_table():
        g = StrandGraph.from_diagram(rec.pd)
        for kind in ("r1+", "r2+", "r1+", "r3", "r2-", "r1-", "r3", "r1-", "r2-", "r1-"):
            sites = move_candidates(g, kind)
            if sites:
                apply_move(g, kind, rng.randrange(len(sites)))
            _assert_faces_start_at_their_least_port(g.face_walk()[0])
            gaps += max(g.nodes) >= len(g.nodes)
        nodes = set(g.nodes)
        g.compact()
        renumbered += g.nodes != nodes
        _assert_faces_start_at_their_least_port(g.face_walk()[0])
    assert gaps and renumbered
