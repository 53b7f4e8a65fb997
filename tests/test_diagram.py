"""PD parsing, validation, orientation, faces, checkerboard structure."""

import hashlib
import itertools
import random

import pytest

from knotlab import constructions, diagram, seifert
from knotlab.diagram import (
    MAX_CROSSINGS,
    Crossing,
    InconsistencyError,
    ParseError,
    PlanarDiagram,
    ValidationError,
    _ParityUnionFind,
    _valid,
    checkerboard,
    component_count,
    crossing_signs,
    faces,
    gauss_code,
    is_alternating,
    mirror,
    parse_pd,
    serialize_pd,
    validate,
    writhe,
)
from knotlab.invariants import _goeritz, alexander_matrix, invariant_tuple
from knotlab.knotdb import bundled_table
from knotlab.moves import _apply_r1_add, apply_move, move_candidates, reidemeister_perturb
from knotlab.seifert import seifert_circles
from knotlab.wiring import StrandGraph

TREFOIL = "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3"
KINK = "X 1,2,2,1"
HOPF = "X 1,4,2,3\nX 3,2,4,1"
KINK_CHAIN = "X 1,2,2,3\nX 3,4,4,5\nX 5,6,6,1"
# trefoil with the first crossing switched: a one-crossing-changed unknot
SWITCHED = "X 4,2,5,1\nX 3,6,4,1\nX 5,2,6,3"
# the 2-component unlink with one circle (edges 3, 4) over at both crossings
OVER_ONLY_UNLINK = "X 1,3,2,4\nX 2,3,1,4"
# a chain of three rings: edges 1-2 clasp 3-6 at crossings 0 and 1, 3-6 clasp 7-8 at 2 and 3
THREE_CHAIN = "X 1,3,2,4\nX 4,2,5,1\nX 7,5,8,6\nX 6,8,3,7"


def test_parse_serialize_round_trip():
    for text in (TREFOIL, KINK, HOPF, KINK_CHAIN, SWITCHED):
        pd = parse_pd(text)
        assert serialize_pd(pd) == text + "\n"
        assert parse_pd(serialize_pd(pd)) == pd


def test_diagram_built_from_a_list_is_a_tuple_diagram():
    pd = parse_pd(TREFOIL)
    from_list = PlanarDiagram(list(pd.crossings))
    assert from_list == pd and hash(from_list) == hash(pd)
    assert validate(from_list).ok
    assert invariant_tuple(from_list) == invariant_tuple(pd)


@pytest.mark.parametrize("label", [1.0, True, "1", None], ids=repr)
def test_diagram_refuses_labels_that_are_not_ints(label):
    # 1 == 1.0 == True: a diagram equal to the trefoil would be handed the
    # trefoil's cached resolution, so the label is refused when it is built
    first, *rest = parse_pd(TREFOIL).crossings
    with pytest.raises(ValidationError, match="is not an int"):
        PlanarDiagram([first._replace(a=label), *rest])


def test_diagram_turns_plain_tuples_into_crossings():
    parsed = parse_pd(TREFOIL)
    built = PlanarDiagram([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
    assert all(x.__class__ is Crossing for x in built.crossings)
    assert serialize_pd(built) == serialize_pd(parsed) == TREFOIL + "\n"
    assert seifert_circles(built) == seifert_circles(parsed)
    for bad in ((1, 2, 3), (1, 2, 3, 4, 5), [1, 2, 3, 4], 7, None, "1234"):
        with pytest.raises(ValidationError, match="is not a tuple of four edge labels"):
            PlanarDiagram([bad])


def test_parse_accepts_comment_and_spacing_noise():
    pd = parse_pd("# a knot\nX 1,4,2,5\n\nX  3, 6 ,4,1\nX 5 , 2 , 6 , 3\n")
    assert pd == parse_pd(TREFOIL)


def test_parse_errors():
    for bad in ("X 1,2,3", "Y 1,2,3,4", "X a,2,3,4", ""):
        with pytest.raises(ParseError):
            parse_pd(bad)


def test_parse_refuses_more_than_max_crossings():
    assert constructions.MAX_CROSSINGS is MAX_CROSSINGS  # one limit for text and constructions
    text = serialize_pd(constructions.rational_knot([2, MAX_CROSSINGS - 2]))
    assert len(parse_pd(text)) == MAX_CROSSINGS
    with pytest.raises(ParseError, match=f"^line {MAX_CROSSINGS + 1}: more than 10000 crossings$"):
        parse_pd(text + "X 1,2,3,4\n")


def test_validate_refuses_a_built_diagram_over_max_crossings(monkeypatch):
    """A diagram built in the library, not parsed, is held to the same limit."""
    g = StrandGraph.from_diagram(constructions.torus_2n(MAX_CROSSINGS - 1))
    _apply_r1_add(g, (g.wires()[0], 0))
    at_limit = g.to_diagram()
    assert len(at_limit) == MAX_CROSSINGS and validate(at_limit).ok
    for _ in range(2):
        _apply_r1_add(g, (g.wires()[0], 0))
    pd = g.to_diagram()
    assert len(pd) == MAX_CROSSINGS + 2
    report = validate(pd)
    assert not report.ok
    assert report.failures == ("diagram of 10002 crossings exceeds the limit of 10000",)
    with pytest.raises(ValidationError, match="^diagram of 10002 crossings exceeds the limit of 10000$"):
        _valid(pd)
    # the limit is the first check, made before any per-crossing work
    monkeypatch.setattr(diagram, "_occurrences", None)
    assert diagram._resolve(pd).failures == report.failures


def test_validate_trefoil():
    report = validate(parse_pd(TREFOIL))
    assert report.ok and not report.failures
    assert report.crossing_count == 3
    assert report.component_count == 1
    assert report.face_count == 5  # C + 2


def test_validate_counts_labels():
    report = validate(parse_pd("X 1,2,3,4"))
    assert not report.ok
    assert any("label" in f or "edge" in f for f in report.failures)


def test_validate_rejects_nonplanar_rotation():
    # two labels transposed against the trefoil: consistent edges, wrong genus
    report = validate(parse_pd("X 1,4,2,5\nX 3,1,4,6\nX 5,2,6,3"))
    assert not report.ok
    assert any("planar" in f for f in report.failures)


def test_validate_accepts_a_circle_lying_over_at_both_crossings():
    # the 2-component unlink: labels 3 and 4 sit in the same slots at both
    # crossings, so the over-strand enters by slot 1 at one and slot 3 at the other
    pd = parse_pd("X 1,3,2,4\nX 2,3,1,4")
    report = validate(pd)
    assert report.ok, report.failures
    assert (report.component_count, report.face_count) == (2, 4)
    assert crossing_signs(pd) == [1, -1]


def test_validate_rejects_inconsistent_orientations():
    # edges 1 and 2 give both crossings the same over-strand choice, while
    # edge 3, from slot 3 to slot 3, needs opposite ones
    report = validate(parse_pd("X 2,1,4,3\nX 1,2,4,3"))
    assert report.failures == ("inconsistent strand orientation at crossing 0",)


def _oracle_valid(crossings):
    """C + 2 faces, connected, and some choice of over directions gives every
    edge one head and one tail, with labels rising by one along each component."""
    n = len(crossings)
    ends = {}
    for ci, x in enumerate(crossings):
        for s, lab in enumerate(x):
            ends.setdefault(lab, []).append((ci, s))
    partner = {}
    for u, v in ends.values():
        partner[u], partner[v] = v, u
    seen, face_count = set(), 0
    for start in partner:
        if start not in seen:
            face_count += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                ci, s = partner[cur]
                cur = (ci, (s - 1) % 4)
    reached, todo = {0}, [0]
    while todo:
        ci = todo.pop()
        for s in range(4):
            other = partner[(ci, s)][0]
            if other not in reached:
                reached.add(other)
                todo.append(other)
    if face_count != n + 2 or len(reached) != n:
        return False
    for choice in itertools.product(((1, 3), (3, 1)), repeat=n):
        succ = {}
        heads = []
        for x, (i, o) in zip(crossings, choice):
            succ[x[0]], succ[x[i]] = x[2], x[o]
            heads += [x[0], x[i]]
        if sorted(heads) != list(range(1, 2 * n + 1)) or len(set(succ.values())) != 2 * n:
            continue
        rising = True
        for e in succ:
            cycle = [e]
            while succ[cycle[-1]] != e:
                cycle.append(succ[cycle[-1]])
            lo = min(cycle)
            rising &= all(succ[f] == (f + 1 if f + 1 < lo + len(cycle) else lo) for f in cycle)
        if rising:
            return True
    return False


def test_validate_matches_an_orientation_search():
    mismatches = []
    for labels in sorted(set(itertools.permutations((1, 1, 2, 2, 3, 3, 4, 4)))):
        crossings = (labels[:4], labels[4:])
        pd = parse_pd("".join("X {},{},{},{}\n".format(*x) for x in crossings))
        if validate(pd).ok != _oracle_valid(crossings):
            mismatches.append(serialize_pd(pd))
    assert not mismatches, mismatches


def test_orientation_readers_are_pinned():
    # everything that reads which over slot is incoming: signs, mirror, the
    # Gauss code, the Seifert smoothing and the Fox rows
    diagrams = []
    for rec in bundled_table():
        diagrams += [rec.pd, mirror(rec.pd)]
        diagrams += [reidemeister_perturb(rec.pd, moves=8, seed=s) for s in range(3)]
    diagrams += [
        constructions.torus_2n(5),
        constructions.torus_2n(-29),
        constructions.cable2(constructions.torus_2n(3), -5),
        constructions.whitehead_double(constructions.DoubleSpec(constructions.torus_2n(3), -2, -1)),
        constructions.paper_family(1)[0],
    ]
    assert len(diagrams) == 80
    h = hashlib.sha256()
    for pd in diagrams:
        fox = [[(e.offset, e.coeffs) for e in row] for row in alexander_matrix(pd)]
        readers = (serialize_pd(mirror(pd)), crossing_signs(pd), gauss_code(pd), seifert_circles(pd), fox)
        h.update(repr(readers).encode())
    assert h.hexdigest() == "67b2f950e2b2257b509e253b9d959fbbd7188a4a47767beedaf840c60ee40c7c"


def test_validate_rejects_split_diagram():
    report = validate(parse_pd("X 1,2,2,1\nX 3,4,4,3"))
    assert not report.ok
    assert report.failures == ("split diagram: underlying graph is disconnected",)


def test_component_count():
    assert component_count(parse_pd(TREFOIL)) == 1
    assert component_count(parse_pd(KINK)) == 1
    assert component_count(parse_pd(HOPF)) == 2


def test_signs_and_writhe():
    assert crossing_signs(parse_pd(TREFOIL)) == [1, 1, 1]
    assert writhe(parse_pd(TREFOIL)) == 3
    assert writhe(parse_pd(KINK)) == 1  # the naive b+1 shortcut would get this wrong
    assert writhe(parse_pd(KINK_CHAIN)) == 3
    assert writhe(parse_pd(SWITCHED)) == 1


def test_mirror_negates_writhe_and_involutes():
    for text in (TREFOIL, KINK, KINK_CHAIN):
        pd = parse_pd(text)
        assert writhe(mirror(pd)) == -writhe(pd)
        assert mirror(mirror(pd)) == pd


def test_faces_partition_corners():
    pd = parse_pd(TREFOIL)
    fs = faces(pd)
    corners = [c for f in fs for c in f]
    assert len(corners) == 4 * len(pd)
    assert len(set(corners)) == len(corners)
    assert len(fs) == len(pd) + 2


def test_checkerboard_two_coloring():
    for text in (TREFOIL, KINK, KINK_CHAIN, HOPF):
        pd = parse_pd(text)
        colors = checkerboard(pd)
        fs = faces(pd)
        assert len(colors) == len(fs)
        assert set(colors) == {"white", "black"}
        # the root convention: the face holding corner (0, 0) is white
        root = next(i for i, f in enumerate(fs) if (0, 0) in f)
        assert colors[root] == "white"


def test_alternating():
    assert is_alternating(parse_pd(TREFOIL))
    assert is_alternating(parse_pd(KINK))  # a lone kink alternates along the strand
    assert not is_alternating(parse_pd(SWITCHED))


def _union_find_checkerboard(pd):
    """The reference coloring: a parity union-find over the faces that puts
    the two faces beside every edge in opposite colors."""
    rr = _valid(pd)
    uf = _ParityUnionFind(len(rr.faces))
    for u, v in rr.occ.values():
        assert uf.union(rr.face_of_corner[u], rr.face_of_corner[v], True)
    _, white = uf.find(rr.face_of_corner[0])  # corner 0 of crossing 0
    return ["white" if uf.find(f)[1] == white else "black" for f in range(len(rr.faces))]


def _reference_goeritz(pd, color):
    """The Goeritz rows and correction term read corner by corner from the
    union-find coloring; color None takes the color with fewer faces."""
    rr = _valid(pd)
    colors = _union_find_checkerboard(pd)
    if color is None:
        color = "black" if 2 * colors.count("black") < len(colors) else "white"
    carrier = [f for f, c in enumerate(colors) if c == color]
    pos = {f: k - 1 for k, f in enumerate(carrier)}
    rows = [{} for _ in carrier[1:]]
    mu = 0
    for ci in range(len(pd)):
        corners = [k for k in range(4) if colors[rr.face_of_corner[4 * ci + k]] == color]
        assert corners in ([0, 2], [1, 3])
        eta = -1 if corners == [0, 2] else 1
        if (corners == [0, 2]) == (rr.signs[ci] < 0):  # type II
            mu += eta
        fi, fj = (pos[rr.face_of_corner[4 * ci + k]] for k in corners)
        if fi != fj:
            for a, b in ((fi, fj), (fj, fi)):
                if a >= 0:
                    rows[a][a] = rows[a].get(a, 0) + eta
                    if b >= 0:
                        rows[a][b] = rows[a].get(b, 0) - eta
    return rows, mu


def _strand_passage_alternating(pd):
    """The reference rule: no two passages in a row along a strand are both
    over or both under."""
    return all(
        seq[i][1] != seq[i - 1][1] for seq in diagram.strand_passages(pd) for i in range(len(seq))
    )


def _coloring_corpus():
    """Perturbed knots, perturbed Hopf links, the over-only unlink and a
    3-component chain, plain and perturbed."""
    for rec in bundled_table():
        for seed in range(3):
            yield f"{rec.name} seed {seed}", reidemeister_perturb(rec.pd, moves=8, seed=seed)
    hopf, chain = parse_pd(HOPF), parse_pd(THREE_CHAIN)
    for name, pd in (("hopf", hopf), ("mirror hopf", mirror(hopf)), ("chain", chain)):
        for seed in range(20):
            yield f"{name} seed {seed}", reidemeister_perturb(pd, moves=4 + seed % 9, seed=seed)
    for text in (TREFOIL, KINK, KINK_CHAIN, HOPF, OVER_ONLY_UNLINK, THREE_CHAIN):
        yield repr(text), parse_pd(text)


def test_checkerboard_and_goeritz_match_the_union_find_coloring():
    counts = set()
    for name, pd in _coloring_corpus():
        counts.add(component_count(pd))
        assert checkerboard(pd) == _union_find_checkerboard(pd), name
        for color in (None, "white", "black"):
            assert _goeritz(pd, color) == _reference_goeritz(pd, color), (name, color)
    assert counts == {1, 2, 3}


def _dict_face_of(partner, ports):
    """The reference walk: a dict port -> face, faces numbered in the order
    their first port comes in `ports`; each step follows the wire and turns
    to the clockwise-adjacent slot."""
    face_of = {}
    for start in ports:
        if start in face_of:
            continue
        f = len(set(face_of.values()))
        h = start
        while h not in face_of:
            face_of[h] = f
            e = partner[h]
            h = 4 * (e // 4) + (e - 1) % 4
    return face_of


def test_face_of_corner_matches_a_dict_walker():
    for name, pd in _coloring_corpus():
        rr = _valid(pd)
        partner = {}
        for u, v in rr.occ.values():
            partner[u], partner[v] = v, u
        want = _dict_face_of(partner, range(4 * len(pd)))
        assert rr.face_of_corner == [want[h] for h in range(4 * len(pd))], name
        assert [rr.face_of_corner[h] for face in rr.faces for h in face] == [
            f for f, face in enumerate(rr.faces) for _ in face
        ], name


def test_graph_face_of_is_minus_one_exactly_at_removed_nodes():
    """A graph's face_of matches the dict walker on seeded rewrites, before
    and after removal moves splice nodes out, and holds -1 exactly at the
    ports of the removed nodes."""
    holes = 0
    for rec in bundled_table():
        for seed in range(4):
            g = StrandGraph.from_diagram(reidemeister_perturb(rec.pd, moves=6, seed=seed))
            for kind in (None, "r1-", "r2-", "r1-"):
                if kind is not None:
                    if not move_candidates(g, kind):
                        continue
                    apply_move(g, kind, 0)
                face_of = g.face_walk()[1]
                ports = sorted(4 * n + s for n in g.nodes for s in range(4))
                want = _dict_face_of(g.conn, ports)
                assert face_of == [want.get(h, -1) for h in range(4 * max(g.nodes) + 4)]
                removed = {h for h in range(len(face_of)) if h >> 2 not in g.nodes}
                assert {h for h, f in enumerate(face_of) if f < 0} == removed
                holes += len(removed)
    assert holes  # some removed node lies below the last one


def test_alternating_matches_the_strand_passages():
    seen = set()
    for name, pd in _coloring_corpus():
        alternating = is_alternating(pd)
        seen.add((component_count(pd), alternating))
        assert alternating == _strand_passage_alternating(pd), name
    assert {(1, True), (1, False), (2, True), (2, False), (3, True), (3, False)} <= seen
    assert not is_alternating(parse_pd(OVER_ONLY_UNLINK))  # one circle is only over
    assert is_alternating(parse_pd(THREE_CHAIN))


def test_link_gauss_codes_are_pinned():
    # the coloring corpus holds links, including one whose second component
    # passes only over, so every edge head is read from an over slot there
    h = hashlib.sha256()
    count = 0
    for _, pd in _coloring_corpus():
        h.update(repr((gauss_code(pd), diagram.strand_passages(pd))).encode())
        count += 1
    assert count == 111
    assert h.hexdigest() == "af67ba90e43a0e357a775e1296213c9e8e04eee66dd1da436a970a08ab666adf"


def test_coloring_runs_no_union_find(monkeypatch):
    """Once a diagram is resolved, its colors and Goeritz forms are read from
    the labels alone."""
    pd = reidemeister_perturb(parse_pd(THREE_CHAIN), moves=6, seed=1)
    _valid(pd)
    monkeypatch.setattr(diagram, "_ParityUnionFind", None)
    checkerboard(pd)
    is_alternating(pd)
    for color in (None, "white", "black"):
        _goeritz(pd, color)


def test_face_color_cross_check_is_live(monkeypatch):
    """A face list that mixes corner parities is refused, not colored."""
    pd = parse_pd(TREFOIL)
    real = _valid(pd)
    bad = diagram._Resolved()
    for field in diagram._Resolved.__slots__:
        setattr(bad, field, getattr(real, field))
    # corners 0 and 1 of crossing 0 lie in faces of opposite colors; swap them
    f0, f1 = real.face_of_corner[0], real.face_of_corner[1]
    assert f0 != f1
    swap = {0: 1, 1: 0}  # corners 4 * crossing + k
    bad.faces = tuple(
        tuple(swap.get(c, c) for c in face) if f in (f0, f1) else face
        for f, face in enumerate(real.faces)
    )
    monkeypatch.setattr(diagram, "_res", lambda _: bad)
    with pytest.raises(InconsistencyError, match="^faces of a 4-valent diagram must be 2-colorable$"):
        checkerboard(pd)
    for color in (None, "white", "black"):
        with pytest.raises(InconsistencyError, match="2-colorable"):
            _goeritz(pd, color)


SPLIT = "split diagram: underlying graph is disconnected"
# failures the resolver reports once strand orientations resolve
_AFTER_ORIENTATION = ("edge labels do not increase", SPLIT, "rotation system is not planar")


def _crossings_connected(pd):
    """The reference split check: a union-find over the crossings, joined
    along every edge."""
    uf = _ParityUnionFind(len(pd))
    for u, v in diagram._occurrences(pd).values():
        uf.union(u >> 2, v >> 2)
    return uf.connected()


def _split_corpus():
    """The coloring corpus; links and a three-chain beside loose components;
    and seeded label shuffles of 2-5 crossings whose strand orientations
    resolve, planar or not."""
    yield from _coloring_corpus()
    for text in (
        HOPF + "\nX 5,6,6,5",
        "X 1,2,2,1\nX 3,6,4,5\nX 5,4,6,3",  # a kink, then a Hopf link
        THREE_CHAIN + "\nX 9,10,10,9",
        KINK_CHAIN + "\nX 7,10,8,9\nX 9,8,10,7",
        "X 1,2,2,1\nX 3,4,4,3\nX 5,6,6,5",
    ):
        yield repr(text), parse_pd(text)
    rng = random.Random(33)
    for k in range(6000):
        n = rng.randint(2, 5)
        labels = [e for e in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(labels)
        pd = PlanarDiagram(tuple(labels[i : i + 4]) for i in range(0, 4 * n, 4))
        if all(f.startswith(_AFTER_ORIENTATION) for f in validate(pd).failures):
            yield f"shuffle {k}", pd


def test_split_check_matches_a_crossing_union_find():
    """The resolver joins a link's components at its crossings; that split
    verdict must be the crossing graph's."""
    seen = set()
    for name, pd in _split_corpus():
        connected, report = _crossings_connected(pd), validate(pd)
        seen.add((connected, report.ok))
        assert (SPLIT not in report.failures) == connected, name
    assert seen == {(True, True), (True, False), (False, False)}


def test_resolved_phases_agree_with_every_crossing():
    """Each crossing joins the components of its under label a and incoming
    over label x with phase bit (a + x + 1) & 1; a knot has no phases."""
    counts = set()
    for name, pd in _coloring_corpus():
        rr = _valid(pd)
        counts.add(len(rr.components))
        if len(rr.components) == 1:
            assert rr.component_of is None and rr.phases is None, name
            continue
        comp, phases = rr.component_of, rr.phases
        assert sorted(comp) == list(range(1, 2 * len(pd) + 1)), name
        for x, (i, _) in zip(pd.crossings, rr.over):
            assert phases[comp[x[0]]] ^ phases[comp[x[i]]] == (x[0] + x[i] + 1) & 1, name
    assert counts == {1, 2, 3}


def test_orbits_start_at_their_least_label(monkeypatch):
    """Every strand component and every Seifert circle starts at its least
    label, which the resolver's component check relies on."""
    circles = []

    def recording(step, starts):
        orbits = diagram._orbits(step, starts)
        circles.extend(orbits)
        return orbits

    monkeypatch.setattr(seifert, "_orbits", recording)
    components = []
    for _, pd in _coloring_corpus():
        components += _valid(pd).components
        if len(_valid(pd).components) == 1:
            seifert_circles(pd)
    assert circles
    for orbit in components + circles:
        assert orbit[0] == min(orbit), orbit


def test_gauss_code_structure():
    code = gauss_code(parse_pd(TREFOIL)).split()
    assert len(code) == 6
    assert all(tok[0] in "OU" and tok[-1] in "+-" for tok in code)
    for k in ("1", "2", "3"):
        roles = sorted(tok[0] for tok in code if tok[1:-1] == k)
        assert roles == ["O", "U"], code
    assert {tok[-1] for tok in code} == {"+"}
    mirrored = gauss_code(mirror(parse_pd(TREFOIL))).split()
    assert {tok[-1] for tok in mirrored} == {"-"}
