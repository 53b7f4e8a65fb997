"""PD parsing, validation, orientation, faces, checkerboard structure."""

import pytest

from knotlab.diagram import (
    ParseError,
    PlanarDiagram,
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
from knotlab.invariants import invariant_tuple

TREFOIL = "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3"
KINK = "X 1,2,2,1"
HOPF = "X 1,4,2,3\nX 3,2,4,1"
KINK_CHAIN = "X 1,2,2,3\nX 3,4,4,5\nX 5,6,6,1"
# trefoil with the first crossing switched: a one-crossing-changed unknot
SWITCHED = "X 4,2,5,1\nX 3,6,4,1\nX 5,2,6,3"


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


def test_parse_accepts_comment_and_spacing_noise():
    pd = parse_pd("# a knot\nX 1,4,2,5\n\nX  3, 6 ,4,1\nX 5 , 2 , 6 , 3\n")
    assert pd == parse_pd(TREFOIL)


def test_parse_errors():
    for bad in ("X 1,2,3", "Y 1,2,3,4", "X a,2,3,4", ""):
        with pytest.raises(ParseError):
            parse_pd(bad)


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


def test_validate_rejects_inconsistent_orientations():
    report = validate(parse_pd("X 1,3,2,4\nX 2,3,1,4"))
    assert not report.ok


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
