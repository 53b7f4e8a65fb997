"""Knot table parsing, revalidation, and tuple-based identification."""

import importlib.util
import io
from importlib import resources
from pathlib import Path

import pytest

from knotlab.constructions import paper_family, pretzel, rational_knot, torus_2n, twist_knot
from knotlab.diagram import mirror, parse_pd
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import (
    KNOWN_FLAGS,
    KnotRecord,
    TableError,
    bundled_table,
    identify,
    load_table,
    paper_list,
    parse_table,
    serialize_table,
)

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")


def test_bundled_table_shape():
    table = bundled_table()
    assert len(table) == 15
    names = [rec.name for rec in table]
    assert len(set(names)) == 15
    for rec in table:
        assert rec.flags <= KNOWN_FLAGS
        head, _, tail = rec.name.partition("_")
        assert len(rec.pd) == int(head), rec.name
        assert rec.invariants.alexander.evaluate(1) in (1, -1)
    assert "8_3" not in names  # shares its full tuple with 10_1, so it cannot be listed


def test_bundled_table_has_no_tuple_collisions():
    table = bundled_table()
    keys = {}
    for rec in table:
        ri = rec.invariants
        key = (ri.alexander, ri.determinant, abs(ri.signature), ri.genus_lower_bound)
        assert key not in keys, f"{rec.name} collides with {keys[key]}"
        keys[key] = rec.name


def test_bundled_anchor_values():
    by_name = {rec.name: rec for rec in bundled_table()}
    assert by_name["3_1"].invariants.determinant == 3
    assert by_name["3_1"].invariants.signature == -2
    assert by_name["4_1"].invariants.alexander.coeffs == (1, -3, 1)
    assert by_name["6_1"].invariants.alexander.coeffs == (2, -5, 2)
    assert by_name["10_1"].invariants.determinant == 17
    assert "alternating" in by_name["7_3"].flags
    assert "twist-knot" in by_name["5_2"].flags
    assert "persistently-laminar-paper-table" in by_name["8_9"].flags
    assert "twist-knot" not in by_name["9_1"].flags


def test_serialize_parse_round_trip():
    table = bundled_table()
    text = serialize_table(table)
    assert parse_table(text) == table
    assert load_table(text) == table
    assert load_table(io.StringIO(text)) == table


def test_load_table_from_path(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(serialize_table(bundled_table()), encoding="utf-8")
    assert load_table(str(path)) == bundled_table()


def test_load_table_unreadable_path_is_a_table_error(tmp_path):
    for source in ("garbage", str(tmp_path / "missing.table"), str(tmp_path)):
        with pytest.raises(TableError) as err:
            load_table(source)
        assert repr(source) in str(err.value)


def test_load_table_non_utf8_is_a_table_error(tmp_path):
    path = tmp_path / "bad.table"
    path.write_bytes(b"\xff\xfe" + serialize_table(bundled_table()[:1]).encode())
    with pytest.raises(TableError) as err:
        load_table(str(path))
    assert repr(str(path)) in str(err.value) and "UTF-8" in str(err.value)
    with open(path, encoding="utf-8") as f:
        with pytest.raises(TableError) as err:
            load_table(f)
    assert repr(str(path)) in str(err.value)


def test_parse_table_empty():
    assert parse_table("") == ()
    assert parse_table("# only comments\n\n") == ()


def test_load_rejects_corrupt_det():
    text = serialize_table(bundled_table()).replace("det 3\n", "det 5\n", 1)
    with pytest.raises(TableError) as err:
        load_table(text)
    assert "3_1" in str(err.value)


def test_load_rejects_corrupt_alexander():
    text = serialize_table(bundled_table()).replace("alexander 1 -1 1\n", "alexander 1 1 1\n", 1)
    with pytest.raises(TableError):
        load_table(text)


def test_load_rejects_duplicate_names():
    block = serialize_table(bundled_table()[:1])
    with pytest.raises(TableError) as err:
        parse_table(block + "\n" + block)
    assert "duplicate" in str(err.value)


def test_load_rejects_missing_fields_and_bad_flags():
    good = serialize_table(bundled_table()[:1])
    with pytest.raises(TableError):
        parse_table(good.replace("det 3\n", ""))
    with pytest.raises(TableError):
        parse_table(good.replace("flags alternating,twist-knot", "flags chiral"))
    with pytest.raises(TableError):
        parse_table(good.replace("det 3", "det three"))
    with pytest.raises(TableError, match="repeats"):
        parse_table(good.replace("name 3_1", "name 3_1\nname 3_1b"))
    with pytest.raises(TableError, match="empty 'name'"):
        parse_table(good.replace("name 3_1", "name"))
    with pytest.raises(TableError, match="unknown 'colour' line"):
        parse_table(good.replace("det 3\n", "det 3\ncolour red\n"))


def test_record_flag_validation():
    rec = bundled_table()[0]
    with pytest.raises(TableError):
        KnotRecord(rec.name, rec.pd, rec.invariants, frozenset({"novel"}))


def test_identify_basic():
    table = bundled_table()
    res = identify(TREFOIL, table)
    assert res.matches == (("3_1", "same"),)
    assert not res.ambiguous
    res = identify(mirror(TREFOIL), table)
    assert res.matches == (("3_1", "mirror"),)
    res = identify(rational_knot([2, 2]), table)
    assert res.matches == (("4_1", "same"),)  # amphichiral: sig 0 on both sides


def test_identify_family():
    table = bundled_table()
    for n, name in ((0, "6_1"), (1, "8_1"), (2, "10_1")):
        pd, expected = paper_family(n)
        assert expected == name
        res = identify(pd, table)
        assert res.matches == ((name, "same"),), name
        assert not res.ambiguous


def test_identify_no_match():
    res = identify(torus_2n(11), bundled_table())
    assert res.matches == ()
    assert not res.ambiguous


def test_identify_tuple_collision_is_reported_not_resolved():
    """P(3,3,-3) shares its whole tuple with 6_1; tuple matching cannot tell
    them apart, so the honest answer is the 6_1 row."""
    res = identify(pretzel(3, 3, -3), bundled_table())
    assert res.matches == (("6_1", "same"),)


def test_identify_flags_ambiguity():
    rec = next(r for r in bundled_table() if r.name == "6_1")
    clone = KnotRecord("6_1b", rec.pd, rec.invariants, rec.flags)
    res = identify(twist_knot(6), (rec, clone))
    assert {n for n, _ in res.matches} == {"6_1", "6_1b"}
    assert res.ambiguous


def test_identify_rejects_invalid_diagram():
    with pytest.raises(TableError):
        identify(parse_pd("X 1,2,3,4"), bundled_table())


def test_identify_empty_table():
    res = identify(TREFOIL, ())
    assert res.matches == () and not res.ambiguous


def test_alternating_flag_is_truthful():
    from knotlab.diagram import is_alternating

    for rec in bundled_table():
        assert ("alternating" in rec.flags) == is_alternating(rec.pd), rec.name


def test_paper_list_contents():
    names = paper_list()
    assert len(names) == 114
    for required in ("6_1", "8_1", "10_1", "9_44", "9_46", "10_67", "10_146", "10_163"):
        assert required in names, required
    assert "10_139" not in names
    assert all("_" in n for n in names)
    table_flagged = {
        rec.name for rec in bundled_table() if "persistently-laminar-paper-table" in rec.flags
    }
    assert table_flagged == {"6_1", "8_1", "8_9", "10_1"}
    assert table_flagged <= names


def test_seed_table_regenerates():
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_seed_table.py"
    spec = importlib.util.spec_from_file_location("make_seed_table", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    bundled = resources.files("knotlab").joinpath("data/knot_table.txt").read_text()
    assert module.build_table() == bundled
