"""End-to-end command-line behaviour via direct main() calls."""

import gc
import io
import json
import sys
import warnings

import pytest

from knotlab.branched import build_bf, parse_model
from knotlab.cli import main
from knotlab.knotdb import bundled_table, serialize_table

TREFOIL_PD = "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3\n"


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL_PD, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_invariants_golden_report(capsys, trefoil_file):
    rc, out = run(capsys, ["invariants", trefoil_file])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "command invariants"
    assert lines[1].startswith("input sha256:")
    assert lines[2:] == ["alexander 1 -1 1", "det 3", "sig -2", "genus_bound 1", "status ok"]


def test_reports_are_deterministic(capsys, trefoil_file):
    _, first = run(capsys, ["invariants", trefoil_file])
    _, second = run(capsys, ["invariants", trefoil_file])
    assert first == second


def test_validate_ok_and_failure(capsys, tmp_path):
    good = tmp_path / "good.pd"
    good.write_text(TREFOIL_PD, encoding="utf-8")
    rc, out = run(capsys, ["validate", str(good)])
    assert rc == 0
    assert "valid true" in out
    assert "crossings 3" in out and "components 1" in out and "faces 5" in out

    bad = tmp_path / "bad.pd"
    bad.write_text("X 1,2,3,4\n", encoding="utf-8")
    rc, out = run(capsys, ["validate", str(bad)])
    assert rc == 0  # validation verdicts are reports, not errors
    assert "valid false" in out
    assert "failure" in out

    unparsable = tmp_path / "junk.pd"
    unparsable.write_text("hello\n", encoding="utf-8")
    rc, out = run(capsys, ["validate", str(unparsable)])
    assert rc == 0
    assert "valid false" in out


def test_stdin_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TREFOIL_PD))
    rc, out = run(capsys, ["validate"])
    assert rc == 0
    assert "valid true" in out


def test_seifert_report(capsys, trefoil_file):
    rc, out = run(capsys, ["seifert", trefoil_file])
    assert rc == 0
    assert "circles 2" in out
    assert "genus 1" in out
    assert "cert_method alternating" in out
    assert "certified true" in out


def test_construct_pipes_into_identify(capsys, monkeypatch):
    rc, pd_text = run(capsys, ["construct", "rational", "--cf", "2,4"])
    assert rc == 0
    assert pd_text.count("X ") == 6
    monkeypatch.setattr(sys, "stdin", io.StringIO(pd_text))
    rc, out = run(capsys, ["identify"])
    assert rc == 0
    assert "match 6_1 same" in out
    assert "matches 1" in out
    assert "ambiguous false" in out


def test_construct_variants(capsys, monkeypatch, trefoil_file):
    rc, out = run(capsys, ["construct", "torus", "--n", "5"])
    assert rc == 0 and out.count("X ") == 5

    rc, out = run(capsys, ["construct", "twist", "--c", "4"])
    assert rc == 0 and out.count("X ") == 4

    rc, out = run(capsys, ["construct", "cable2", "--f", "3", trefoil_file])
    assert rc == 0 and out.count("X ") == 12 + 3

    rc, out = run(capsys, ["construct", "double", "--twists", "2", "--clasp", "1", trefoil_file])
    assert rc == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out = run(capsys, ["invariants"])
    assert rc == 0
    assert "alexander 2 -5 2" in out and "det 9" in out

    rc, out = run(capsys, ["construct", "family", "--n", "1"])
    assert rc == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out = run(capsys, ["identify"])
    assert "match 8_1 same" in out


def test_json_collects_repeated_keys(capsys):
    rc, out = run(capsys, ["bf", "--genus", "2", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["status"] == "ok"
    assert obj["genus"] == "2"
    assert obj["chi"] == "-5"
    assert obj["boundary"] == ["F+ 3 1", "F- 3 1"]
    assert obj["verdict"] == "essential-only-unknown"


def test_bf_certified_verdict(capsys):
    rc, out = run(capsys, ["bf", "--genus", "0", "--certified"])
    assert rc == 0
    assert "verdict persistently-laminar" in out
    assert "carries_no_closed_surface true" in out
    rc, out = run(capsys, ["bf", "--genus", "0"])
    assert "verdict essential-only-unknown" in out


def test_bf_model_round_trip(capsys, tmp_path):
    model_path = tmp_path / "bf3.model"
    rc, out = run(capsys, ["bf", "--genus", "3", "--out", str(model_path)])
    assert rc == 0
    assert f"wrote {model_path}" in out
    assert parse_model(model_path.read_text(encoding="utf-8")) == build_bf(3)

    rc, out = run(capsys, ["bf", "--model", str(model_path), "--certified"])
    assert rc == 0
    assert "input sha256:" in out
    assert "chi -7" in out
    assert "verdict persistently-laminar" in out


def test_bf_requires_genus_or_model(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bf"])
    assert err.value.code == 2


def test_identify_table_sources(capsys, monkeypatch, tmp_path, trefoil_file):
    table = tmp_path / "small.table"
    table.write_text(serialize_table(bundled_table()[:1]), encoding="utf-8")

    rc, out = run(capsys, ["identify", "--table", str(table), trefoil_file])
    assert rc == 0
    assert f"table {table}" in out
    assert "match 3_1 same" in out

    monkeypatch.setenv("KNOTLAB_TABLE", str(table))
    rc, out = run(capsys, ["identify", trefoil_file])
    assert rc == 0
    assert f"table {table}" in out

    monkeypatch.delenv("KNOTLAB_TABLE")
    rc, out = run(capsys, ["identify", trefoil_file])
    assert "table bundled" in out


def test_identify_table_file_is_closed(capsys, monkeypatch, tmp_path, trefoil_file):
    table = tmp_path / "small.table"
    table.write_text(serialize_table(bundled_table()[:1]), encoding="utf-8")
    # a leaked file warns from its finalizer, which reports through the unraisable hook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        rc, out = run(capsys, ["identify", "--table", str(table), trefoil_file])
        gc.collect()
    assert rc == 0 and "match 3_1 same" in out
    assert not unraisable, [u.exc_value for u in unraisable]


def test_domain_errors_exit_1(capsys, tmp_path):
    rc, out = run(capsys, ["construct", "rational", "--cf", "4"])
    assert rc == 1
    assert "status error" in out

    link = tmp_path / "link.pd"
    link.write_text("X 1,4,2,3\nX 3,2,4,1\n", encoding="utf-8")
    rc, out = run(capsys, ["invariants", str(link)])
    assert rc == 1
    assert "status error" in out and "components" in out

    rc, out = run(capsys, ["identify", str(tmp_path / "missing.pd")])
    assert rc == 1
    assert "status error" in out


def test_non_utf8_input_is_a_domain_error(capsys, monkeypatch, tmp_path, trefoil_file):
    bad = tmp_path / "bad.pd"
    bad.write_bytes(b"\xff\xfe" + TREFOIL_PD.encode())
    for argv in (
        ["validate", str(bad)],
        ["invariants", str(bad)],
        ["seifert", str(bad)],
        ["construct", "cable2", "--f", "1", str(bad)],
        ["bf", "--model", str(bad)],
        ["identify", "--table", str(bad), trefoil_file],
    ):
        rc, out = run(capsys, argv)
        assert rc == 1, argv
        assert out.endswith("status error\n"), argv
        assert repr(str(bad)) in out and "not UTF-8" in out, argv
    # stdin decoded strictly, and stdin decoded with escaped surrogates
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        rc, out = run(capsys, ["validate"])
        assert rc == 1 and out.endswith("status error\n"), errors
        assert "input stdin is not UTF-8" in out, errors


def test_construction_size_cap_exits_1(capsys, trefoil_file):
    # trefoil writhe 3: cable2 inserts f - 6 half-twists, double 2 * twists - 6;
    # the family companion has writhe 1, so index n inserts 2 * n + 2
    for argv in (
        ["construct", "torus", "--n", "10001"],
        ["construct", "torus", "--n", "-10001"],
        ["construct", "rational", "--cf", "10001"],
        ["construct", "rational", "--cf", "2 10002"],
        ["construct", "twist", "--c", "10004"],
        ["construct", "cable2", "--f", "10007", trefoil_file],
        ["construct", "double", "--twists", "5004", trefoil_file],
        ["construct", "family", "--n", "5000"],
    ):
        rc, out = run(capsys, argv)
        assert rc == 1, argv
        assert out.endswith("exceeds the limit of 10000\nstatus error\n"), argv


def test_usage_errors_exit_2(capsys):
    for argv in (["bogus"], ["construct", "torus"], ["construct", "double", "--clasp", "2"], []):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_paperlist(capsys):
    rc, out = run(capsys, ["paperlist"])
    assert rc == 0
    assert "count 114" in out
    names = [line.split()[1] for line in out.splitlines() if line.startswith("name ")]
    assert len(names) == 114
    assert names[0] == "6_1" and names[-1] == "10_165"

    rc, out = run(capsys, ["paperlist", "--check"])
    assert rc == 0
    assert "family 0 6_1 ok" in out
    assert "family 1 8_1 ok" in out
    assert "family 2 10_1 ok" in out
    assert "status ok" in out
