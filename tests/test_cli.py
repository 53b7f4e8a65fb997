"""End-to-end command-line behaviour via direct main() calls."""

import gc
import io
import json
import sys
import warnings

import pytest

from knotlab.branched import build_bf, parse_model
from knotlab import cli
from knotlab.cli import main
from knotlab.constructions import rational_knot
from knotlab.diagram import parse_pd, serialize_pd, validate
from knotlab.knotdb import bundled_table, paper_list, serialize_table

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


def test_validate_reports_two_under_ends(capsys, monkeypatch):
    # edge 1 is the incoming under-strand at both crossings, edge 2 the
    # outgoing one; the over edges 3 and 4 orient consistently
    text = "X 1,3,2,4\nX 1,4,2,3\n"
    failures = ("edge 1 has two head ends", "edge 2 has two tail ends")
    assert validate(parse_pd(text)).failures == failures
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out = run(capsys, ["validate"])
    assert rc == 0
    lines = out.splitlines()
    assert "valid false" in lines
    assert [line for line in lines if line.startswith("failure")] == [f"failure {f}" for f in failures]


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


def test_bf_model_with_negative_boundary_counts_exits_1(capsys, tmp_path):
    model_path = tmp_path / "negative.model"
    model_path.write_text("sector A -1\nboundary F -2 -5\n", encoding="utf-8")
    rc, out = run(capsys, ["bf", "--model", str(model_path)])
    assert rc == 1
    assert "negative genus" in out
    assert out.endswith("status error\n")


def test_bf_model_with_impossible_sector_chi_exits_1(capsys, tmp_path):
    model_path = tmp_path / "chi.model"
    model_path.write_text("sector A 5\nboundary F 0 0\n", encoding="utf-8")
    rc, out = run(capsys, ["bf", "--model", str(model_path)])
    assert rc == 1
    assert "sector A: chi 5 > 2" in out
    assert out.endswith("status error\n")


def test_bf_requires_genus_or_model(capsys):
    # a model comes from exactly one source: neither or both is a usage error
    for argv in (["bf"], ["bf", "--genus", "5", "--model", "g1.model"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


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
        ["construct", "rational", "--cf", "9999 9999 9999"],
        ["construct", "twist", "--c", "10004"],
        ["construct", "cable2", "--f", "10007", trefoil_file],
        ["construct", "double", "--twists", "5004", trefoil_file],
        ["construct", "family", "--n", "5000"],
        # a continuant of 6,270 digits, too many to print, is never evaluated
        ["construct", "rational", "--cf", ",".join(["1"] * 30002)],
    ):
        rc, out = run(capsys, argv)
        assert rc == 1, argv
        assert out.endswith("exceeds the limit of 10000\nstatus error\n"), argv


def test_link_companion_names_its_components(capsys, tmp_path):
    hopf = tmp_path / "hopf.pd"
    hopf.write_text("X 1,4,2,3\nX 3,2,4,1\n", encoding="utf-8")
    for argv in (["cable2", "--f", "1"], ["double", "--twists", "2"]):
        rc, out = run(capsys, ["construct", *argv, str(hopf)])
        assert rc == 1, argv
        assert out == (
            "command construct\nerror expected a knot, got 2 components\nstatus error\n"
        ), argv


def test_empty_continued_fraction_exits_1(capsys):
    for cf in (",", " "):
        rc, out = run(capsys, ["construct", "rational", "--cf", cf])
        assert rc == 1, cf
        assert out == "command construct\nerror empty continued fraction\nstatus error\n", cf


def test_pd_text_size_cap_exits_1(capsys, monkeypatch):
    text = serialize_pd(rational_knot([2, 9998])) + "X 1,2,3,4\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out = run(capsys, ["invariants"])
    assert rc == 1
    assert out.endswith("error line 10001: more than 10000 crossings\nstatus error\n")


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


def test_errors_after_reading_replace_the_report(capsys, tmp_path, trefoil_file):
    link = tmp_path / "link.pd"
    link.write_text("X 1,4,2,3\nX 3,2,4,1\n", encoding="utf-8")
    model = tmp_path / "dup.model"
    model.write_text("sector A -1\nsector A -1\n", encoding="utf-8")
    missing = tmp_path / "missing"
    with pytest.raises(OSError) as err:
        open(missing, encoding="utf-8")
    cases = [
        (["invariants", str(link)], "expected a knot, got 2 components"),
        (["seifert", str(link)], "expected a knot, got 2 components"),
        (["identify", "--table", str(missing), trefoil_file], str(err.value)),
        (["bf", "--model", str(model)], "duplicate sector ids"),
    ]
    for argv, error in cases:
        # the input was read and digested, but an error report has no input line
        rc, out = run(capsys, argv)
        assert rc == 1, argv
        assert out == f"command {argv[0]}\nerror {error}\nstatus error\n", argv
        rc, out = run(capsys, [*argv, "--json"])
        assert rc == 1, argv
        assert json.loads(out) == {"command": argv[0], "error": error, "status": "error"}, argv


def test_paperlist_check_failure_exits_1(capsys, monkeypatch):
    names = paper_list() - {"8_1"}
    monkeypatch.setattr(cli, "paper_list", lambda: names)
    rc, out = run(capsys, ["paperlist", "--check"])
    assert rc == 1
    lines = out.splitlines()
    assert lines[:2] == ["command paperlist", "count 113"]
    assert "family 0 6_1 ok" in lines and "family 2 10_1 ok" in lines
    assert "family 1 8_1 FAIL" in lines
    assert "error paper list check failed for ['8_1']" in lines
    assert lines[-1] == "status error"


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["invariants"], ["seifert"], ["bf", "--genus", "2"], ["identify"], ["paperlist"]],
    ids=" ".join,
)
def test_json_report_matches_text_report(capsys, monkeypatch, argv):
    def report(extra):
        monkeypatch.setattr(sys, "stdin", io.StringIO(TREFOIL_PD))
        rc, out = run(capsys, argv + extra)
        assert rc == 0
        return out

    pairs = {}
    for line in report([]).splitlines():
        key, _, value = line.partition(" ")
        pairs.setdefault(key, []).append(value)
    folded = {k: v[0] if len(v) == 1 else v for k, v in pairs.items()}
    assert json.loads(report(["--json"])) == folded
