"""Fuzzed entry points: every input ends in a valid result or a KnotlabError.

PD text, table text and model text are drawn from small alphabets near the
valid formats, so many examples reach deep into the pipeline before they
fail.  The CLI must answer each PD file with exit code 0 or 1.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knotlab.branched import parse_model, persistence_certificate
from knotlab.cli import main
from knotlab.diagram import KnotlabError, parse_pd, validate
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import bundled_table, load_table, serialize_table
from knotlab.moves import reidemeister_perturb


# valid codes: trefoil, kink, Hopf link, figure-eight
KNOWN_PD = [
    "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3\n",
    "X 1,2,2,1\n",
    "X 1,4,2,3\nX 3,2,4,1\n",
    "X 1,5,2,4\nX 5,1,6,8\nX 3,6,4,7\nX 7,2,8,3\n",
]


def _labels(n):
    return st.integers(min_value=-1, max_value=2 * n + 2)


@st.composite
def random_pd(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.tuples(*[_labels(n)] * 4), min_size=n, max_size=n))
    return "".join(f"X {a},{b},{c},{d}\n" for a, b, c, d in rows)


@st.composite
def mutated_pd(draw):
    """A known code with one label replaced, or with two slots swapped (which
    keeps every label twice and so reaches the orientation and face checks)."""
    rows = [line[2:].split(",") for line in draw(st.sampled_from(KNOWN_PD)).splitlines()]
    slot = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 3))
    (i, j), (k, m) = draw(slot), draw(slot)
    if draw(st.booleans()):
        rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
    else:
        rows[i][j] = str(draw(_labels(len(rows))))
    return "".join(f"X {','.join(r)}\n" for r in rows)


pd_text = st.one_of(random_pd(), mutated_pd(), st.sampled_from(KNOWN_PD))


@settings(max_examples=150)
@given(pd_text)
def test_fuzz_pd_library(text):
    pd = parse_pd(text)
    report = validate(pd)
    assert report.ok != bool(report.failures)
    try:
        invariant_tuple(pd)
    except KnotlabError:
        pass
    else:
        assert report.ok
    try:
        out = reidemeister_perturb(pd, moves=2, seed=1)
    except KnotlabError:
        pass
    else:
        assert report.ok and validate(out).ok


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pd_text, st.sampled_from(["validate", "invariants", "seifert"]))
def test_fuzz_pd_cli(tmp_path, text, command):
    path = tmp_path / "fuzz.pd"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main([command, str(path)])
    assert rc in (0, 1)
    assert out.getvalue().endswith("status ok\n" if rc == 0 else "status error\n")


TABLE_LINES = [
    "name 3_1",
    "flags alternating,twist-knot",
    "flags bogus",
    "alexander 1 -1 1",
    "alexander x",
    "det 5",
    "sig",
    "pd:",
    "X 1,4,2,5",
    "X 1,2",
    "# comment",
    "",
]


BUNDLED_RECORDS = [
    serialize_table([rec]).strip("\n") for rec in bundled_table() if len(rec.pd) <= 5
]


@st.composite
def table_texts(draw):
    """Records of the bundled table, some with lines replaced or dropped."""
    records = draw(st.lists(st.sampled_from(BUNDLED_RECORDS), min_size=1, max_size=3))
    lines = "\n\n".join(records).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        replacement = draw(st.one_of(st.sampled_from(TABLE_LINES), st.none()))
        lines[i : i + 1] = [] if replacement is None else [replacement]
    return "\n".join(lines) + "\n"


def _cli_report(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    assert rc in (0, 1)
    assert out.getvalue().endswith("status ok\n" if rc == 0 else "status error\n")


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table_texts())
def test_fuzz_table_file_cli(tmp_path, text):
    table = tmp_path / "fuzz.table"
    table.write_text(text, encoding="utf-8")
    pd = tmp_path / "trefoil.pd"
    pd.write_text(KNOWN_PD[0], encoding="utf-8")
    _cli_report(["identify", "--table", str(table), str(pd)])


@settings(max_examples=100)
@given(table_texts())
def test_fuzz_table_text(text):
    try:
        records = load_table(text)
    except KnotlabError:
        return
    for rec in records:
        assert validate(rec.pd).ok
        assert invariant_tuple(rec.pd) == rec.invariants


MODEL_DAMAGE = [
    "sector S0 x",
    "sector S0 -1",
    "curve C0 S0 S1 S9 same same 0",
    "curve C9 S0 S0 S0 same other 0",
    "curve C8 S0 S0 S0 same same -1",
    "curve C7",
    "boundary F+ 1 1",
    "disk D F?",
    "bogus",
]


@st.composite
def model_texts(draw):
    """A model with at most 4 sectors and 3 curves (Fourier-Motzkin blows up
    beyond that), plus up to two lines of damage."""
    sectors = [f"S{i}" for i in range(draw(st.integers(1, 4)))]
    sid = st.sampled_from(sectors)
    relation = st.sampled_from(["same", "opposite"])
    lines = [f"sector {s} {draw(st.integers(-3, 1))}" for s in sectors]
    for k in range(draw(st.integers(0, 3))):
        rels = f"{draw(relation)} {draw(relation)}"
        crossings = draw(st.sampled_from([0, 0, 1]))
        lines.append(f"curve C{k} {draw(sid)} {draw(sid)} {draw(sid)} {rels} {crossings}")
    lines += ["boundary F+ 1 1", "boundary F- 1 1", "disk D+ F+"]
    lines += draw(st.lists(st.sampled_from(["disk D- F-", "disk D2 F+"]), max_size=1))
    lines += draw(st.lists(st.sampled_from(MODEL_DAMAGE), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=150)
@given(model_texts(), st.booleans())
def test_fuzz_model_text(text, incompressible):
    try:
        model = parse_model(text)
        cert = persistence_certificate(model, incompressible)
    except KnotlabError:
        return
    assert cert.verdict in ("persistently-laminar", "essential-only-unknown", "fails")


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model_texts())
def test_fuzz_model_file_cli(tmp_path, text):
    model = tmp_path / "fuzz.model"
    model.write_text(text, encoding="utf-8")
    _cli_report(["bf", "--model", str(model), "--certified"])
