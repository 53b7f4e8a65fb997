"""Bundled knot table: named records with diagrams, invariants, and flags.

Loading revalidates every record (the stored invariants must equal the
recomputed ones), so a table file cannot drift from the code that reads it.
Identification matches on the invariant tuple and is therefore heuristic:
distinct knots sharing a tuple are reported, never silently resolved.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources

from .diagram import KnotlabError, ParseError, parse_pd, serialize_pd, validate, _validated_make
from .laurent import LaurentPoly
from .invariants import InvariantTuple, invariant_tuple


class TableError(KnotlabError):
    pass


KNOWN_FLAGS = frozenset({"alternating", "twist-knot", "persistently-laminar-paper-table"})


class KnotRecord(namedtuple("KnotRecord", "name pd invariants flags")):
    __slots__ = ()
    _make = _validated_make

    def __new__(cls, name, pd, invariants, flags):
        flags = frozenset(flags)
        unknown = flags - KNOWN_FLAGS
        if unknown:
            raise TableError(f"record {name}: unknown flags {sorted(unknown)}")
        return super().__new__(cls, name, pd, invariants, flags)


IdentificationResult = namedtuple("IdentificationResult", "matches ambiguous")


def serialize_table(records):
    blocks = []
    for rec in records:
        alex = " ".join(str(c) for c in rec.invariants.alexander.coeffs)
        lines = [
            f"name {rec.name}",
            f"flags {','.join(sorted(rec.flags))}",
            f"alexander {alex}",
            f"det {rec.invariants.determinant}",
            f"sig {rec.invariants.signature}",
            "pd:",
            serialize_pd(rec.pd),
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


_FIELDS = ("name", "flags", "alexander", "det", "sig")


def _parse_block(block):
    fields = {}
    pd_lines = []
    in_pd = False
    for line in block.splitlines():
        if in_pd:
            pd_lines.append(line)
            continue
        line = line.strip()
        if not line:
            continue
        if line == "pd:":
            in_pd = True
            continue
        key, _, rest = line.partition(" ")
        if key not in _FIELDS:
            raise TableError(f"record block has an unknown '{key}' line")
        if key in fields:
            raise TableError(f"record block repeats its '{key}' line")
        fields[key] = rest.strip()
    for key in _FIELDS:
        if key not in fields:
            raise TableError(f"record block missing '{key}' line")
    if not fields["name"]:
        raise TableError("record block has an empty 'name' line")
    if not pd_lines:
        raise TableError(f"record {fields['name']}: missing pd block")
    name = fields["name"]
    flags = frozenset(f for f in fields["flags"].split(",") if f)
    try:
        coeffs = [int(c) for c in fields["alexander"].split()]
        det = int(fields["det"])
        sig = int(fields["sig"])
    except ValueError as e:
        raise TableError(f"record {name}: bad integer field") from e
    alex = LaurentPoly(coeffs, 0)
    stored = InvariantTuple(alex, det, sig, alex.span // 2)
    try:
        pd = parse_pd("\n".join(pd_lines))
    except ParseError as e:
        raise TableError(f"record {name}: pd {e}") from e
    return KnotRecord(name, pd, stored, flags)


def parse_table(text):
    kept = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    stripped = "\n".join(kept).strip()
    if not stripped:
        return ()
    records = tuple(_parse_block(b) for b in stripped.split("\n\n") if b.strip())
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise TableError(f"duplicate record names {dup}")
    return records


def _revalidate(rec):
    report = validate(rec.pd)
    if not report.ok:
        raise TableError(f"record {rec.name}: diagram invalid: {report.failures[0]}")
    if report.component_count != 1:
        raise TableError(f"record {rec.name}: diagram is a link, not a knot")
    recomputed = invariant_tuple(rec.pd)
    if recomputed != rec.invariants:
        raise TableError(
            f"record {rec.name}: stored invariants "
            f"{_fmt(rec.invariants)} != recomputed {_fmt(recomputed)}"
        )


def _fmt(tup):
    alex = " ".join(str(c) for c in tup.alexander.coeffs)
    return f"(alexander [{alex}], det {tup.determinant}, sig {tup.signature})"


def load_table(source):
    """Parse and revalidate a table from a path, file object, or text.

    Any failing record aborts the whole load with an error naming it.
    """
    name = str(getattr(source, "name", source))
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = str(source)
            if "\n" not in text and not text.lstrip().startswith("name "):
                with open(text, encoding="utf-8") as f:
                    text = f.read()
    except OSError as e:
        raise TableError(f"cannot read table {name!r}: {e.strerror or e}") from e
    except UnicodeError as e:
        raise TableError(f"table {name!r} is not UTF-8 text: {e.reason}") from None
    records = parse_table(text)
    for rec in records:
        _revalidate(rec)
    return records


def bundled_table():
    """The seed table shipped with the package, revalidated on load."""
    text = resources.files("knotlab").joinpath("data/knot_table.txt").read_text()
    return load_table(text)


def identify(pd, table):
    """Match a diagram's invariant tuple against the table.

    A record matches when alexander, determinant, |signature|, and the genus
    bound all agree; the signature sign resolves chirality.  Multiple distinct
    matching names are reported as ambiguous.
    """
    report = validate(pd)
    if not report.ok:
        raise TableError(f"cannot identify an invalid diagram: {report.failures[0]}")
    try:
        records = tuple(table)
    except TypeError:
        records = None
    if records is None or not all(isinstance(rec, KnotRecord) for rec in records):
        raise TableError(f"a table is a sequence of KnotRecords, not {type(table).__name__}")
    tup = invariant_tuple(pd)
    matches = []
    for rec in records:
        ri = rec.invariants
        if (
            tup.alexander == ri.alexander
            and tup.determinant == ri.determinant
            and abs(tup.signature) == abs(ri.signature)
            and tup.genus_lower_bound == ri.genus_lower_bound
        ):
            chirality = "same" if tup.signature == ri.signature else "mirror"
            matches.append((rec.name, chirality))
    names = {n for n, _ in matches}
    return IdentificationResult(tuple(matches), len(names) >= 2)


def paper_list():
    """Names from the published table of knots with persistent laminations."""
    text = resources.files("knotlab").joinpath("data/paper_list.txt").read_text()
    return frozenset(line.strip() for line in text.splitlines() if line.strip())
