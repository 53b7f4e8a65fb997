"""Regenerate the bundled seed table from the construction routines.

Every record is built, not hand-entered: torus knots from closed 2-braids,
the rest from 2-bridge continued fractions whose fraction pins the table
name.  The generator asserts crossing counts, determinants, alternation,
and pairwise tuple distinctness before writing the file.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from knotlab.constructions import rational_knot, torus_2n
from knotlab.diagram import is_alternating
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import KnotRecord, load_table, paper_list, serialize_table

# name -> (builder, expected determinant)
SEEDS = [
    ("3_1", lambda: torus_2n(3), 3),
    ("4_1", lambda: rational_knot([2, 2]), 5),
    ("5_1", lambda: torus_2n(5), 5),
    ("5_2", lambda: rational_knot([2, 3]), 7),
    ("6_1", lambda: rational_knot([2, 4]), 9),
    ("6_2", lambda: rational_knot([2, 1, 3]), 11),
    ("6_3", lambda: rational_knot([2, 1, 1, 2]), 13),
    ("7_1", lambda: torus_2n(7), 7),
    ("7_2", lambda: rational_knot([2, 5]), 11),
    ("7_3", lambda: rational_knot([3, 4]), 13),
    ("7_4", lambda: rational_knot([3, 1, 3]), 15),
    ("8_1", lambda: rational_knot([2, 6]), 13),
    ("8_9", lambda: rational_knot([3, 1, 1, 3]), 25),
    ("9_1", lambda: torus_2n(9), 9),
    ("10_1", lambda: rational_knot([2, 8]), 17),
]

TWIST_KNOTS = {"3_1", "4_1", "5_2", "6_1", "7_2", "8_1", "10_1"}


def build_table():
    """The seed table as text, built and checked record by record."""
    listed = paper_list()
    records = []
    seen = {}
    for name, build, want_det in SEEDS:
        pd = build()
        crossings = int(name.split("_")[0])
        assert len(pd) == crossings, (name, len(pd))
        assert is_alternating(pd), name
        tup = invariant_tuple(pd)
        assert tup.determinant == want_det, (name, tup.determinant, want_det)
        # identification matches on |sig|, so distinctness must hold there too
        key = (tup.alexander, tup.determinant, abs(tup.signature), tup.genus_lower_bound)
        assert key not in seen, f"tuple collision: {name} vs {seen[key]}"
        seen[key] = name
        flags = {"alternating"}
        if name in TWIST_KNOTS:
            flags.add("twist-knot")
        if name in listed:
            flags.add("persistently-laminar-paper-table")
        records.append(KnotRecord(name, pd, tup, frozenset(flags)))
    return serialize_table(records)


def main():
    text = build_table()
    out = SRC / "knotlab" / "data" / "knot_table.txt"
    out.write_text(text)
    records = load_table(str(out))
    assert serialize_table(records) == text
    print(f"wrote {len(records)} records to {out}")
    for rec in records:
        alex = " ".join(str(c) for c in rec.invariants.alexander.coeffs)
        print(f"  {rec.name:6} C={len(rec.pd):2} det={rec.invariants.determinant:3} "
              f"sig={rec.invariants.signature:+d} alex=[{alex}] {sorted(rec.flags)}")


if __name__ == "__main__":
    main()
