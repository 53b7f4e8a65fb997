"""Public entry points refuse a bad argument with their module's KnotlabError.

A float, a str or a bool where a count belongs, or something other than a
diagram or a table, must not leak a TypeError or an AttributeError from deep
inside the computation, and must not be truncated into a valid-looking result.
"""

import pytest

from knotlab.branched import ModelError, build_bf
from knotlab.constructions import (
    ConstructionError,
    DoubleSpec,
    TwoBridgeFraction,
    cable2,
    cf_to_fraction,
    paper_family,
    pretzel,
    rational_knot,
    torus_2n,
    twist_knot,
)
from knotlab.diagram import KnotlabError, ValidationError, parse_pd
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import TableError, identify

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")

# the call, and the KnotlabError subclass it must raise
REFUSED = [
    ("torus_2n(2.5)", lambda: torus_2n(2.5), ConstructionError),
    ("torus_2n('3')", lambda: torus_2n("3"), ConstructionError),
    ("torus_2n(True)", lambda: torus_2n(True), ConstructionError),
    ("cable2(pd, 1.5)", lambda: cable2(TREFOIL, 1.5), ConstructionError),
    ("cable2('x', 1)", lambda: cable2("x", 1), ValidationError),
    ("DoubleSpec(pd, 1.5, 1)", lambda: DoubleSpec(TREFOIL, 1.5, 1), ConstructionError),
    ("rational_knot([1.5])", lambda: rational_knot([1.5]), ConstructionError),
    ("rational_knot(5)", lambda: rational_knot(5), ConstructionError),
    ("pretzel(3, 3, 3.0)", lambda: pretzel(3, 3, 3.0), ConstructionError),
    ("twist_knot(4.0)", lambda: twist_knot(4.0), ConstructionError),
    ("paper_family(1.5)", lambda: paper_family(1.5), ConstructionError),
    ("build_bf('1')", lambda: build_bf("1"), ModelError),
    ("invariant_tuple('x')", lambda: invariant_tuple("x"), ValidationError),
    ("identify(pd, None)", lambda: identify(TREFOIL, None), TableError),
    # beyond the calls above, the same helper's other callers
    ("cf_to_fraction([1.5])", lambda: cf_to_fraction([1.5]), ConstructionError),
    ("cf_to_fraction(5)", lambda: cf_to_fraction(5), ConstructionError),
    ("TwoBridgeFraction(5.0, 2)", lambda: TwoBridgeFraction(5.0, 2), ConstructionError),
    ("DoubleSpec(pd, 2, True)", lambda: DoubleSpec(TREFOIL, 2, True), ConstructionError),
]


@pytest.mark.parametrize("call, error", [r[1:] for r in REFUSED], ids=[r[0] for r in REFUSED])
def test_bad_arguments_raise_the_modules_error(call, error):
    with pytest.raises(error) as caught:
        call()
    assert isinstance(caught.value, KnotlabError)


def test_a_table_of_other_records_is_refused():
    with pytest.raises(TableError, match="KnotRecords, not list"):
        identify(TREFOIL, [TREFOIL])
    with pytest.raises(ValidationError, match="PlanarDiagram, not list"):
        identify(list(TREFOIL.crossings), [])
