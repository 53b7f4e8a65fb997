"""Public entry points refuse a bad argument with their module's KnotlabError.

A float, a str or a bool where a count belongs, something other than a
diagram or a table, or text that is not a str must not leak a TypeError or an AttributeError from deep
inside the computation, and must not be truncated into a valid-looking result.
"""

import pytest

from knotlab.branched import ModelError, build_bf, parse_model
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
from knotlab.diagram import KnotlabError, ParseError, ValidationError, parse_pd
from knotlab.invariants import invariant_tuple
from knotlab.knotdb import TableError, identify, load_table, parse_table
from knotlab.wiring import StrandGraph, WiringError

TREFOIL = parse_pd("X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3")


def _lone_node():
    """A graph of one node with no wires."""
    g = StrandGraph()
    g.add_node()
    return g


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
    # the text parsers take a str, and nothing else
    ("parse_pd(5)", lambda: parse_pd(5), ParseError),
    ("parse_pd(None)", lambda: parse_pd(None), ParseError),
    ("parse_pd(b'X 1,2,2,1')", lambda: parse_pd(b"X 1,2,2,1"), ParseError),
    ("parse_model(5)", lambda: parse_model(5), ModelError),
    ("parse_model(None)", lambda: parse_model(None), ModelError),
    ("parse_model(b'sector S0 -1')", lambda: parse_model(b"sector S0 -1"), ModelError),
    ("parse_table(5)", lambda: parse_table(5), TableError),
    ("parse_table(None)", lambda: parse_table(None), TableError),
    ("parse_table(b'name 3_1')", lambda: parse_table(b"name 3_1"), TableError),
    # a table source is a file object, a path or a str
    ("load_table(b'name 3_1')", lambda: load_table(b"name 3_1\n"), TableError),
    ("load_table(5)", lambda: load_table(5), TableError),
    ("load_table(None)", lambda: load_table(None), TableError),
    # a splice names nodes of the graph, with every port wired
    ("splice_out({99})", lambda: StrandGraph.from_diagram(TREFOIL).splice_out({99}), WiringError),
    ("splice_pairs({99})", lambda: StrandGraph.from_diagram(TREFOIL).splice_pairs({99}), WiringError),
    ("splice_out(unwired)", lambda: _lone_node().splice_out({0}), WiringError),
    ("splice_pairs(unwired)", lambda: _lone_node().splice_pairs({0}), WiringError),
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
