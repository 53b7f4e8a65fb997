"""The value records: construction, equality, hashing, immutability and repr.

These were frozen dataclasses; the contract below is what callers relied on
then and still rely on, down to the repr that the benchmark compares across
runs and the diagram hash that keys the resolve cache.
"""

import copy
import pickle

import pytest

from knotlab import diagram
from knotlab.branched import BranchCurve, BranchedSurfaceModel, CertificateReport, ModelError
from knotlab.constructions import ConstructionError, DoubleSpec, TwoBridgeFraction
from knotlab.diagram import Crossing, PlanarDiagram, ValidationReport, parse_pd
from knotlab.invariants import InvariantTuple
from knotlab.knotdb import IdentificationResult, KnotRecord, TableError
from knotlab.laurent import LaurentPoly
from knotlab.seifert import IncompressibilityCertificate, SeifertDecomposition

TREFOIL_TEXT = "X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3\n"
TREFOIL = parse_pd(TREFOIL_TEXT)
ALEX = LaurentPoly([1, -1, 1], 0)
TUPLE = InvariantTuple(ALEX, 3, -2, 1)
CURVE = BranchCurve("G", "S0", ("S0", "S0"), 0, ("same", "same"))

# record class -> (its field names in order, one valid value per field)
RECORDS = {
    Crossing: ("a b c d", (1, 4, 2, 5)),
    PlanarDiagram: ("crossings", (TREFOIL.crossings,)),
    ValidationReport: ("ok failures crossing_count component_count face_count",
                       (True, (), 3, 1, 5)),
    InvariantTuple: ("alexander determinant signature genus_lower_bound", (ALEX, 3, -2, 1)),
    SeifertDecomposition: ("circle_count circle_membership seifert_graph genus",
                           (2, {1: 0, 2: 1}, ((0, 1),), 1)),
    IncompressibilityCertificate: ("method seifert_genus span_half", ("alternating", 1, 1)),
    TwoBridgeFraction: ("p q", (5, 2)),
    DoubleSpec: ("companion twists clasp", (TREFOIL, 2, 1)),
    BranchCurve: ("id merged_side sheet_sides self_intersections orientation_relation",
                  ("G", "S0", ("S0", "S0"), 0, ("same", "same"))),
    BranchedSurfaceModel: ("sectors branch_curves horizontal_boundary compressing_disks",
                           ((("S0", -3),), (CURVE,), (("F+", 2, 1), ("F-", 2, 1)),
                            (("D+", "F+"), ("D-", "F-")))),
    CertificateReport: ("branch_curve_embedded carries_no_closed_surface "
                        "transversely_orientable disks_on_distinct_components "
                        "incompressibility_certified verdict notes",
                        (True, True, True, True, False, "essential-only-unknown", ())),
    KnotRecord: ("name pd invariants flags", ("3_1", TREFOIL, TUPLE, frozenset({"alternating"}))),
    IdentificationResult: ("matches ambiguous", ((("3_1", "same"),), False)),
}
CASES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _make(cls):
    names, values = RECORDS[cls]
    return cls(*values), cls(**dict(zip(names.split(), values)))


@CASES
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    by_position, by_keyword = _make(cls)
    assert by_position == by_keyword
    assert [getattr(by_keyword, n) for n in names.split()] == list(values)
    with pytest.raises(TypeError):
        cls(*values[:-1])


@CASES
def test_value_equality_and_hash(cls):
    a, b = _make(cls)
    assert a is not b and a == b and not a != b
    if cls is not SeifertDecomposition:  # its circle_membership is a dict
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@CASES
def test_fields_cannot_be_assigned(cls):
    record, _ = _make(cls)
    for name in RECORDS[cls][0].split():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@CASES
def test_repr_lists_the_fields_in_order(cls):
    names, values = RECORDS[cls]
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names.split(), values))
    assert repr(_make(cls)[0]) == f"{cls.__name__}({fields})"


def test_dataclass_era_reprs():
    assert repr(Crossing(1, 4, 2, 5)) == "Crossing(a=1, b=4, c=2, d=5)"
    assert repr(TREFOIL) == (
        "PlanarDiagram(crossings=(Crossing(a=1, b=4, c=2, d=5), "
        "Crossing(a=3, b=6, c=4, d=1), Crossing(a=5, b=2, c=6, d=3)))"
    )


def test_every_record_but_the_diagram_is_a_named_tuple():
    assert [cls for cls in RECORDS if not issubclass(cls, tuple)] == [PlanarDiagram]
    assert not hasattr(diagram, "_Record")


def test_diagram_is_not_a_tuple():
    assert not isinstance(TREFOIL, tuple)
    assert len(TREFOIL) == 3
    assert TREFOIL != TREFOIL.crossings
    listed = PlanarDiagram(list(TREFOIL.crossings))
    assert listed.crossings == TREFOIL.crossings and hash(listed) == hash(TREFOIL)


def test_records_normalise_and_validate_their_fields():
    curve = BranchCurve("G", "S0", ["S0", "S0"], 0, ["same", "opposite"])
    assert curve.sheet_sides == ("S0", "S0") and curve.orientation_relation == ("same", "opposite")
    with pytest.raises(ModelError, match="relations must be 'same' or 'opposite'"):
        BranchCurve("G", "S0", ("S0", "S0"), 0, ("same", "flipped"))
    model = BranchedSurfaceModel([["S0", -3]], [CURVE], [["F+", 2, 1], ["F-", 2, 1]],
                                 [["D+", "F+"], ["D-", "F-"]])
    assert model == BranchedSurfaceModel(*RECORDS[BranchedSurfaceModel][1])
    with pytest.raises(ConstructionError, match="fraction 4/2 not reduced"):
        TwoBridgeFraction(4, 2)
    with pytest.raises(ConstructionError, match="clasp must be"):
        DoubleSpec(TREFOIL, 2, 0)
    record = KnotRecord("3_1", TREFOIL, TUPLE, ["alternating"])
    assert record.flags == frozenset({"alternating"})
    with pytest.raises(TableError, match="unknown flags"):
        KnotRecord("3_1", TREFOIL, TUPLE, {"chiral"})


# a validating record, a field change that breaks it, and its error
BAD_REPLACEMENTS = [
    (TwoBridgeFraction, {"p": 4}, ConstructionError, "fraction 4/2 not reduced"),
    (DoubleSpec, {"clasp": 0}, ConstructionError, "clasp must be"),
    (BranchCurve, {"orientation_relation": ("same", "flipped")}, ModelError, "relations"),
    (BranchedSurfaceModel, {"sectors": (("S0", 5),)}, ModelError, "chi 5 > 2"),
    (BranchedSurfaceModel, {"sectors": (("S0", -3), ("S0", -3))}, ModelError, "duplicate sector"),
    (KnotRecord, {"flags": ["bogus"]}, TableError, "unknown flags"),
]


@pytest.mark.parametrize("cls, change, error, message", BAD_REPLACEMENTS,
                         ids=[f"{c.__name__}-{m}" for c, _, _, m in BAD_REPLACEMENTS])
def test_replace_and_make_validate(cls, change, error, message):
    record, _ = _make(cls)
    with pytest.raises(error, match=message):
        record._replace(**change)
    with pytest.raises(error, match=message):
        cls._make((record._asdict() | change).values())


def test_replace_normalises():
    record = KnotRecord("3_1", TREFOIL, TUPLE, frozenset())._replace(flags=["alternating"])
    assert record.flags == frozenset({"alternating"}) and type(record) is KnotRecord
    curve = CURVE._replace(sheet_sides=["S0", "S0"], orientation_relation=["same", "opposite"])
    assert curve.sheet_sides == ("S0", "S0") and curve.orientation_relation == ("same", "opposite")
    model, _ = _make(BranchedSurfaceModel)
    assert model._replace(sectors=[["S0", -3]]) == model
    assert TwoBridgeFraction(5, 2)._replace(q=3) == TwoBridgeFraction(5, 3)


def test_methods_survive():
    assert TUPLE.key() == (ALEX, 3, -2, 1)
    assert IncompressibilityCertificate("none", 1, 0).certified is False
    assert IncompressibilityCertificate("alternating", 1, 1).certified is True
    report = CertificateReport(*RECORDS[CertificateReport][1])
    assert report.flags() == (True, True, True, True, False)
    assert Crossing(1, 4, 2, 5).slots() == (1, 4, 2, 5)
    assert TwoBridgeFraction(5, 2).same_knot(TwoBridgeFraction(5, 3), chirality=False)
