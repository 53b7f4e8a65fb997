"""Knot diagram toolkit.

PD-code diagrams with validation and checkerboard structure, exact knot
invariants (Alexander polynomial, Goeritz/Gordon-Litherland signature and
determinant), Seifert decompositions, Reidemeister rewriting, torus/rational/
satellite constructions, branched-surface laminarity certificates, and a
revalidating knot table with invariant-based identification.
"""

from .diagram import (
    Crossing,
    InconsistencyError,
    KnotlabError,
    ParseError,
    PlanarDiagram,
    ValidationError,
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
from .laurent import LaurentPoly
from .wiring import StrandGraph, WiringError
from .moves import MOVE_KINDS, MoveError, apply_move, move_candidates, reidemeister_perturb
from .seifert import (
    IncompressibilityCertificate,
    SeifertDecomposition,
    incompressibility_certificate,
    seifert_circles,
    seifert_genus,
)
from .invariants import (
    InvariantTuple,
    alexander,
    alexander_matrix,
    determinant,
    genus_lower_bound,
    invariant_tuple,
    signature,
)
from .constructions import (
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
    whitehead_double,
)
from .branched import (
    BranchCurve,
    BranchedSurfaceModel,
    CertificateReport,
    ModelError,
    branch_equations,
    build_bf,
    carries_closed_surface,
    parse_model,
    persistence_certificate,
    serialize_model,
    transversely_orientable,
)
from .knotdb import (
    IdentificationResult,
    KnotRecord,
    TableError,
    bundled_table,
    identify,
    load_table,
    paper_list,
    parse_table,
    serialize_table,
)

__version__ = "0.1.0"
