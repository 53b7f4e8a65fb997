"""Knot diagram toolkit.

PD-code diagrams with validation and checkerboard structure, exact knot
invariants (Alexander polynomial, Goeritz/Gordon-Litherland signature and
determinant), Seifert decompositions, Reidemeister rewriting, torus/rational/
satellite constructions, branched-surface laminarity certificates, and a
revalidating knot table with invariant-based identification.

The package namespace is lazy: each name in `__all__` imports its module on
first access, so `from knotlab import torus_2n` loads `constructions` and
its dependencies, and `moves` only when a name from it is used.  The one
submodule loaded with the package is `knotdb` (with the `diagram`, `laurent`
and `invariants` it imports), see below.  The CLI imports the construction
code only for `construct` and `paperlist --check`, and `json` only for
`--json`.
"""

import importlib

# knotdb binds `invariant_tuple` and `parse_pd` by name when it loads.  Loading
# it with the package binds the functions as defined, before any caller can
# patch them in their home modules (the benchmark's layer tracer wraps both
# there and in knotdb; a knotdb loaded after that would hold the wrapper and
# count each call twice).
from . import knotdb  # noqa: F401

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "diagram": (
        "Crossing InconsistencyError KnotlabError ParseError PlanarDiagram ValidationError "
        "checkerboard component_count crossing_signs faces gauss_code is_alternating mirror "
        "parse_pd serialize_pd validate writhe"
    ),
    "laurent": "LaurentPoly",
    "wiring": "StrandGraph WiringError",
    "moves": "MOVE_KINDS MoveError apply_move move_candidates reidemeister_perturb",
    "seifert": (
        "IncompressibilityCertificate SeifertDecomposition incompressibility_certificate "
        "seifert_circles seifert_genus"
    ),
    "invariants": (
        "InvariantTuple alexander alexander_matrix determinant genus_lower_bound "
        "invariant_tuple signature"
    ),
    "constructions": (
        "ConstructionError DoubleSpec TwoBridgeFraction cable2 cf_to_fraction paper_family "
        "pretzel rational_knot torus_2n twist_knot whitehead_double"
    ),
    "branched": (
        "BranchCurve BranchedSurfaceModel CertificateReport ModelError branch_equations "
        "build_bf carries_closed_surface parse_model persistence_certificate serialize_model "
        "transversely_orientable"
    ),
    "knotdb": (
        "IdentificationResult KnotRecord TableError bundled_table identify load_table "
        "paper_list parse_table serialize_table"
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
