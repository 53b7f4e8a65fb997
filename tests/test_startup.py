"""Start-up cost: what a fresh `import knotlab.cli` loads, and the lazy namespace.

Every CLI command is a fresh process, so the modules it imports are part of
its run time.  The construction code, `json` and `dataclasses` must stay out
of a process that does not use them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotlab

SRC = str(Path(knotlab.__file__).resolve().parent.parent)
LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

NOT_AT_IMPORT = ("dataclasses", "json", "knotlab.constructions", "knotlab.moves", "knotlab.wiring")

# The names the eager package namespace exported before it became lazy.
EXPORTS = [
    "BranchCurve", "BranchedSurfaceModel", "CertificateReport", "ConstructionError",
    "Crossing", "DoubleSpec", "IdentificationResult", "IncompressibilityCertificate",
    "InconsistencyError", "InvariantTuple", "KnotRecord", "KnotlabError", "LaurentPoly",
    "MOVE_KINDS", "ModelError", "MoveError", "ParseError", "PlanarDiagram",
    "SeifertDecomposition", "StrandGraph", "TableError", "TwoBridgeFraction",
    "ValidationError", "WiringError", "alexander", "alexander_matrix", "apply_move",
    "branch_equations", "build_bf", "bundled_table", "cable2", "carries_closed_surface",
    "cf_to_fraction", "checkerboard", "component_count", "crossing_signs", "determinant",
    "faces", "gauss_code", "genus_lower_bound", "identify", "incompressibility_certificate",
    "invariant_tuple", "is_alternating", "load_table", "mirror", "move_candidates",
    "paper_family", "paper_list", "parse_model", "parse_pd", "parse_table",
    "persistence_certificate", "pretzel", "rational_knot", "reidemeister_perturb",
    "seifert_circles", "seifert_genus", "serialize_model", "serialize_pd", "serialize_table",
    "signature", "torus_2n", "transversely_orientable", "twist_knot", "validate",
    "whitehead_double", "writhe",
]

# Prints the modules of NOT_AT_IMPORT that running `body` adds to a bare interpreter.
_PROBE = """
import sys
before = set(sys.modules)
{body}
print(sorted(m for m in {names!r} if m in sys.modules and m not in before), file=sys.stderr)
"""


def _fresh(code, stdin=""):
    """The last line a fresh interpreter running `code` writes to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stderr.strip().splitlines()[-1]


def _loaded_by(body, stdin=""):
    return _fresh(_PROBE.format(body=body, names=NOT_AT_IMPORT), stdin)


def test_cli_import_loads_no_construction_code():
    assert _loaded_by("import knotlab.cli") == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["invariants"], "[]"),
        (["construct", "torus", "--n", "3"], "['knotlab.constructions', 'knotlab.wiring']"),
        (["validate", "--json"], "['json']"),
    ],
)
def test_subcommands_import_what_they_use(argv, loaded):
    body = f"from knotlab import cli\ncli.main({argv!r})"
    assert _loaded_by(body, stdin="X 1,4,2,5\nX 3,6,4,1\nX 5,2,6,3\n") == loaded


def test_package_import_defers_submodules_to_first_use():
    assert _loaded_by("import knotlab") == "[]"
    assert _loaded_by("import knotlab\nknotlab.moves") == "['knotlab.moves', 'knotlab.wiring']"
    assert _loaded_by("from knotlab import torus_2n") == "['knotlab.constructions', 'knotlab.wiring']"


def test_namespace_exports_are_unchanged():
    assert sorted(knotlab.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(knotlab))


def test_lazy_names_resolve_to_their_modules():
    from knotlab import StrandGraph, reidemeister_perturb, torus_2n
    from knotlab import constructions, moves, wiring

    assert torus_2n is constructions.torus_2n
    assert reidemeister_perturb is moves.reidemeister_perturb
    assert StrandGraph is wiring.StrandGraph
    assert knotlab.invariants.invariant_tuple is knotlab.invariant_tuple
    with pytest.raises(AttributeError, match="no attribute 'torus'"):
        knotlab.torus


# Installs the benchmark's layer tracer before anything imports knotlab, as an
# in-process benchmark run does, then counts the spans of one identification.
_TRACED_IDENTIFY = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_layers", {str(LAYERS)!r})
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
tracer.install()
from knotlab import diagram, knotdb
table = knotdb.bundled_table()
tracer.begin_op(0)
knotdb.identify(diagram.parse_pd("X 1,4,2,5\\nX 3,6,4,1\\nX 5,2,6,3"), table)
tracer.end_op()
metrics = layers.layer_metrics(tracer.spans, 1)
print(metrics["invariants.tuple.calls"], metrics["diagram.parse.calls"], file=sys.stderr)
"""


def test_tracer_installed_before_import_counts_each_call_once():
    """knotdb binds invariant_tuple by name; were it first loaded while the
    tracer had already wrapped invariants, it would bind the wrapper and every
    call would be counted twice."""
    assert _fresh(_TRACED_IDENTIFY) == "1.0 1.0"
