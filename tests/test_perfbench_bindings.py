"""The benchmark's layer tracer binds library names; renaming one must fail here.

`perfbench/layers.py` wraps each layer's entry function under the module
attribute its caller looks up.  A renamed or removed name would otherwise
pass every library test and break only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from knotlab import constructions, invariants, seifert

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_binds_every_boundary():
    layers = _load_layers()
    before = [_lookup(m, attr) for m, attr, _, _ in layers.BOUNDARIES]
    tracer = layers.Tracer()
    try:
        tracer.install()
        wrapped = [_lookup(m, attr) for m, attr, _, _ in layers.BOUNDARIES]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [_lookup(m, attr) for m, attr, _, _ in layers.BOUNDARIES] == before


def _traced_op(layers, *diagrams):
    """Layer metrics of one operation that certifies each diagram in turn."""
    tracer = layers.Tracer()
    try:
        tracer.install()
        tracer.begin_op(0)
        for pd in diagrams:
            invariants.invariant_tuple(pd)
            seifert.incompressibility_certificate(pd)
        tracer.end_op()
    finally:
        tracer.uninstall()
    return layers.layer_metrics(tracer.spans, 1)


def test_tracer_counts_alexander_sizes():
    """The size counters read det_laurent's dense input rows; a change to that
    input format must fail here, not only in a traced benchmark run.  The
    tuple and the certificate share one elimination per diagram object; an
    equal but distinct diagram pays its own."""
    layers = _load_layers()
    metrics = _traced_op(layers, constructions.torus_2n(7))
    assert metrics["laurent.alexander_det.calls"] == 1
    assert metrics["laurent.alexander_det.dim"] == 7
    assert metrics["laurent.alexander_det.points"] == 7
    pair = _traced_op(layers, constructions.torus_2n(7), constructions.torus_2n(7))
    assert pair["laurent.alexander_det.calls"] == 2
