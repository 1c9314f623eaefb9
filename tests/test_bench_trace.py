"""The per-layer tracer of bench/tracing.py still wraps the package.

The tracer finds the methods it times by name in each class body and reads
`terms` and `values` off the results, so a refactor of the element classes
can silently empty the traced run.  This installs it, runs one traced
decomposition check and one differential, and checks that it undoes every
patch.
"""

import importlib.util
from pathlib import Path

from cubicdirac import catalog_entry, dirac, forms

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_layers_and_restores_the_package():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        entry = catalog_entry("sl2xsl2-diagonal")
        ctx = dirac.DiracContext(entry.algebra, entry.subalgebra)
        assert ctx.decomposition_check().passed
        g = ctx.adapted
        forms.ce_differential(forms.MultilinearMap.from_matrix(g, g.form))
    finally:
        tracer.uninstall()
    for name in (
        "tensor.TensorElement.__mul__",
        "tensor.TripleTensorElement.__mul__",
        "forms.ce_differential",
    ):
        assert tracer.stats[name]["calls"] > 0, name
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
