"""The per-layer tracer of bench/tracing.py still wraps the package.

The tracer finds the methods it times by name in each class body and reads
`terms` and `values` off the results, so a refactor of the element classes
can silently empty the traced run, and a refactor that validates through
private helpers instead of the public `lie` checks leaves the per-layer
validation metrics at zero.  These tests install it, run traced work, and
check that it counts the layers and undoes every patch.
"""

import importlib.util
from pathlib import Path

from cubicdirac import catalog_entry, dirac, emit_algebra_text, forms, parse_algebra_text

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


def test_tracer_sees_the_validation_layers():
    """sl2-killing has a non-diagonal Killing form, so its context splits."""
    text = emit_algebra_text(catalog_entry("sl2-killing").algebra)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        algebra, _ = parse_algebra_text(text)
        dirac.DiracContext(algebra)
    finally:
        tracer.uninstall()
    for name in (
        "lie.QuadraticLieAlgebra.__init__",
        "lie.check_jacobi",
        "lie.check_ad_invariance",
        "lie.orthogonal_split",
    ):
        assert tracer.stats[name]["calls"] > 0, name


def test_cohomology_kernels_keep_their_traced_names_and_work():
    """Exact work counts of one traced cohomology check on sl2xsl2-diagonal.

    The Clifford product and the three Chevalley-Eilenberg operators must
    still run under the names the tracer wraps, and do the same work: the
    same calls, blade pairs and map sizes in and out.
    """
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        ctx = dirac.DiracContext(catalog_entry("sl2xsl2-diagonal").algebra)
        assert ctx.cohomology_check().passed
    finally:
        tracer.uninstall()
    counts = {
        name: tuple(tracer.stats[name][field] for field in ("calls", "pairs", "terms_in", "terms_out"))
        for name in (
            "clifford.Multivector.__mul__",
            "forms.ce_differential",
            "forms.lie_action",
            "forms.insert_first",
        )
    }
    assert counts == {
        "clifford.Multivector.__mul__": (1513, 15860, 0, 14399),
        "forms.ce_differential": (1890, 0, 834, 4296),
        "forms.lie_action": (1554, 0, 1584, 1452),
        "forms.insert_first": (3096, 0, 15876, 2646),
    }
