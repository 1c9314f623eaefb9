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


PINNED_COUNTS = {
    # one cohomology check on sl2xsl2-diagonal (absolute): the Clifford
    # product and the three Chevalley-Eilenberg operators
    ("cohomology_check", False): {
        "clifford.Multivector.__mul__": (1513, 15860, 0, 14399),
        "forms.ce_differential": (1890, 0, 834, 4296),
        "forms.lie_action": (1554, 0, 1584, 1452),
        "forms.insert_first": (3096, 0, 15876, 2646),
    },
    # one decomposition check on sl2xsl2-diagonal over its diagonal sl(2):
    # the pair products and the graded triple products
    ("decomposition_check", True): {
        "tensor.TensorElement.__mul__": (16, 177, 0, 51),
        "tensor.TripleTensorElement.__mul__": (4, 151, 0, 55),
    },
}


def test_cohomology_kernels_keep_their_traced_names_and_work():
    """Exact work counts of traced checks on sl2xsl2-diagonal.

    The product kernels and the three Chevalley-Eilenberg operators must
    still run under the names the tracer wraps, and do the same work: the
    same calls, term pairs and sizes in and out.
    """
    entry = catalog_entry("sl2xsl2-diagonal")
    for (check, with_subalgebra), expected in PINNED_COUNTS.items():
        tracer = load_tracing().Tracer()
        try:
            tracer.install()
            ctx = dirac.DiracContext(entry.algebra, entry.subalgebra if with_subalgebra else ())
            assert getattr(ctx, check)().passed
        finally:
            tracer.uninstall()
        counts = {
            name: tuple(tracer.stats[name][field] for field in ("calls", "pairs", "terms_in", "terms_out"))
            for name in expected
        }
        assert counts == expected, check
