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

from cubicdirac import catalog_entry, cli, dirac, emit_algebra_text, parse_algebra_text

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
    finally:
        tracer.uninstall()
    for name in (
        "tensor.TensorElement.__mul__",
        "tensor.TripleTensorElement.__mul__",
        "forms.bracket_coproduct",
    ):
        assert tracer.stats[name]["calls"] > 0, name
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)


def test_tracer_sees_the_validation_layers():
    """Every context splits: sl2-killing has a non-diagonal Killing form,
    and abelian3's diagonal form takes the same path, to the identity."""
    for name in ("sl2-killing", "abelian3"):
        text = emit_algebra_text(catalog_entry(name).algebra)
        tracer = load_tracing().Tracer()
        try:
            tracer.install()
            algebra, _ = parse_algebra_text(text)
            dirac.DiracContext(algebra)
        finally:
            tracer.uninstall()
        for layer in (
            "lie.QuadraticLieAlgebra.__init__",
            "lie.check_jacobi",
            "lie.check_ad_invariance",
            "lie.orthogonal_split",
        ):
            assert tracer.stats[layer]["calls"] > 0, (name, layer)


FIELDS = ("calls", "pairs", "terms_in", "terms_out")
PINNED_COUNTS = {
    # one cohomology check on sl2xsl2-diagonal (absolute, m = 6): the
    # Clifford product, the twisted commutator (calls only: it makes no
    # Clifford product of its own) and the bracket coproduct.  The twisted
    # commutators are d_v e_a once per generator, which the context keeps
    # for delta-plus-dv-vanishes and the dv-* laws; the one product is v^2.
    # The dv-* laws add the products of each pair into one integer table
    # with the blade-pair kernel, and build no element, so neither name
    # counts them; delta(X_a) is taken once per generator for
    # delta-plus-dv-vanishes.
    # The five form items run the Chevalley-Eilenberg kernels, which the
    # tracer does not wrap; the package has no operator on maps (conftest
    # keeps d, theta_X and iota_X as oracles)
    ("cohomology_check", False): {
        "clifford.Multivector.__mul__": (1, 4, 0, 1),
        "clifford.twisted_commutator": (6,),
        "forms.bracket_coproduct": (6,),
    },
    # one decomposition check on sl2xsl2-diagonal over its diagonal sl(2):
    # the pair products and the graded triple products; the squared
    # consequence reads the squares the residuals took.  The embedding of
    # U(h) (x) C(h) starts each monomial's image at Delta of its first
    # index, so it takes no product by one.  The tensor product takes at
    # most one bracket, read off the algebra's bracket table, so no PBW
    # rewriting runs; the three contexts write their Casimirs as term
    # tables, with no PBW product
    ("decomposition_check", True): {
        "tensor.TensorElement.__mul__": (9, 149, 0, 35),
        "tensor.TripleTensorElement.__mul__": (2, 42, 0, 42),
        "envelope.pbw_normalize": (0,),
        "envelope.PBWElement.__mul__": (0,),
    },
    # one kostant check on sl2xsl2-diagonal (absolute, m = 6): delta(X_a)
    # once per generator, which the context keeps for
    # first-order-cancellation and middle-term-identity
    ("kostant_check", False): {
        "forms.bracket_coproduct": (6,),
    },
    # one kostant check on sl2xsl2-diagonal over its diagonal sl(2): D^2
    # and the squares of the diagonal embeddings, with no triple product
    # and no PBW product
    ("kostant_check", True): {
        "tensor.TensorElement.__mul__": (8, 78, 0, 42),
        "tensor.TripleTensorElement.__mul__": (0, 0, 0, 0),
        "envelope.pbw_normalize": (0,),
        "envelope.PBWElement.__mul__": (0,),
    },
}


def test_cohomology_kernels_keep_their_traced_names_and_work():
    """Exact work counts of traced checks on sl2xsl2-diagonal.

    The product kernels and the bracket coproduct must still run under the
    names the tracer wraps, and do the same work: the same calls, term
    pairs and sizes in and out.  A pin lists a prefix of
    (calls, pairs, terms_in, terms_out).
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
            name: tuple(tracer.stats[name][field] for field in FIELDS[: len(pin)])
            for name, pin in expected.items()
        }
        assert counts == expected, check


def test_a_pair_builds_one_absolute_context(tmp_path, capsys):
    """`verify --checks all --subalgebra-from-file` on sl2xsl2-diagonal.

    Two contexts are built and split, the pair and its variant basis for
    c-basis-invariant, and one algebra is validated, with one Jacobi and one
    ad-invariance check: the one the document is parsed into, through the
    constructor.  The two adapted algebras are built from their integer
    structures, certified as the input's bracket in the adapted basis, with
    no table, no constructor call and no second validation.  The absolute
    context, which the cohomology and decomposition checks share, runs on
    the pair's adapted algebra with no split.  The context of h has an
    algebra of its own, built from the pair's adapted structure by
    restriction, with no split and no validation.
    """
    entry = catalog_entry("sl2xsl2-diagonal")
    path = tmp_path / "pair.json"
    path.write_text(emit_algebra_text(entry.algebra, entry.subalgebra))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--input", str(path), "--checks", "all", "--subalgebra-from-file"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().out
    counts = {
        name: tracer.stats[name]["calls"]
        for name in (
            "dirac.DiracContext.__init__",
            "lie.orthogonal_split",
            "lie.QuadraticLieAlgebra.__init__",
            "lie.check_jacobi",
            "lie.check_ad_invariance",
        )
    }
    assert counts == {
        "dirac.DiracContext.__init__": 2,
        "lie.orthogonal_split": 2,
        "lie.QuadraticLieAlgebra.__init__": 1,
        "lie.check_jacobi": 1,
        "lie.check_ad_invariance": 1,
    }
