"""The cubic Dirac element, its square, and the four verification bundles.

The headline facts checked here, with independently computed expected
values frozen into the assertions:

  * dimension-n abelian algebras: D^2 = Omega (x) 1 exactly, constant 0
  * sl(2) with its Killing form: constant 1/8; scaling the form by -1
    gives -1/8 and by 1/2 gives 1/4
  * sl(3) with its Killing form: constant 1/3
  * the diagonal sl(2) inside sl(2)+sl(2): constants 1/4, 1/16, 3/16
  * an sl(2) triple inside sl(3): constants 1/3, 1/12, 1/4
"""

import functools
import inspect
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    SL3_TRIPLE,
    MultilinearMap,
    casimir_element,
    changed_algebra,
    count_fraction_arithmetic,
    drop_twist_sign,
    generator_dv_law_items,
    grade_involution,
    hostile_form,
    insert_first,
    invert,
    is_alternating,
    kernel_differential,
    lie_action,
    moved_subalgebra,
    pbw_from_vector,
    reference_subalgebra_as_algebra,
    spin_lift,
    subalgebra_action,
    tensor_from_parts,
    tstar_heisenberg,
    unit_vector,
)
from cubicdirac import dirac, forms
from cubicdirac.algfile import parse_algebra_text
from cubicdirac.catalog import CATALOG_NAMES, catalog_entry
from cubicdirac.clifford import CliffordSpace, Multivector, twisted_commutator
from cubicdirac.dirac import CheckItem, DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import bracket_coproduct
from cubicdirac.lie import QuadraticLieAlgebra, unit
from cubicdirac.sparse import LinearCombination
from cubicdirac.tensor import TensorElement
from test_rational_reports import rational_documents


def items_by_id(outcome):
    return {item.item_id: item for item in outcome.items}


def oracle_square(ctx):
    """Expand D^2 term by term, independently of the engine's product call.

    For a splitting with no subalgebra the square decomposes into the
    Casimir, a bracket middle term, a contraction term and the cubic part:

      D^2 = Omega (x) 1
          + sum_{i<j} [X_i, X_j] (x) X^i X^j
          + sum_i X_i (x) (v X^i + X^i v)
          + 1 (x) v^2
    """
    assert ctx.k == 0
    g = ctx.adapted
    space = ctx.space
    gram = space.gram
    total = tensor_from_parts(casimir_element(g), space.one())
    for i in range(ctx.m):
        for j in range(i + 1, ctx.m):
            br = pbw_from_vector(g, g.bracket_basis(i, j))
            blade = space.blade((i, j), Fraction(1) / (gram[i] * gram[j]))
            total = total + tensor_from_parts(br, blade)
    for i in range(ctx.m):
        dv = twisted_commutator(ctx.v, space.generator(i))
        total = total + tensor_from_parts(
            PBWElement.generator(g, i), (Fraction(1) / gram[i]) * dv
        )
    total = total + tensor_from_parts(PBWElement.one(g), ctx.v * ctx.v)
    return total


def test_abelian_dirac_square_is_the_casimir(contexts):
    for name in ("abelian1", "abelian2", "abelian3"):
        ctx = contexts(name)
        assert ctx.v.is_zero()
        square = ctx.dirac * ctx.dirac
        assert square == tensor_from_parts(casimir_element(ctx.adapted), ctx.space.one())
        assert ctx.c_value() == 0


def test_sl2_square_matches_term_by_term_oracle(contexts):
    ctx = contexts("sl2-killing")
    assert ctx.dirac * ctx.dirac == oracle_square(ctx)


def test_sl3_square_matches_term_by_term_oracle(contexts):
    ctx = contexts("sl3-killing")
    assert ctx.dirac * ctx.dirac == oracle_square(ctx)


def test_sl2_residual_is_exactly_one_eighth(contexts):
    ctx = contexts("sl2-killing")
    one = TensorElement.one(ctx.adapted, ctx.space)
    assert ctx.residual() == Fraction(1, 8) * one
    assert ctx.c_value() == Fraction(1, 8)


def test_constants_on_rescaled_sl2(contexts):
    assert contexts("sl2-killing-neg").c_value() == Fraction(-1, 8)
    assert contexts("sl2-killing-half").c_value() == Fraction(1, 4)


def test_sl3_constant(contexts):
    assert contexts("sl3-killing").c_value() == Fraction(1, 3)


def trace_formula_c(g):
    """c = (1/24) sum_ij (B^-1)_ij K_ij, from the Killing form and an inverse only.

    No Clifford, PBW or tensor code runs here, so it shares nothing with
    the product that computes D^2.
    """
    inverse, killing = invert(g.form), g.killing()
    return sum((inverse[i, j] * killing[i, j] for i in range(g.dim) for j in range(g.dim)), Fraction(0)) / 24


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_c_is_the_trace_formula_on_the_catalog(contexts, name):
    """c_g, or c_g - c_h for an entry with a subalgebra, h with its own Killing form."""
    entry = catalog_entry(name)
    ctx = contexts(name, with_subalgebra=bool(entry.subalgebra))
    expected = trace_formula_c(entry.algebra)
    if ctx.k:
        expected -= trace_formula_c(ctx.split.subalgebra_as_algebra())
    assert ctx.c_value() == expected


def test_c_is_the_trace_formula_on_the_sl3_triple(sl3_triple_context):
    ctx = sl3_triple_context
    h = ctx.split.subalgebra_as_algebra()
    assert ctx.c_value() == trace_formula_c(ctx.algebra) - trace_formula_c(h) == Fraction(1, 4)


@pytest.mark.parametrize("name, seed", [("sl2-killing", 4), ("sl2-killing", 5), ("sl3-killing", 6)])
def test_c_is_the_trace_formula_in_a_rational_basis(name, seed):
    """A seeded GL_n(Q) change of basis: the form is not diagonal, so the context splits."""
    g = changed_algebra(name, seed)
    assert not g.form.is_diagonal()
    assert DiracContext(g).c_value() == trace_formula_c(g) == trace_formula_c(catalog_entry(name).algebra)


@pytest.mark.parametrize(
    "name",
    [
        "abelian1",
        "abelian2",
        "abelian3",
        "sl2-killing",
        "sl2-killing-neg",
        "sl2-killing-half",
        "sl3-killing",
    ],
)
def test_kostant_bundle_on_absolute_cases(contexts, name):
    outcome = contexts(name).kostant_check()
    assert outcome.passed, outcome.failing()
    items = items_by_id(outcome)
    for required in (
        "first-order-cancellation",
        "residual-linear-terms-vanish",
        "residual-scalar",
        "v-square-scalar",
        "v-square-central",
        "v-square-equals-c",
        "middle-term-identity",
        "c-basis-invariant",
    ):
        assert required in items and items[required].ok
    assert outcome.values["c"] == outcome.values["v_square"]


def assert_fundamental_table_is_the_dense_form(ctx):
    """The scattered table, t = d_i n / den, against -1/2 d_i [X_j, X_k]_i read
    densely on all m^3 triples."""
    numerators, den = ctx._fundamental_numerators()
    assert all(numerators.values())
    for i, j, k in product(range(ctx.m), repeat=3):
        dense = -Fraction(1, 2) * ctx.split.p_gram[i] * ctx.adapted.bracket_basis(j, k)[i]
        assert ctx.split.p_gram[i] * Fraction(numerators.get((i, j, k), 0), den) == dense, (i, j, k)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("variant", (0, 1))
def test_fundamental_table_is_the_dense_three_form(contexts, name, variant):
    assert_fundamental_table_is_the_dense_form(contexts(name, variant=variant))


def test_fundamental_table_on_the_pairs(contexts, sl3_triple_context):
    """With a subalgebra, brackets that land in h are left out of t."""
    for ctx in (contexts("sl2xsl2-diagonal", True), sl3_triple_context):
        assert any(i >= ctx.m for j in range(ctx.m) for k in range(ctx.m) for i, _ in ctx.adapted.bracket_sparse(j, k))
        assert_fundamental_table_is_the_dense_form(ctx)


def test_first_order_identity_directly(contexts):
    """delta(X_a) + d_v(X_a) = 0 per basis direction, re-derived by hand."""
    ctx = contexts("sl2-killing")
    g = ctx.adapted
    for a in range(3):
        delta = bracket_coproduct(ctx.space, g, unit_vector(3, a))
        dv = twisted_commutator(ctx.v, ctx.space.generator(a))
        assert (delta + dv).is_zero()


def test_middle_term_identity_directly(contexts):
    ctx = contexts("sl2-killing")
    g = ctx.adapted
    space = ctx.space
    gram = space.gram
    lhs = TensorElement.zero(g, space)
    for i in range(3):
        for j in range(i + 1, 3):
            br = pbw_from_vector(g, g.bracket_basis(i, j))
            lhs = lhs + tensor_from_parts(br, space.blade((i, j), Fraction(1) / (gram[i] * gram[j])))
    rhs = TensorElement.zero(g, space)
    for a in range(3):
        delta = bracket_coproduct(space, g, unit_vector(3, a))
        rhs = rhs + tensor_from_parts(
            PBWElement.generator(g, a), (Fraction(1) / gram[a]) * delta
        )
    assert lhs == rhs


def test_symmetric_pair_relative_operator(contexts):
    ctx = contexts("sl2xsl2-diagonal", with_subalgebra=True)
    assert (ctx.m, ctx.k) == (3, 3)
    assert ctx.v.is_zero()
    outcome = ctx.kostant_check()
    assert outcome.passed, outcome.failing()
    assert outcome.values["c"] == Fraction(3, 16)
    one = TensorElement.one(ctx.adapted, ctx.space)
    assert ctx.residual() == Fraction(3, 16) * one


def test_symmetric_pair_invariance(contexts):
    outcome = contexts("sl2xsl2-diagonal", with_subalgebra=True).h_invariance_check()
    assert outcome.passed, outcome.failing()
    assert len(outcome.items) == 3


def test_symmetric_pair_decomposition(contexts):
    outcome = contexts("sl2xsl2-diagonal", with_subalgebra=True).decomposition_check()
    assert outcome.passed, outcome.failing()
    items = items_by_id(outcome)
    for required in (
        "decomposition-identity",
        "components-anticommute",
        "squared-consequence",
        "c-additivity",
    ):
        assert required in items and items[required].ok
    assert outcome.values["c_g"] == Fraction(1, 4)
    assert outcome.values["c_h"] == Fraction(1, 16)
    assert outcome.values["c_rel"] == Fraction(3, 16)
    assert outcome.values["c_rel"] == outcome.values["c_g"] - outcome.values["c_h"]


def test_non_symmetric_pair(sl3_triple_context):
    """An sl(2) triple in sl(3): the complement is not bracket-closed."""
    ctx = sl3_triple_context
    assert (ctx.m, ctx.k) == (5, 3)
    assert not ctx.v.is_zero()
    outcome = ctx.kostant_check()
    assert outcome.passed, outcome.failing()
    assert outcome.values["c"] == Fraction(1, 4)
    invariance = ctx.h_invariance_check()
    assert invariance.passed, invariance.failing()
    decomposition = ctx.decomposition_check()
    assert decomposition.passed, decomposition.failing()
    assert decomposition.values["c_g"] == Fraction(1, 3)
    assert decomposition.values["c_h"] == Fraction(1, 12)
    assert decomposition.values["c_rel"] == Fraction(1, 4)


def test_subalgebra_equal_to_algebra(contexts):
    entry = catalog_entry("sl2-killing")
    basis = tuple(unit_vector(3, i) for i in range(3))
    ctx = DiracContext(entry.algebra, basis)
    assert (ctx.m, ctx.k) == (0, 3)
    assert ctx.dirac.is_zero()
    assert ctx.c_value() == 0
    assert ctx.kostant_check().passed
    assert ctx.decomposition_check().passed


def test_abelian_with_one_dimensional_subalgebra():
    entry = catalog_entry("abelian3")
    ctx = DiracContext(entry.algebra, (unit_vector(3, 2),))
    assert (ctx.m, ctx.k) == (2, 1)
    assert ctx.kostant_check().passed
    assert ctx.h_invariance_check().passed
    outcome = ctx.decomposition_check()
    assert outcome.passed, outcome.failing()
    assert outcome.values["c_rel"] == 0


@pytest.mark.parametrize("inexact", [float, str])
def test_context_rejects_inexact_subalgebra_vectors(inexact):
    """A subalgebra given as floats or strings is refused, as the split refuses it."""
    entry = catalog_entry("sl2xsl2-diagonal")
    vectors = [tuple(inexact(c) for c in v) for v in entry.subalgebra]
    with pytest.raises(ContractViolation, match="exact rational"):
        DiracContext(entry.algebra, vectors)


def test_a_pair_has_one_absolute_context_in_its_adapted_basis():
    """The cohomology and decomposition checks of a pair share one context
    with h = 0, built on the pair's adapted algebra, so a failing witness
    names the labels p1.., h1..; without h the context is its own."""
    entry = catalog_entry("sl2xsl2-diagonal")
    ctx = DiracContext(entry.algebra, entry.subalgebra)
    absolute = ctx.absolute
    assert absolute.k == 0 and absolute.adapted is ctx.adapted
    assert absolute.adapted.labels == ("p1", "p2", "p3", "h1", "h2", "h3")
    assert ctx.cohomology_check().passed and ctx.decomposition_check().passed
    assert ctx.absolute is absolute
    assert absolute.absolute is absolute


@pytest.mark.parametrize("name", ("sl2xsl2-diagonal", "sl3-sl2-triple"))
def test_the_absolute_context_shares_the_pair_basis_and_h_has_its_own_algebra(name, sl3_triple_context):
    """g with h = 0 runs on the pair's adapted algebra, and h on an algebra
    of its own, the split's restriction to h, which is both its input and
    its adapted algebra: D_g is built on the adapted generators and D_h on
    h's, 0..k-1, and C(g) is C(h_perp) followed by C(h), on one Gram."""
    if name == "sl3-sl2-triple":
        ctx = sl3_triple_context
    else:
        entry = catalog_entry(name)
        ctx = DiracContext(entry.algebra, entry.subalgebra)
    g, h = ctx.absolute, ctx._h_context
    assert g.adapted is ctx.adapted and g.algebra is ctx.algebra
    assert h.adapted is h.algebra and h.adapted.name == f"{ctx.algebra.name}|h"
    assert not hasattr(h, "split")
    m, k = ctx.m, ctx.k
    assert (g.m, g.k, h.m, h.k) == (m + k, 0, k, 0)
    assert g.space.gram == ctx.space.gram + h.space.gram
    assert {i for mono, _ in h.dirac.terms for i in mono} == set(range(k))
    assert {i for mono, _ in g.dirac.terms for i in mono} == set(range(m + k))
    assert all(len(mono) <= 1 for mono, _ in h.dirac.terms)


# the pairs whose context of h is checked, with c_h: sl(2) with its
# Killing form restricted from sl(2) + sl(2) (1/16) or from sl(3) (1/12)
H_PAIRS = {
    "sl2xsl2-diagonal": Fraction(1, 16),
    "sl3-sl2-triple": Fraction(1, 12),
    "sl2xsl2-diagonal-basis-3-pair": Fraction(1, 16),
    "sl3-killing-triple": Fraction(1, 12),
    "sl3-killing-basis-4-triple": Fraction(1, 12),
}


@functools.cache
def pair_context(case: str) -> DiracContext:
    """The context of a pair of H_PAIRS: a catalog pair, the sl(3) triple,
    or a pair of the rational-Gram documents, as parsed."""
    if case == "sl2xsl2-diagonal":
        entry = catalog_entry(case)
        return DiracContext(entry.algebra, entry.subalgebra)
    if case == "sl3-sl2-triple":
        return DiracContext(catalog_entry("sl3-killing").algebra, SL3_TRIPLE)
    text, use_subalgebra = rational_documents()[case]
    assert use_subalgebra
    return DiracContext(*parse_algebra_text(text))


def test_the_h_pairs_cover_the_pairs_of_the_rational_documents():
    pairs = {case for case, (_, use_subalgebra) in rational_documents().items() if use_subalgebra}
    assert pairs <= H_PAIRS.keys()


@pytest.mark.parametrize("case", H_PAIRS)
def test_every_check_passes_on_the_context_of_h(case):
    """The context of h runs on h's own algebra, so kostant, cohomology and
    invariance run on it as on any context with h = 0, and all pass.  Its c
    is that of h built on its own from the validated oracle, and the pair's
    decomposition still reads it."""
    ctx = pair_context(case)
    h = ctx._h_context
    outcomes = h.kostant_check(), h.cohomology_check(), h.h_invariance_check()
    assert all(outcome.passed for outcome in outcomes), [outcome.failing() for outcome in outcomes]
    c_h = DiracContext(reference_subalgebra_as_algebra(ctx.split)).c_value()
    assert h.c_value() == outcomes[0].values["c"] == c_h == H_PAIRS[case]
    decomposition = ctx.decomposition_check()
    assert decomposition.passed and decomposition.values["c_h"] == c_h


@pytest.mark.parametrize("case", H_PAIRS)
def test_h_as_an_algebra_is_the_validated_oracle(monkeypatch, case):
    """`subalgebra_as_algebra` restricts the adapted integer structure to h
    with no Fraction arithmetic, and gives the algebra that the Fraction
    table of h's brackets gives through the validating constructor: the
    same name, labels, form, brackets and integer structure."""
    split = pair_context(case).split
    expected = reference_subalgebra_as_algebra(split)
    calls = count_fraction_arithmetic(monkeypatch)
    h = split.subalgebra_as_algebra()
    assert calls == []
    assert (h.name, h.labels, h.form) == (expected.name, expected.labels, expected.form)
    assert h.bracket_table() == expected.bracket_table()
    assert h._integer_structure == expected._integer_structure


def test_a_second_check_builds_no_further_context(monkeypatch):
    """kostant_check's variant context and decomposition_check's context of
    h are built once per context, as `absolute` is: the first calls build
    those three, the variant by a split and the other two as blocks, and
    repeating both checks builds none."""
    entry = catalog_entry("sl2xsl2-diagonal")
    ctx = DiracContext(entry.algebra, entry.subalgebra)
    built = []
    init, block = DiracContext.__init__, DiracContext._block

    def counting_init(self, *args, **kwargs):
        built.append(("split", args))
        init(self, *args, **kwargs)

    def counting_block(*args):
        built.append(("block", args))
        return block(*args)

    monkeypatch.setattr(DiracContext, "__init__", counting_init)
    monkeypatch.setattr(DiracContext, "_block", counting_block)
    first = ctx.kostant_check(), ctx.decomposition_check()
    assert sorted(kind for kind, _ in built) == ["block", "block", "split"]
    assert (ctx.kostant_check(), ctx.decomposition_check()) == first
    assert len(built) == 3
    assert all(outcome.passed for outcome in first)


def test_decomposition_requires_a_subalgebra(contexts):
    with pytest.raises(ContractViolation):
        contexts("sl2-killing").decomposition_check()


def test_a_check_item_passes_exactly_when_it_has_no_witness():
    """A failing item cannot be built without a witness: a pass flag in the
    witness's place and an empty witness are refused."""
    assert CheckItem("x").ok
    assert not CheckItem("x", "w").ok
    for witness in (True, False, ""):
        with pytest.raises(ContractViolation):
            CheckItem("x", witness)


def test_first_difference_names_the_least_differing_key_by_its_shape():
    """Sorted key order, not insertion order; an absent key reads as 0."""
    labels = ("p1", "p2", "p3", "h1")
    first = dirac._first_difference
    assert first({(0, 1): Fraction(1)}, {(0, 1): Fraction(1)}, labels) is None
    lhs = {((2,), 0b1001): Fraction(1, 2), ((0, 0), 0): Fraction(3)}
    rhs = {((0, 0), 0): Fraction(3), ((1,), 0b1000): Fraction(-1)}
    assert first(lhs, rhs, labels) == "p2 (x) h1: 0 vs -1"
    assert first({((), 0): Fraction(1)}, {}, labels) == "1 (x) 1: 1 vs 0"
    assert first({((0, 1), 0b1): Fraction(1)}, {}, labels) == "p1*p2 (x) p1: 1 vs 0"
    assert first({0b101: Fraction(2)}, {}, labels) == "p1^p3: 2 vs 0"
    assert first({(2, 0, 3): Fraction(-8)}, {(2, 0, 3): Fraction(-16)}, labels) == "p3,p1,h1: -8 vs -16"


def test_c_basis_invariant_names_what_the_variant_basis_gives():
    """A variant residual that is not scalar is named by its first term, not
    read as a value of c; a scalar one that differs is named by its value."""
    entry = catalog_entry("sl2-killing")
    ctx = DiracContext(entry.algebra)
    variant = DiracContext(entry.algebra, p_variant=1)
    variant.v = 2 * variant.v
    variant.dirac = variant._build_dirac()
    ctx.__dict__["_variant_context"] = variant
    items = items_by_id(ctx.kostant_check())
    assert items["residual-scalar"].ok
    assert items["c-basis-invariant"].witness == "variant basis: p1 (x) p2^p3: -1/16 vs 0"

    ctx = DiracContext(entry.algebra)
    ctx.__dict__["_variant_context"] = DiracContext(catalog_entry("sl2-killing-half").algebra)
    assert items_by_id(ctx.kostant_check())["c-basis-invariant"].witness == "variant basis gives 1/4"


def transport(source_ctx, target_ctx):
    """Rewrite source's Dirac element in target's adapted basis."""
    move = invert(target_ctx.split.from_adapted) @ source_ctx.split.from_adapted
    cols = move.columns()
    g = target_ctx.adapted
    space = target_ctx.space
    out = TensorElement.zero(g, space)
    for (mono, mask), coeff in source_ctx.dirac.terms.items():
        u = PBWElement.one(g)
        for index in mono:
            u = u * pbw_from_vector(g, cols[index])
        c = space.one()
        for i in range(space.dim):
            if mask >> i & 1:
                c = c * space.vector(cols[i])
        out = out + tensor_from_parts(coeff * u, c)
    return out


@pytest.mark.parametrize("name", ["sl2-killing", "sl3-killing"])
def test_dirac_element_is_basis_independent(contexts, name):
    """The same element of U(g) (x) C(g) arises from either orthogonal basis."""
    base = contexts(name)
    variant = contexts(name, variant=1)
    assert base.split.p_vectors != variant.split.p_vectors
    assert transport(variant, base) == base.dirac
    assert variant.c_value() == base.c_value()


def test_delta_embedding_is_a_lie_homomorphism(contexts):
    """[Delta(Y_i), Delta(Y_j)] = Delta([Y_i, Y_j]) for the diagonal pair."""
    ctx = contexts("sl2xsl2-diagonal", with_subalgebra=True)
    m, k = ctx.m, ctx.k
    adapted = ctx.adapted
    for i in range(k):
        for j in range(k):
            lhs = ctx.diagonal_embedding(i).commutator(ctx.diagonal_embedding(j))
            coeffs = adapted.bracket_basis(m + i, m + j)
            assert all(coeffs[s] == 0 for s in range(m))
            rhs = TensorElement.zero(adapted, ctx.space)
            for s in range(k):
                if coeffs[m + s]:
                    rhs = rhs + coeffs[m + s] * ctx.diagonal_embedding(s)
            assert lhs == rhs


def test_delta_respects_the_casimir_route(contexts):
    """delta_casimir equals the dual-basis sum over embedded generators."""
    ctx = contexts("sl2xsl2-diagonal", with_subalgebra=True)
    total = TensorElement.zero(ctx.adapted, ctx.space)
    for j in range(ctx.k):
        image = ctx.diagonal_embedding(j)
        total = total + (Fraction(1) / ctx.split.h_gram[j]) * (image * image)
    assert total == ctx.delta_casimir()


@pytest.mark.parametrize("case", ("sl2xsl2-diagonal", "sl3-sl2-triple", "sl2xsl2-diagonal-basis-3"))
def test_the_lift_in_delta_is_the_spin_lift_of_nu_and_minus_half_delta(contexts, sl3_triple_context, case):
    """Delta(Y_j) = Y_j (x) 1 + 1 (x) alpha(Y_j), where alpha(Y_j) is the spin
    lift of the matrix nu(Y_j) of ad Y_j on h_perp (the conftest oracles,
    which re-check the lift by Clifford products on every generator) and is
    -1/2 delta(Y_j): on the symmetric pair, on the non-symmetric sl(3) over
    its sl(2) triple, and on the pair in a rational basis."""
    if case == "sl3-sl2-triple":
        ctx = sl3_triple_context
    elif case == "sl2xsl2-diagonal":
        ctx = contexts(case, with_subalgebra=True)
    else:
        subalgebra = moved_subalgebra(catalog_entry("sl2xsl2-diagonal").subalgebra, 3)
        ctx = DiracContext(changed_algebra("sl2xsl2-diagonal", 3), subalgebra)
    one = PBWElement.one(ctx.adapted)
    for j in range(ctx.k):
        alpha = spin_lift(ctx.space, subalgebra_action(ctx.split, j))
        assert alpha.terms
        assert alpha == Fraction(-1, 2) * bracket_coproduct(ctx.space, ctx.adapted, unit(ctx.adapted.dim, ctx.m + j))
        y = PBWElement.generator(ctx.adapted, ctx.m + j)
        want = tensor_from_parts(y, ctx.space.one()) + tensor_from_parts(one, alpha)
        assert ctx.diagonal_embedding(j) == want


@pytest.mark.parametrize("name", ("sl2xsl2-diagonal", "sl3-sl2-triple"))
def test_the_absolute_context_of_a_pair_runs_every_check(contexts, sl3_triple_context, name):
    """The absolute context of a pair is g with h = 0: it carries the input
    algebra, no subalgebra and the pair's variant, so its kostant, cohomology
    and invariance checks pass, and its c is that of g on its own."""
    ctx = sl3_triple_context if name == "sl3-sl2-triple" else contexts(name, with_subalgebra=True)
    absolute = ctx.absolute
    assert absolute.algebra is ctx.algebra
    assert (absolute.subalgebra, absolute.p_variant) == ((), ctx.p_variant)
    for check in (absolute.kostant_check, absolute.cohomology_check, absolute.h_invariance_check):
        assert check().passed, check
    assert absolute.c_value() == DiracContext(ctx.algebra).c_value()
    if name == "sl2xsl2-diagonal":
        assert absolute.c_value() == Fraction(1, 4)


def test_scale_coherence_two_routes(contexts):
    """c is recomputed per form; no closed-form scaling law is assumed."""
    for name in ("sl2-killing", "sl2-killing-neg", "sl2-killing-half"):
        outcome = contexts(name).kostant_check()
        assert outcome.values["c"] == outcome.values["v_square"]


def parse_multivector(space, text):
    """The inverse of Multivector.__repr__: 'c*e1^e3 + e2 + c' back to an element."""
    terms = {}
    if text != "0":
        for part in text.split(" + "):
            if "e" not in part:
                terms[0] = Fraction(part)
                continue
            coeff, _, blade = part.rpartition("*")
            mask = sum(1 << (int(g[1:]) - 1) for g in blade.split("^"))
            terms[mask] = Fraction(coeff) if coeff else Fraction(1)
    return Multivector(space, terms)


def dv_witness(ctx, item_id):
    """The generators a failing dv item names, read back from their labels."""
    item = items_by_id(ctx.cohomology_check())[item_id]
    assert not item.ok
    labels = ctx.adapted.labels
    match = re.fullmatch(r"a=(\S+) b=(\S+)", item.witness)
    names = match.groups() if match else (item.witness,)
    return [ctx.space.generator(labels.index(name)) for name in names]


def test_dv_square_witness_reproduces_the_failure_on_its_own():
    """An even part in v breaks d_v^2 = [v^2, .]; the witness names the generator."""
    ctx = DiracContext(catalog_entry("sl2-killing").algebra)
    ctx.v = ctx.v + ctx.space.blade((0, 1))
    (a,) = dv_witness(ctx, "dv-square-is-v2-bracket")
    v = ctx.v
    assert twisted_commutator(v, twisted_commutator(v, a)) != v * v * a - a * (v * v)


def test_dv_derivation_law_holds_for_a_wrong_v():
    """d_v(ab) = d_v(a) b + kappa(a) d_v(b) for every v: the kappa(a) v b terms
    cancel.  So with an even part in v the derivation law still passes, and
    the square law is the item that catches it."""
    ctx = DiracContext(catalog_entry("sl2-killing").algebra)
    ctx.v = ctx.v + ctx.space.blade((0, 1))
    items = items_by_id(ctx.cohomology_check())
    assert items["dv-derivation-law"].ok
    assert not items["dv-square-is-v2-bracket"].ok


def wrong_twist_sign(v, a):
    """v a + kappa(a) v: the twisted commutator with the twist sign dropped."""
    return v * a + grade_involution(a) * v


def test_dv_derivation_witness_reproduces_the_failure_on_its_own(monkeypatch):
    """d_v(ab) = d_v(a) b + kappa(a) d_v(b) holds for every v, odd or not, so no
    change of v breaks it; a sign error in the twist does.  The fault is put
    into the blade-pair kernel, which d_v(e_a) and the laws' left sides
    both run."""
    ctx = DiracContext(catalog_entry("sl2-killing").algebra)
    drop_twist_sign(monkeypatch)
    a, b = dv_witness(ctx, "dv-derivation-law")
    v = ctx.v
    lhs = wrong_twist_sign(v, a * b)
    assert lhs != wrong_twist_sign(v, a) * b + grade_involution(a) * wrong_twist_sign(v, b)


# The witnesses of both laws on sl2-killing under the two faults above.
DV_WITNESSES = {
    "even part in v": {
        "dv-derivation-law": None,
        "dv-square-is-v2-bracket": "p3",
    },
    "twist sign dropped": {
        "dv-derivation-law": "a=p1 b=p1",
        "dv-square-is-v2-bracket": None,
    },
}


def inject_dv_fault(monkeypatch, ctx, fault):
    """Put `fault` into ctx or into the blade-pair kernel; return the twisted
    commutator a reference should use."""
    if fault == "even part in v":
        ctx.v = ctx.v + ctx.space.blade((0, 1))
    if fault == "twist sign dropped":
        drop_twist_sign(monkeypatch)
        return wrong_twist_sign
    return twisted_commutator


def test_the_kernel_fault_is_the_dropped_twist_sign(monkeypatch):
    """With the kernel's twist sign dropped, `twisted_commutator` is
    `wrong_twist_sign` on random elements over a Gram with denominators,
    and the plain product is unchanged."""
    space = CliffordSpace((Fraction(3, 2), Fraction(-5, 3), Fraction(7, 4)))
    rng = random.Random("twist-fault")
    pairs = [(reference_random_multivector(space, rng), reference_random_multivector(space, rng)) for _ in range(30)]
    expected = [(wrong_twist_sign(v, a), v * a) for v, a in pairs]
    drop_twist_sign(monkeypatch)
    assert [(twisted_commutator(v, a), v * a) for v, a in pairs] == expected
    assert any(twisted_commutator(v, a) != v * a - grade_involution(a) * v for v, a in pairs)


@pytest.mark.parametrize("fault", DV_WITNESSES)
def test_dv_witnesses_are_pinned(monkeypatch, fault):
    ctx = DiracContext(catalog_entry("sl2-killing").algebra)
    inject_dv_fault(monkeypatch, ctx, fault)
    items = items_by_id(ctx.cohomology_check())
    for item_id, witness in DV_WITNESSES[fault].items():
        assert items[item_id] == CheckItem(item_id, witness)


def dv_law_items(space, v, labels):
    """`dirac._dv_law_items` with d_v(e_a) from dirac's twisted commutator, as a context takes it."""
    dv = [dirac.twisted_commutator(v, space.generator(a)) for a in range(space.dim)]
    return dirac._dv_law_items(space, v, v * v, dv, labels)


def reference_random_multivector(space, rng, terms=4):
    """A random multivector over Q: `terms` draws of a blade and num/den, |num|, den <= 9."""
    out = {}
    for _ in range(terms):
        mask = rng.randrange(1 << space.dim)
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num:
            out[mask] = out.get(mask, Fraction(0)) + Fraction(num, den)
    return Multivector(space, out)


def reference_dv_law_items(space, v, seed, samples, d_v=twisted_commutator):
    """The two laws on `samples` seeded random multivectors each, with the public operations."""
    rng = random.Random(seed)
    v2 = v * v
    witness = None
    for _ in range(samples):
        a = reference_random_multivector(space, rng)
        b = reference_random_multivector(space, rng)
        if d_v(v, a * b) != d_v(v, a) * b + grade_involution(a) * d_v(v, b):
            witness = f"seed {seed} a={a!r} b={b!r}"
            break
    derivation = CheckItem("dv-derivation-law", witness)
    witness = None
    for _ in range(samples):
        a = reference_random_multivector(space, rng)
        if d_v(v, d_v(v, a)) != v2 * a - a * v2:
            witness = f"seed {seed} a={a!r}"
            break
    return derivation, CheckItem("dv-square-is-v2-bracket", witness)


@pytest.mark.parametrize("fault", ("none", *DV_WITNESSES))
@pytest.mark.parametrize("name", ("sl2-killing", "sl3-killing", "sl2xsl2-diagonal"))
def test_dv_items_fail_wherever_the_sampled_reference_fails(monkeypatch, name, fault):
    """The generator checks catch every failure 100 random samples catch, on
    the absolute context the cohomology bundle runs on."""
    ctx = DiracContext(catalog_entry(name).algebra)
    d_v = inject_dv_fault(monkeypatch, ctx, fault)
    got = dv_law_items(ctx.space, ctx.v, ctx.adapted.labels)
    reference = reference_dv_law_items(ctx.space, ctx.v, 20240814, 100, d_v)
    for item, ref in zip(got, reference):
        assert item.item_id == ref.item_id
        assert ref.ok or not item.ok, (item, ref)
    if fault == "none":
        assert all(item.ok for item in got + reference)


def rational_gram_space(m):
    """A space whose Gram entries (-1)^i (2i + 3) / (i + 2) all have denominators."""
    return CliffordSpace(tuple(Fraction((-1) ** i * (2 * i + 3), i + 2) for i in range(m)))


@pytest.mark.parametrize("m", (2, 3, 5))
def test_dv_law_items_match_the_reference_over_q(monkeypatch, m):
    """On a Gram with denominators and random odd v, the generator checks and
    the sampled laws agree: both pass, and with the twist sign dropped both
    fail the derivation law and pass the square law, which still holds."""
    space = rational_gram_space(m)
    labels = tuple(f"x{i}" for i in range(m))
    rng = random.Random(f"dv-{m}")
    for trial in range(4):
        draws = [(rng.randrange(1 << m), Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(4)]
        v = Multivector(space, {mask: c for mask, c in draws if mask.bit_count() & 1})
        d_v = wrong_twist_sign if trial % 2 else twisted_commutator
        with monkeypatch.context() as patch:
            if trial % 2:
                drop_twist_sign(patch)
            got = dv_law_items(space, v, labels)
        reference = reference_dv_law_items(space, v, trial, 12, d_v)
        assert [item.ok for item in got] == [item.ok for item in reference]
        assert [item.ok for item in got] == [not (trial % 2 and v.terms), True]


@pytest.mark.parametrize(
    "name, fault",
    [
        (name, fault)
        for name in (*CATALOG_NAMES, "tstar-heisenberg")
        for fault in ("none", *DV_WITNESSES)
        if fault != "even part in v" or name == "tstar-heisenberg" or catalog_entry(name).algebra.dim > 1
    ],
)
def test_dv_law_items_match_the_generator_reference(monkeypatch, name, fault):
    """The laws on integer tables give the items of the laws on elements,
    witnesses included, on every catalog entry and T*Heisenberg, clean and
    under each fault (an even part in v needs two generators)."""
    g = tstar_heisenberg() if name == "tstar-heisenberg" else catalog_entry(name).algebra
    ctx = DiracContext(g)
    d_v = inject_dv_fault(monkeypatch, ctx, fault)
    labels = ctx.adapted.labels
    got = dirac._dv_law_items(ctx.space, ctx.v, ctx.v * ctx.v, ctx._dv_generators, labels)
    dv = [d_v(ctx.v, ctx.space.generator(a)) for a in range(ctx.m)]
    assert dv == ctx._dv_generators
    assert got == generator_dv_law_items(ctx.space, ctx.v, ctx.v * ctx.v, dv, labels, d_v)


@pytest.mark.parametrize("m", (1, 2, 3, 5))
def test_dv_law_items_match_the_generator_reference_over_q(monkeypatch, m):
    """On the rational Grams, with random v, odd every third draw and
    otherwise of any parity, a scalar part included, and with the twist
    sign dropped: the same items and witnesses as the laws on elements,
    and each law fails on some draw."""
    space = rational_gram_space(m)
    labels = tuple(f"x{i}" for i in range(m))
    rng = random.Random(f"dv-generators-{m}")
    failing = set()
    for trial in range(12):
        v = reference_random_multivector(space, rng, terms=5)
        if trial % 3 == 0:
            v = Multivector(space, {mask: c for mask, c in v.terms.items() if mask.bit_count() & 1})
        for fault in (False, True):
            d_v = wrong_twist_sign if fault else twisted_commutator
            with monkeypatch.context() as patch:
                if fault:
                    drop_twist_sign(patch)
                got = dv_law_items(space, v, labels)
            dv = [d_v(v, space.generator(a)) for a in range(m)]
            expected = generator_dv_law_items(space, v, v * v, dv, labels, d_v)
            assert got == expected, (trial, fault, v)
            failing |= {item.item_id for item in got if not item.ok}
    assert failing == {"dv-derivation-law", "dv-square-is-v2-bracket"}


def test_dv_laws_build_no_fraction_and_no_element_per_pair(monkeypatch):
    """On the passing path the laws put v, v^2 and the d_v(e_a) on integers
    and compare each pair on one integer table: once the Gram products of
    the overlaps are kept, no Fraction is built or added and no element is
    built, on sl2xsl2-diagonal (integer Grams) and T*Heisenberg (Grams 2
    and -1/2)."""
    passing = (CheckItem("dv-derivation-law"), CheckItem("dv-square-is-v2-bracket"))
    original_new, original_from_terms = Fraction.__new__, LinearCombination._from_terms.__func__
    built = Counter()

    def new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return original_new(cls, *args, **kwargs)

    def from_terms(cls, carrier, terms):
        built[cls.__name__] += 1
        return original_from_terms(cls, carrier, terms)

    for g in (catalog_entry("sl2xsl2-diagonal").algebra, tstar_heisenberg()):
        ctx = DiracContext(g)
        args = (ctx.space, ctx.v, ctx._v_square, ctx._dv_generators, ctx.adapted.labels)
        assert dirac._dv_law_items(*args) == passing
        with monkeypatch.context() as patch:
            arithmetic = count_fraction_arithmetic(patch)
            patch.setattr(Fraction, "__new__", new)
            patch.setattr(LinearCombination, "_from_terms", classmethod(from_terms))
            items = dirac._dv_law_items(*args)
            built_by_a_product = Counter(built)
            ctx.v * ctx.v
        assert items == passing
        assert built_by_a_product == {} and arithmetic == [], g.name
        assert built["Multivector"] == 1, "the patches are not reached"
        built.clear()


def test_dv_laws_stay_cheap_on_hostile_gram_entries():
    """The 8-dimensional abelian algebra with form entries 1/q, q of 4,000 digits.

    Its Gram integers are products of eight such numbers.  The whole
    cohomology bundle took about 0.2 s on a 2-vCPU VM with Python 3.11
    (27 s when the sampled laws built them from Fractions); it must finish
    within 1 s.
    """
    form = hostile_form(n=8)
    ctx = DiracContext(QuadraticLieAlgebra("hostile", tuple(f"x{i}" for i in range(form.rows)), {}, form))
    start = time.perf_counter()
    assert ctx.cohomology_check().passed
    assert time.perf_counter() - start < 1.0


def test_hostile_construction_and_kostant_stay_cheap():
    """The 16-dimensional abelian algebra with form entries 1/q, q of 4,000 digits.

    The other hostile tests time D^2 or the cohomology bundle on a context
    already built, so they miss a blow-up in the change of basis.  This one
    times the context and the kostant bundle, whose c-basis-invariant item
    builds the p_variant=1 split.  Both took about 0.35 s on a 2-vCPU VM
    with Python 3.11; they must finish within 2 s.
    """
    form = hostile_form()
    algebra = QuadraticLieAlgebra("hostile", tuple(f"x{i}" for i in range(form.rows)), {}, form)
    start = time.perf_counter()
    outcome = DiracContext(algebra).kostant_check()
    assert time.perf_counter() - start < 2.0
    assert outcome.passed
    assert "c-basis-invariant" in {item.item_id for item in outcome.items}


def test_hostile_context_stays_cheap():
    """The context alone on the 16-dimensional abelian algebra with form
    entries 1/q, q of 4,000 digits.

    Its split reads each form row over its own denominator.  The context
    took about 0.001 s on a 2-vCPU VM with Python 3.11.  Rows of P^T B put
    over the common denominator of all sixteen form entries, a number of
    64,000 digits, would carry it in every entry, and the 2 s bound of the
    test above is too loose to see that; the context must finish within
    0.25 s.
    """
    form = hostile_form()
    algebra = QuadraticLieAlgebra("hostile", tuple(f"x{i}" for i in range(form.rows)), {}, form)
    start = time.perf_counter()
    DiracContext(algebra)
    assert time.perf_counter() - start < 0.25


def test_passing_dv_items_carry_no_witness(contexts):
    items = items_by_id(contexts("sl2-killing").cohomology_check())
    for item_id in ("dv-derivation-law", "dv-square-is-v2-bracket"):
        assert items[item_id].ok and items[item_id].witness is None


# -- theta-B-vanishes against lie_action ---------------------------------------


def reference_theta_b_item(g):
    """theta-B-vanishes through the oracle lie_action, one call per basis vector."""
    b_form = MultilinearMap.from_matrix(g, g.form)
    for i in range(g.dim):
        if not lie_action(unit_vector(g.dim, i), b_form).is_zero():
            return CheckItem("theta-B-vanishes", g.labels[i])
    return CheckItem("theta-B-vanishes")


def first_slot_only(entries, rows):
    """theta_X scattered into the first slot only: a fault of the theta kernel."""
    out = {}
    for key, val in entries:
        for s, c in rows.get(key[0], {}).items():
            idx = (s,) + key[1:]
            out[idx] = out.get(idx, 0) + c * val
    return out


@pytest.mark.parametrize("broken", (False, True))
@pytest.mark.parametrize("name", (*CATALOG_NAMES, "sl3-killing-basis-5"))
def test_theta_b_item_matches_lie_action(monkeypatch, name, broken):
    """The same item and witness as lie_action gives, also when the theta
    kernel is broken in both routes, on the catalog and in a rational basis."""
    if name == "sl3-killing-basis-5":
        ctx = DiracContext(changed_algebra("sl3-killing", 5))
    else:
        ctx = DiracContext(catalog_entry(name).algebra)
    g = ctx.adapted
    if broken:
        monkeypatch.setattr(dirac, "_theta_scatter", first_slot_only)
        monkeypatch.setattr(forms, "_theta_scatter", first_slot_only)
    item = ctx._theta_b_item(g)
    assert item == reference_theta_b_item(g)
    assert item.ok == (not broken or name.startswith("abelian"))


# -- cartan-formula against the operators on maps ------------------------------
#
# `_cartan_item` compares integer numerators from the operators' shared
# kernels, all X of a point mass in one table.  This is an earlier body,
# which evaluates every (arity, key, X) through the operators on maps over
# Q (conftest's oracles, which read the kernels off forms at each call),
# kept here as the reference it must agree with.


def reference_cartan_item(g):
    basis = [unit_vector(g.dim, i) for i in range(g.dim)]
    for arity in range(1, 4):
        for key in product(range(len(basis)), repeat=arity):
            w = MultilinearMap(g, arity, {key: 1})
            dw = kernel_differential(w)
            for i, x in enumerate(basis):
                lhs = insert_first(x, dw) + kernel_differential(insert_first(x, w))
                if lhs != lie_action(x, w):
                    return CheckItem("cartan-formula", f"arity {arity} key {key} X={g.labels[i]}")
    return CheckItem("cartan-formula")


def fresh_context(name):
    """A context on a copy of catalog entry `name`, whose integer structure no other test shares."""
    g = catalog_entry(name).algebra
    return DiracContext(QuadraticLieAlgebra(f"{name}-copy", g.labels, g.bracket_table(), g.form))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cartan_item_matches_the_reference_on_the_catalog(contexts, name):
    g = contexts(name).adapted
    item, _ = contexts(name)._cartan_item(g)
    assert item == reference_cartan_item(g) == CheckItem("cartan-formula")


def test_cartan_item_matches_the_reference_in_a_rational_basis():
    """sl(3) in a seeded basis: structure constants with denominators, a split form."""
    ctx = DiracContext(changed_algebra("sl3-killing", 5))
    g = ctx.adapted
    den, _, _ = g._integer_structure
    assert den > 1
    item, _ = ctx._cartan_item(g)
    assert item == reference_cartan_item(g) == CheckItem("cartan-formula")


@pytest.mark.parametrize("name", ["sl2-killing", "sl2xsl2-diagonal", "sl3-killing"])
def test_cartan_item_matches_the_reference_on_a_corrupted_ad_entry(name):
    """One entry of ad e_a shifted after validation, for every a with a bracket.

    theta_X reads the ad rows and d the preimage index, so theta sees the
    change and d does not; both bodies fail with the same witness.
    """
    witnesses = set()
    for a in range(catalog_entry(name).algebra.dim):
        ctx = fresh_context(name)
        g = ctx.adapted
        den, ad, preimage = g._integer_structure
        if not ad[a]:
            continue
        s, terms = list(ad[a].items())[-1]
        r, c = terms[-1]
        corrupted = list(ad)
        corrupted[a] = {**ad[a], s: terms[:-1] + ((r, c + den),)}
        g._integer_structure = den, tuple(corrupted), preimage
        item, _ = ctx._cartan_item(g)
        assert item == reference_cartan_item(g)
        assert not item.ok and item.witness is not None
        witnesses.add(item.witness)
    assert len(witnesses) > 1


def forbid_the_public_forms(monkeypatch, forbidden):
    """Bind `forbidden` for every public function of forms, in forms and in dirac.

    bracket_coproduct is the only one: the operators on maps left the
    package with the map type, and conftest keeps them as oracles.
    """
    public = [
        name
        for name, obj in vars(forms).items()
        if inspect.isfunction(obj) and obj.__module__ == forms.__name__ and not name.startswith("_")
    ]
    assert public == ["bracket_coproduct"]
    for name in public:
        monkeypatch.setattr(forms, name, forbidden)
        monkeypatch.setattr(dirac, name, forbidden)


def test_cartan_item_uses_no_public_operator_and_builds_no_fraction(monkeypatch):
    ctx = fresh_context("sl2xsl2-diagonal")
    g = ctx.adapted

    def forbidden(*args, **kwargs):
        raise AssertionError("cartan-formula reached a public operator or built a Fraction")

    forbid_the_public_forms(monkeypatch, forbidden)
    monkeypatch.setattr(LinearCombination, "__add__", forbidden)
    monkeypatch.setattr(Fraction, "__new__", forbidden)
    item, _ = ctx._cartan_item(g)
    monkeypatch.undo()
    assert item == CheckItem("cartan-formula")


def negated_d(original):
    """d with its alternating sign (-1)^s flipped to (-1)^(s+1)."""
    return lambda entries, preimage: {idx: -n for idx, n in original(entries, preimage).items()}


def doubled_theta_entry(original):
    """The rows of ad X with the least entry of the least row doubled."""

    def rows(support, ad):
        out = original(support, ad)
        if out:
            row = out[min(out)]
            row[min(row)] *= 2
        return out

    return rows


KERNEL_FAULTS = {
    "_d_scatter": negated_d,
    "_ad_rows": doubled_theta_entry,
}


@pytest.mark.parametrize("name", ["sl2xsl2-diagonal", "sl3-killing"])
@pytest.mark.parametrize("kernel", KERNEL_FAULTS)
def test_cartan_item_fails_under_each_kernel_fault(monkeypatch, name, kernel):
    """A fault in a kernel the operators on maps share fails cartan-formula,
    with the reference's witness.

    The fault is bound in forms, where the oracles read it, and
    in dirac, where the cartan item does.  The item reads iota of a point
    mass off its key and calls no iota kernel, so the fault of that kernel
    is caught through `insert_first` (`test_forms`).
    """
    ctx = fresh_context(name)
    g = ctx.adapted
    faulty = KERNEL_FAULTS[kernel](getattr(forms, kernel))
    monkeypatch.setattr(forms, kernel, faulty)
    monkeypatch.setattr(dirac, kernel, faulty)
    item, _ = ctx._cartan_item(g)
    assert not item.ok and item == reference_cartan_item(g)
    assert re.fullmatch(r"arity [12] key \(.*\) X=\S+", item.witness)


def d_failing_on(keys, original):
    """d that also adds each entry's value on its key followed by its first
    index, for the keys in `keys` only."""

    def scatter(entries, preimage):
        entries = list(entries)
        out = original(entries, preimage)
        for key, val in entries:
            if key in keys:
                idx = key + key[:1]
                out[idx] = out.get(idx, 0) + val
        return out

    return scatter


def test_cartan_item_names_the_least_failing_key_across_orbits(monkeypatch):
    """Arity 3 runs orbit by orbit.  With d wrong on (2, 1, 0) and (0, 2, 2)
    only, the orbit of (0, 1, 2) fails first, but (0, 2, 2), in a later
    orbit, is the lesser key, and the item names it, as the reference does."""
    ctx = fresh_context("sl2xsl2-diagonal")
    g = ctx.algebra
    faulty = d_failing_on({(2, 1, 0), (0, 2, 2)}, forms._d_scatter)
    monkeypatch.setattr(forms, "_d_scatter", faulty)
    monkeypatch.setattr(dirac, "_d_scatter", faulty)
    item, _ = ctx._cartan_item(g)
    assert item == reference_cartan_item(g)
    assert item.witness == f"arity 3 key (0, 2, 2) X={g.labels[0]}"


# -- d-squared-zero and d-preserves-alternating against the operators on maps ---
#
# Both items come from one pass over the columns of d on the alternating
# point masses, which cartan-formula sums from its scatters with the kernel
# `_d_scatter`, and read d^2 = 0 off the canonical parts of those columns.
# These are earlier bodies, which build each point mass as a MultilinearMap
# and apply d twice over Q through `kernel_differential`, kept here as the
# references they must agree with.


def reference_d_squared_item(g):
    n = g.dim
    for i in range(n):
        w = MultilinearMap(g, 1, {(i,): 1})
        if not kernel_differential(kernel_differential(w)).is_zero():
            return CheckItem("d-squared-zero", f"arity 1 key ({i},)")
    for i in range(n):
        for j in range(i + 1, n):
            w = MultilinearMap(g, 2, {(i, j): 1, (j, i): -1})
            if not kernel_differential(kernel_differential(w)).is_zero():
                return CheckItem("d-squared-zero", f"arity 2 key ({i},{j})")
    return CheckItem("d-squared-zero")


def reference_alternating_item(g):
    n = g.dim
    for i in range(n):
        w = MultilinearMap(g, 1, {(i,): 1})
        if not is_alternating(kernel_differential(w)):
            return CheckItem("d-preserves-alternating", f"arity 1 key ({i},)")
    for i in range(n):
        for j in range(i + 1, n):
            w = MultilinearMap(g, 2, {(i, j): 1, (j, i): -1})
            if not is_alternating(kernel_differential(w)):
                return CheckItem("d-preserves-alternating", f"arity 2 key ({i},{j})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                triple = {(i, j, k): 1, (j, k, i): 1, (k, i, j): 1, (j, i, k): -1, (i, k, j): -1, (k, j, i): -1}
                if not is_alternating(kernel_differential(MultilinearMap(g, 3, triple))):
                    return CheckItem("d-preserves-alternating", f"arity 3 key ({i},{j},{k})")
    return CheckItem("d-preserves-alternating")


def d_references(g):
    return reference_d_squared_item(g), reference_alternating_item(g)


def d_items_and_references(ctx, g):
    """Each item of the one pass over point masses, with its reference."""
    _, alternating = ctx._cartan_item(g)
    return tuple(zip(ctx._d_items(g, alternating), d_references(g)))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_d_items_match_the_references_on_the_catalog(contexts, name):
    g = contexts(name).adapted
    for item, reference in d_items_and_references(contexts(name), g):
        assert item == reference and item.ok


def test_d_items_match_the_references_in_a_rational_basis():
    """sl(3) in a seeded basis: structure constants with denominators, a split form."""
    ctx = DiracContext(changed_algebra("sl3-killing", 5))
    g = ctx.adapted
    den, _, _ = g._integer_structure
    assert den > 1
    for item, reference in d_items_and_references(ctx, g):
        assert item == reference and item.ok


def failing_arity(item):
    assert not item.ok and item.witness is not None
    return int(re.fullmatch(r"arity (\d) key \((\d+,)+\d*\)", item.witness).group(1))


@pytest.mark.parametrize("name", ["sl2-killing", "sl2xsl2-diagonal", "sl3-killing"])
def test_d_items_match_the_references_on_a_shifted_structure_constant(name):
    """One entry of the preimage index shifted by P after validation, for every entry.

    d e^r then reads a bracket that is not antisymmetric, so both items
    fail at arity 1.  No such shift fails d-preserves-alternating later:
    once every d e^r is alternating the bracket is antisymmetric, and then
    d maps alternating forms to alternating forms at every arity.
    """
    ctx = fresh_context(name)
    g = ctx.adapted
    den, ad, preimage = g._integer_structure
    witnesses = set()
    for r, row in enumerate(preimage):
        for t, (a, s, c) in enumerate(row):
            corrupted = list(preimage)
            corrupted[r] = row[:t] + ((a, s, c + den),) + row[t + 1 :]
            g._integer_structure = den, ad, tuple(corrupted)
            for item, reference in d_items_and_references(ctx, g):
                assert item == reference
                assert failing_arity(item) == 1
                witnesses.add(item.witness)
    assert len(witnesses) > 1


def counting(original, calls):
    """`original`, counting each call under the name of the function that made it."""

    def scatter(entries, preimage):
        calls[sys._getframe(1).f_code.co_name] += 1
        return original(entries, preimage)

    return scatter


def test_d_squared_zero_fails_on_a_bracket_that_breaks_jacobi(monkeypatch):
    """On sl(3), one structure constant c_ab^r shifted by P after validation,
    and c_ba^r by -P with it, for the first pair (a, b) of each preimage row r.

    The bracket stays antisymmetric, so d keeps forms alternating and every
    column of d has a canonical part: d^2 = 0 is read off those parts alone,
    with no scatter beyond cartan-formula's one per ordered point mass, and
    it fails where Jacobi does, with the reference's witness.
    """
    ctx = fresh_context("sl3-killing")
    g = ctx.adapted
    den, ad, preimage = g._integer_structure
    calls = Counter()
    monkeypatch.setattr(dirac, "_d_scatter", counting(forms._d_scatter, calls))
    witnesses = set()
    for r, row in enumerate(preimage):
        if not row:
            continue
        a, b, _ = row[0]
        shift = {(a, b): den, (b, a): -den}
        corrupted = list(preimage)
        corrupted[r] = tuple((i, j, c + shift.get((i, j), 0)) for i, j, c in row)
        g._integer_structure = den, ad, tuple(corrupted)
        calls.clear()
        squared, alternating = d_items_and_references(ctx, g)
        assert squared[0] == squared[1] and alternating[0] == alternating[1] and alternating[0].ok
        assert calls == {"_cartan_item": g.dim + g.dim**2 + g.dim**3}
        if not squared[0].ok:
            witnesses.add(squared[0].witness)
    assert len(witnesses) > 1


def d_repeating_the_last_index_above(arity, original):
    """d that also adds each entry's value on its key with the last index
    repeated, for keys of more than `arity` indices: exact up to `arity`."""

    def scatter(entries, preimage):
        entries = list(entries)
        out = original(entries, preimage)
        for key, val in entries:
            if len(key) > arity:
                idx = key + key[-1:]
                out[idx] = out.get(idx, 0) + val
        return out

    return scatter


@pytest.mark.parametrize("name", ["sl2xsl2-diagonal", "sl3-killing"])
def test_d_items_match_the_references_on_a_d_that_fails_past_an_arity(monkeypatch, name):
    """A d exact on arity 1 fails d-squared-zero at arity 1 (its second
    application sees arity 2) and d-preserves-alternating at arity 2; a d
    exact up to arity 2 fails them at arities 2 and 3.  The fault is bound
    in forms, where the references read it, and in dirac, where the items
    do.  Not on sl(2), where d of every 2-form is zero, so the second
    application never sees an arity-3 entry.
    """
    ctx = fresh_context(name)
    g = ctx.adapted
    original = forms._d_scatter
    for exact_up_to in (1, 2):
        faulty = d_repeating_the_last_index_above(exact_up_to, original)
        monkeypatch.setattr(forms, "_d_scatter", faulty)
        monkeypatch.setattr(dirac, "_d_scatter", faulty)
        arities = []
        for item, reference in d_items_and_references(ctx, g):
            assert item == reference
            arities.append(failing_arity(item))
        assert arities == [exact_up_to, exact_up_to + 1]


def test_cohomology_scatters_d_once_per_point_mass(monkeypatch):
    """On sl2xsl2-diagonal (n = 6) cartan-formula scatters d once on each of
    its 6 + 36 + 216 point masses, and the d items read the columns of the
    6 + 15 + 20 alternating ones off those, with no scatter of their own:
    every column is alternating, so d^2 = 0 is read off their canonical
    parts.  A d that is not alternating past arity 2 fails cartan-formula at
    arity 3, which still scatters every point mass for the d items, and
    sends the first 2-form to the direct second scatter, which fails it, so
    no other 2-form is tried; both items still equal their references.
    dB-equals-2v scatters d once, on the form's entries."""
    ctx = fresh_context("sl2xsl2-diagonal")
    g = ctx.algebra
    calls = Counter()
    monkeypatch.setattr(dirac, "_d_scatter", counting(forms._d_scatter, calls))
    assert ctx.cohomology_check().passed
    assert calls == {"_cartan_item": 258, "_db_item": 1}

    calls.clear()
    faulty = d_repeating_the_last_index_above(2, forms._d_scatter)
    monkeypatch.setattr(forms, "_d_scatter", faulty)
    monkeypatch.setattr(dirac, "_d_scatter", counting(faulty, calls))
    items = items_by_id(ctx.cohomology_check())
    assert not items["cartan-formula"].ok
    for item_id, reference in zip(("d-squared-zero", "d-preserves-alternating"), d_references(g)):
        assert items[item_id] == reference and not reference.ok
    assert calls == {"_cartan_item": 258, "_d_items": 1, "_db_item": 1}


@pytest.mark.parametrize("name", ["sl2xsl2-diagonal", "sl3-killing"])
@pytest.mark.parametrize("kernel", KERNEL_FAULTS)
def test_d_items_match_the_references_under_each_kernel_fault(monkeypatch, name, kernel):
    """A negated d still squares to zero and keeps forms alternating, and the
    d items read no ad row, so both pass under each fault, as the references do."""
    ctx = fresh_context(name)
    g = ctx.adapted
    faulty = KERNEL_FAULTS[kernel](getattr(forms, kernel))
    monkeypatch.setattr(forms, kernel, faulty)
    monkeypatch.setattr(dirac, kernel, faulty)
    for item, reference in d_items_and_references(ctx, g):
        assert item == reference and item.ok


def test_a_stored_zero_on_a_repeated_index_is_not_alternating(contexts):
    """The kernel keeps zeros: d of e^0 ^ e^1 on sl(2) holds one on a
    repeated index, which fails the alternation test until it is dropped."""
    assert forms._canonical_part({(1, 1): 0}) is None
    g = contexts("sl2-killing").adapted
    _, _, preimage = g._integer_structure
    raw = forms._d_scatter([((0, 1), 1), ((1, 0), -1)], preimage)
    assert any(n == 0 and len(set(key)) < 3 for key, n in raw.items())
    assert forms._canonical_part(raw) is None
    assert forms._canonical_part({key: n for key, n in raw.items() if n}) is not None


def test_d_items_use_no_public_operator_and_build_no_fraction(monkeypatch):
    ctx = fresh_context("sl2xsl2-diagonal")
    g = ctx.adapted

    def forbidden(*args, **kwargs):
        raise AssertionError("a d item reached a public operator or built a Fraction or an element")

    forbid_the_public_forms(monkeypatch, forbidden)
    monkeypatch.setattr(LinearCombination, "__add__", forbidden)
    monkeypatch.setattr(Fraction, "__new__", forbidden)
    items = ctx._d_items(g, ctx._cartan_item(g)[1])
    monkeypatch.undo()
    assert items == (CheckItem("d-squared-zero"), CheckItem("d-preserves-alternating"))


# -- the basis the v-free laws run in ---------------------------------------------
#
# theta-B-vanishes, cartan-formula and the d items do not read v, and hold
# in every basis, so cohomology_check runs them on the input algebra as
# validated, not on the orthogonal adapted basis, where a split form fills
# in the structure constants.


V_FREE_ITEMS = ("_theta_b_item", "_cartan_item", "_d_items")


@pytest.mark.parametrize("case", ("pair", "split form"))
def test_cohomology_runs_the_v_free_laws_on_the_input_algebra(monkeypatch, case):
    if case == "pair":
        entry = catalog_entry("sl2xsl2-diagonal")
        ctx = DiracContext(entry.algebra, entry.subalgebra)
    else:
        ctx = DiracContext(tstar_heisenberg())
    seen = {}
    for name in V_FREE_ITEMS:
        original = getattr(DiracContext, name)

        def recording(self, g, *args, name=name, original=original):
            seen.setdefault(name, []).append(g)
            return original(self, g, *args)

        monkeypatch.setattr(DiracContext, name, recording)
    assert ctx.cohomology_check().passed
    assert ctx.absolute.adapted is not ctx.algebra
    assert {name: [g is ctx.algebra for g in gs] for name, gs in seen.items()} == dict.fromkeys(V_FREE_ITEMS, [True])


# cartan-formula's witness on T*Heisenberg under each kernel fault: in the
# input basis, with the input's labels; in the adapted basis it would read
# `arity 1 key (0,) X=p3`.
TSTAR_CARTAN_WITNESSES = {
    "_d_scatter": "arity 1 key (2,) X=x",
    "_ad_rows": "arity 1 key (2,) X=x",
}


@pytest.mark.parametrize("kernel", KERNEL_FAULTS)
def test_cartan_witness_names_the_input_labels(monkeypatch, kernel):
    ctx = DiracContext(tstar_heisenberg())
    faulty = KERNEL_FAULTS[kernel](getattr(forms, kernel))
    monkeypatch.setattr(forms, kernel, faulty)
    monkeypatch.setattr(dirac, kernel, faulty)
    item = items_by_id(ctx.cohomology_check())["cartan-formula"]
    assert item == CheckItem("cartan-formula", TSTAR_CARTAN_WITNESSES[kernel])
    assert item == reference_cartan_item(ctx.algebra)
    assert ctx.algebra.labels == ("x", "y", "z", "x*", "y*", "z*")


@pytest.mark.parametrize("name", ("tstar-heisenberg", *CATALOG_NAMES))
def test_v_free_items_match_the_references_on_the_input_algebra(name):
    g = tstar_heisenberg() if name == "tstar-heisenberg" else catalog_entry(name).algebra
    ctx = DiracContext(g)
    assert ctx._theta_b_item(g) == reference_theta_b_item(g)
    assert ctx._cartan_item(g)[0] == reference_cartan_item(g) == CheckItem("cartan-formula")
    for item, reference in d_items_and_references(ctx, g):
        assert item == reference and item.ok


def test_v_free_items_match_the_references_on_a_rational_input_basis():
    """sl(3) in a seeded basis, as given: structure constants with denominators."""
    g = changed_algebra("sl3-killing", 5)
    den, _, _ = g._integer_structure
    assert den > 1
    ctx = DiracContext(g)
    assert ctx._cartan_item(g)[0] == reference_cartan_item(g) == CheckItem("cartan-formula")
    for item, reference in d_items_and_references(ctx, g):
        assert item == reference and item.ok


def test_split_form_fills_in_the_adapted_structure_constants():
    """The reason for the input basis: T*Heisenberg has 6 nonzero structure
    constants c_ab^r as given (3 brackets, both orders) and 48 in its
    orthogonal adapted basis."""
    ctx = DiracContext(tstar_heisenberg())

    def nonzero_constants(g):
        _, ad, _ = g._integer_structure
        return sum(len(terms) for row in ad for terms in row.values())

    assert (nonzero_constants(ctx.algebra), nonzero_constants(ctx.adapted)) == (6, 48)
