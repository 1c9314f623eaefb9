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

import re
from fractions import Fraction

import pytest

from conftest import unit_vector
from cubicdirac import dirac
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import Multivector, twisted_commutator
from cubicdirac.dirac import DEFAULT_SEED, DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import bracket_coproduct
from cubicdirac.tensor import TensorElement


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
    total = TensorElement.from_parts(ctx.casimir, space.one())
    for i in range(ctx.m):
        for j in range(i + 1, ctx.m):
            br = PBWElement.from_vector(g, g.bracket_basis(i, j))
            blade = space.blade((i, j), Fraction(1) / (gram[i] * gram[j]))
            total = total + TensorElement.from_parts(br, blade)
    for i in range(ctx.m):
        dv = twisted_commutator(ctx.v, space.generator(i))
        total = total + TensorElement.from_parts(
            PBWElement.generator(g, i), (Fraction(1) / gram[i]) * dv
        )
    total = total + TensorElement.from_parts(PBWElement.one(g), ctx.v * ctx.v)
    return total


def test_abelian_dirac_square_is_the_casimir(contexts):
    for name in ("abelian1", "abelian2", "abelian3"):
        ctx = contexts(name)
        assert ctx.v.is_zero()
        square = ctx.dirac * ctx.dirac
        assert square == TensorElement.from_parts(ctx.casimir, ctx.space.one())
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
            br = PBWElement.from_vector(g, g.bracket_basis(i, j))
            lhs = lhs + TensorElement.from_parts(br, space.blade((i, j), Fraction(1) / (gram[i] * gram[j])))
    rhs = TensorElement.zero(g, space)
    for a in range(3):
        delta = bracket_coproduct(space, g, unit_vector(3, a))
        rhs = rhs + TensorElement.from_parts(
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


def test_decomposition_requires_a_subalgebra(contexts):
    with pytest.raises(ContractViolation):
        contexts("sl2-killing").decomposition_check()


def test_decomposition_fails_without_the_spin_lift(monkeypatch):
    """With Delta(y) = y (x) 1, the spin lift dropped, the decomposition breaks.

    The identity's witness counts the terms of
    D_g - (D_{g/h} (x)bar 1 + (Delta (x)bar 1)(D_h)); the relative residual
    is no longer a scalar, so c_rel is missing.
    """
    monkeypatch.setattr(dirac, "spin_lift", lambda space, nu: space.zero())
    entry = catalog_entry("sl2xsl2-diagonal")
    outcome = DiracContext(entry.algebra, entry.subalgebra).decomposition_check()
    assert [(item.item_id, item.ok, item.witness) for item in outcome.items] == [
        ("decomposition-identity", False, "3 mismatched terms"),
        ("components-anticommute", False, None),
        ("squared-consequence", False, None),
        ("c-additivity", False, "c_rel=None c_g=1/4 c_h=1/16"),
    ]
    assert outcome.values == {"c_g": Fraction(1, 4), "c_h": Fraction(1, 16)}


def transport(source_ctx, target_ctx):
    """Rewrite source's Dirac element in target's adapted basis."""
    move = target_ctx.split.to_adapted @ source_ctx.split.from_adapted
    cols = move.columns()
    g = target_ctx.adapted
    space = target_ctx.space
    out = TensorElement.zero(g, space)
    for (mono, mask), coeff in source_ctx.dirac.terms.items():
        u = PBWElement.one(g)
        for index in mono:
            u = u * PBWElement.from_vector(g, cols[index])
        c = space.one()
        for i in range(space.dim):
            if mask >> i & 1:
                c = c * space.vector(cols[i])
        out = out + TensorElement.from_parts(coeff * u, c)
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
    outcome = ctx.cohomology_check()
    item = items_by_id(outcome)[item_id]
    assert not item.ok
    match = re.fullmatch(r"seed (\d+) a=(.*?)(?: b=(.*))?", item.witness)
    assert match is not None, item.witness
    assert int(match.group(1)) == DEFAULT_SEED
    operands = [parse_multivector(ctx.space, text) for text in match.groups()[1:] if text is not None]
    assert [repr(x) for x in operands] == [text for text in match.groups()[1:] if text is not None]
    return operands


def test_dv_square_witness_reproduces_the_failure_on_its_own():
    """An even part in v breaks d_v^2 = [v^2, .]; the witness names a and the seed."""
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


def test_dv_derivation_witness_reproduces_the_failure_on_its_own(monkeypatch):
    """d_v(ab) = d_v(a) b + kappa(a) d_v(b) holds for every v, odd or not, so no
    change of v breaks it; a sign error in the twist does."""
    ctx = DiracContext(catalog_entry("sl2-killing").algebra)

    def wrong_sign(v, a):
        return v * a + a.grade_involution() * v

    monkeypatch.setattr(dirac, "twisted_commutator", wrong_sign)
    a, b = dv_witness(ctx, "dv-derivation-law")
    v = ctx.v
    assert wrong_sign(v, a * b) != wrong_sign(v, a) * b + a.grade_involution() * wrong_sign(v, b)


def test_passing_dv_items_carry_no_witness(contexts):
    items = items_by_id(contexts("sl2-killing").cohomology_check())
    for item_id in ("dv-derivation-law", "dv-square-is-v2-bracket"):
        assert items[item_id].ok and items[item_id].witness is None
