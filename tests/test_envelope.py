"""Universal enveloping algebra in PBW normal form, plus the Casimir and degree-1 oracles of conftest."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian_named_sl2,
    casimir_element,
    changed_algebra,
    pbw_from_vector,
    reference_pbw_normalize,
    tstar_heisenberg,
    unit_vector,
)
from cubicdirac.catalog import catalog_entry, catalog_names
from cubicdirac.envelope import PBWElement, _pbw_rewrite, pbw_normalize
from cubicdirac.errors import ContractViolation
from cubicdirac.lie import QuadraticLieAlgebra, orthogonal_split


@pytest.fixture(scope="module")
def sl2():
    return catalog_entry("sl2-killing").algebra


@pytest.fixture(scope="module")
def abelian2():
    return catalog_entry("abelian2").algebra


def gen(algebra, i):
    return PBWElement.generator(algebra, i)


def test_reordering_a_single_pair(sl2):
    """f e rewrites to e f - h in the basis (e, h, f)."""
    e, h, f = gen(sl2, 0), gen(sl2, 1), gen(sl2, 2)
    assert f * e == e * f - h
    assert (f * e).terms == {(0, 2): Fraction(1), (1,): Fraction(-1)}


def test_already_ordered_product_is_untouched(sl2):
    e, f = gen(sl2, 0), gen(sl2, 2)
    assert (e * f).terms == {(0, 2): Fraction(1)}


def test_unit_and_scalars(sl2):
    one = PBWElement.one(sl2)
    x = gen(sl2, 1)
    assert one * x == x
    assert x * one == x
    assert Fraction(3, 2) * one * x == Fraction(3, 2) * x


def test_abelian_generators_commute(abelian2):
    x, y = gen(abelian2, 0), gen(abelian2, 1)
    assert x * y == y * x
    assert (y * x).terms == {(0, 1): Fraction(1)}


def test_normalization_is_associative(sl2):
    rng = random.Random(19)
    gens = [gen(sl2, i) for i in range(3)]

    def random_element():
        out = PBWElement.zero(sl2)
        for _ in range(3):
            factors = [rng.choice(gens) for _ in range(rng.randint(1, 2))]
            term = PBWElement.one(sl2)
            for factor in factors:
                term = term * factor
            out = out + Fraction(rng.randint(-4, 4)) * term
        return out

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        assert (a * b) * c == a * (b * c)


def test_degree_four_products_normalize(sl2):
    e, h, f = gen(sl2, 0), gen(sl2, 1), gen(sl2, 2)
    left = (f * f) * (e * e)
    right = f * (f * (e * e))
    assert left == right
    indices = [idx for mono in left.terms for idx in mono]
    assert all(0 <= i < 3 for i in indices)
    for mono in left.terms:
        assert list(mono) == sorted(mono)


def test_commutator_of_generators_matches_bracket(sl2):
    e, h, f = gen(sl2, 0), gen(sl2, 1), gen(sl2, 2)
    assert e.commutator(f) == h
    assert h.commutator(e) == 2 * e
    assert h.commutator(f) == -2 * f


def test_casimir_of_abelian_identity_form(abelian2):
    omega = casimir_element(abelian2)
    x, y = gen(abelian2, 0), gen(abelian2, 1)
    assert omega == x * x + y * y


def test_casimir_needs_an_orthogonal_basis(sl2):
    with pytest.raises(ContractViolation):
        casimir_element(sl2)


def test_casimir_is_the_dual_basis_sum_of_squares(sl2):
    """Omega = sum X_i X^i with X^i = X_i / d_i, the products taken in U(g)."""
    adapted = orthogonal_split(sl2).adapted
    expected = PBWElement.zero(adapted)
    for i, d in enumerate(adapted.form.diagonal()):
        expected = expected + (1 / d) * (gen(adapted, i) * gen(adapted, i))
    assert casimir_element(adapted) == expected


def test_casimir_is_central(sl2):
    adapted = orthogonal_split(sl2).adapted
    omega = casimir_element(adapted)
    for i in range(3):
        x = gen(adapted, i)
        assert omega * x == x * omega


def test_casimir_halves_when_form_doubles(sl2):
    adapted = orthogonal_split(sl2).adapted
    doubled = QuadraticLieAlgebra(
        "sl2-doubled", adapted.labels, adapted.bracket_table(), adapted.form.scaled(Fraction(2))
    )
    omega = casimir_element(adapted)
    omega_doubled = casimir_element(doubled)
    assert omega_doubled.terms == {m: c / 2 for m, c in omega.terms.items()}


def test_elements_of_different_algebras_do_not_mix(sl2, abelian2):
    with pytest.raises(ContractViolation):
        gen(sl2, 0) + gen(abelian2, 0)
    namesake = abelian_named_sl2()
    with pytest.raises(ContractViolation):
        gen(namesake, 2) * gen(sl2, 0)
    with pytest.raises(ContractViolation):
        gen(sl2, 0) * gen(namesake, 2)
    assert gen(namesake, 0) != gen(sl2, 0)


def test_from_vector(sl2):
    x = pbw_from_vector(sl2, unit_vector(3, 0))
    assert x == gen(sl2, 0)
    combo = pbw_from_vector(sl2, (Fraction(2), Fraction(0), Fraction(-1)))
    assert combo == 2 * gen(sl2, 0) - gen(sl2, 2)


# the catalog, T*-Heisenberg (constants over 1 in a split form) and sl(3) in a
# seeded rational basis, whose structure constants are dense and over P > 1
REWRITE_ALGEBRAS = [catalog_entry(name).algebra for name in catalog_names()] + [
    tstar_heisenberg(),
    changed_algebra("sl3-killing", 3),
]


@st.composite
def monomial_sums(draw):
    """(algebra, {monomial: coefficient}): up to three monomials of degree at most 4."""
    g = draw(st.sampled_from(REWRITE_ALGEBRAS))
    monomials = st.lists(st.integers(0, g.dim - 1), max_size=4).map(tuple)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    return g, draw(st.dictionaries(monomials, coefficients, min_size=1, max_size=3))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(monomial_sums())
def test_the_integer_rewriter_is_the_fraction_rewriter(case):
    """pbw_normalize, the Fraction face of the integer rewriter, against the
    Fraction rewriting it replaced; and each monomial alone, whose normal
    form the rewriter returns over P^E."""
    g, raw = case
    assert pbw_normalize(g, raw) == reference_pbw_normalize(g, raw)
    den = g._integer_structure[0]
    for mono in raw:
        depth, out = _pbw_rewrite(g._integer_structure, [(mono, 1)])
        expected = reference_pbw_normalize(g, {mono: 1})
        assert {m: Fraction(n, den**depth) for m, n in out.items()} == expected
        assert depth <= max(len(mono) - 1, 0)
