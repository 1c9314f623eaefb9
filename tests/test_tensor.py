"""Super tensor products U(g) (x) C(V) and the graded triple over C(h_perp + h).

A graded triple U(g) x C(h_perp) (x)bar C(h) is stored over the concatenated
Clifford space: the term (mono, p, h) is the key (mono, p | h << m).  The
tests below build triples that way over the Grams (2, 3, 5), so m = 2 and
the h generator is bit 2, and compare the merged product with the
two-factor product and its Koszul sign.
"""

import random
from fractions import Fraction

import pytest

from conftest import abelian_named_sl2
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import CliffordSpace, _blade_clifford
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.tensor import TensorElement, TripleTensorElement, _mono_mul, graded_commutator


@pytest.fixture(scope="module")
def abelian2():
    return catalog_entry("abelian2").algebra


@pytest.fixture(scope="module")
def space():
    return CliffordSpace((Fraction(2), Fraction(3)))


@pytest.fixture(scope="module")
def h_space():
    return CliffordSpace((Fraction(5),))


@pytest.fixture(scope="module")
def full_space():
    """C(h_perp + h) for h_perp with Grams 2, 3 (bits 0, 1) and h with Gram 5 (bit 2)."""
    return CliffordSpace((Fraction(2), Fraction(3), Fraction(5)))


def triple(algebra, space, m, terms):
    """The triple with terms {(mono, p-mask, h-mask): c}, over concatenated masks."""
    return TripleTensorElement(
        algebra, space, {(mono, p | h << m): Fraction(c) for (mono, p, h), c in terms.items()}
    )


def koszul_product(algebra, p_space, h_space, a: dict, b: dict) -> dict:
    """The two-factor graded product on keys (mono, p-mask, h-mask).

    The h blade of the left factor passes the h_perp blade of the right
    factor at the Koszul sign (-1)^{|h_a| |p_b|}; then each Clifford factor
    multiplies on its own.
    """
    out: dict = {}
    for (ma, pa, ha), ca in a.items():
        for (mb, pb, hb), cb in b.items():
            sign = -1 if (ha.bit_count() & 1) and (pb.bit_count() & 1) else 1
            p_coeff, pmask = _blade_clifford(p_space, pa, pb)
            h_coeff, hmask = _blade_clifford(h_space, ha, hb)
            factor = sign * ca * cb * p_coeff * h_coeff
            for mono, mc in _mono_mul(algebra, ma, mb).items():
                key = (mono, pmask, hmask)
                out[key] = out.get(key, 0) + factor * mc
    return {key: c for key, c in out.items() if c}


def elem(algebra, space, i, indices, coeff=1):
    """X_i (x) (blade on indices), the building block for these tests."""
    u = PBWElement.generator(algebra, i) if i is not None else PBWElement.one(algebra)
    return TensorElement.from_parts(u, space.blade(indices, Fraction(coeff)))


def test_unit_acts_as_identity(abelian2, space):
    one = TensorElement.one(abelian2, space)
    a = elem(abelian2, space, 0, (1,), coeff=3)
    assert one * a == a
    assert a * one == a


def test_square_of_odd_simple_tensor(abelian2, space):
    """(X (x) e1)^2 = X^2 (x) d1, the sign-free case of the super product."""
    a = elem(abelian2, space, 0, (0,))
    x = PBWElement.generator(abelian2, 0)
    expected = TensorElement.from_parts(x * x, space.scalar(Fraction(2)))
    assert a * a == expected


def test_product_of_distinct_odd_tensors(abelian2, space):
    a = elem(abelian2, space, 0, (0,))
    b = elem(abelian2, space, 1, (1,))
    x, y = PBWElement.generator(abelian2, 0), PBWElement.generator(abelian2, 1)
    assert a * b == TensorElement.from_parts(x * y, space.blade((0, 1)))


def test_koszul_sign_in_triple_product(abelian2, full_space):
    """Moving an odd h-factor past an odd p-factor costs a sign."""
    x_odd = triple(abelian2, full_space, 2, {((), 0b01, 0): 1})
    y_odd = triple(abelian2, full_space, 2, {((), 0, 1): 1})
    both = triple(abelian2, full_space, 2, {((), 0b01, 1): 1})
    assert x_odd * y_odd == both
    assert y_odd * x_odd == -both


def test_no_sign_when_either_factor_is_even(abelian2, full_space):
    u_even = triple(abelian2, full_space, 2, {((0,), 0, 0): 1})
    y_odd = triple(abelian2, full_space, 2, {((), 0, 1): 1})
    lhs = y_odd * u_even
    rhs = u_even * y_odd
    assert lhs == rhs


def test_merged_product_is_the_koszul_product():
    """(mono, p, h) <-> (mono, p | h << m) carries the two-factor product to the merged one.

    Seeded random operands over sl(2) (so the PBW factor rewrites), for every
    m <= 3 and k <= 2, with Grams that are not units and have denominators.
    """
    sl2 = catalog_entry("sl2-killing").algebra
    p_grams = (Fraction(2, 3), Fraction(-5, 2), Fraction(7, 4))
    h_grams = (Fraction(-3, 5), Fraction(4, 7))
    rng = random.Random(41)
    odd_pairs = 0
    for m in range(1, 4):
        for k in range(1, 3):
            p_space, h_space = CliffordSpace(p_grams[:m]), CliffordSpace(h_grams[:k])
            full = CliffordSpace(p_grams[:m] + h_grams[:k])

            def operand():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    mono = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(0, 2))))
                    key = (mono, rng.randrange(1 << m), rng.randrange(1 << k))
                    terms[key] = Fraction(rng.choice((-7, -2, -1, 1, 3, 5)), rng.randint(1, 6))
                return terms

            for _ in range(12):
                a, b = operand(), operand()
                odd_pairs += sum(
                    (ha.bit_count() & 1) and (pb.bit_count() & 1) for (_, _, ha) in a for (_, pb, _) in b
                )
                expected = triple(sl2, full, m, koszul_product(sl2, p_space, h_space, a, b))
                product = triple(sl2, full, m, a) * triple(sl2, full, m, b)
                assert type(product) is TripleTensorElement
                assert product == expected
    assert odd_pairs > 0


def test_parity_of_simple_tensors(abelian2, space):
    assert elem(abelian2, space, None, ()).parity() == 0
    assert elem(abelian2, space, 0, (0,)).parity() == 1
    assert elem(abelian2, space, 0, (0, 1)).parity() == 0
    assert TensorElement.zero(abelian2, space).parity() == 0
    mixed = elem(abelian2, space, None, ()) + elem(abelian2, space, 0, (0,))
    assert mixed.parity() is None


def test_graded_commutator_rules(abelian2, space):
    odd_a = elem(abelian2, space, 0, (0,))
    odd_b = elem(abelian2, space, 1, (1,))
    even = elem(abelian2, space, 0, (0, 1))
    assert graded_commutator(odd_a, odd_b) == odd_a * odd_b + odd_b * odd_a
    assert graded_commutator(even, odd_a) == even * odd_a - odd_a * even


def test_graded_commutator_rejects_inhomogeneous_input(abelian2, space):
    mixed = elem(abelian2, space, None, ()) + elem(abelian2, space, 0, (0,))
    with pytest.raises(ContractViolation):
        graded_commutator(mixed, mixed)


def test_tensor_associativity_randomized(space):
    sl2 = catalog_entry("sl2-killing").algebra
    rng = random.Random(29)

    def random_tensor():
        out = TensorElement.zero(sl2, space)
        for _ in range(3):
            word = [rng.randrange(3) for _ in range(rng.randint(0, 2))]
            u = PBWElement.one(sl2)
            for i in word:
                u = u * PBWElement.generator(sl2, i)
            mask = rng.randrange(4)
            indices = tuple(s for s in range(2) if mask >> s & 1)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            out = out + TensorElement.from_parts(coeff * u, space.blade(indices))
        return out

    for _ in range(25):
        a, b, c = random_tensor(), random_tensor(), random_tensor()
        assert (a * b) * c == a * (b * c)


def test_triple_associativity_randomized(abelian2, full_space):
    rng = random.Random(37)

    def random_triple():
        terms = {}
        for _ in range(3):
            key = ((rng.randrange(2),), rng.randrange(4), rng.randrange(2))
            terms[key] = terms.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return triple(abelian2, full_space, 2, terms)

    for _ in range(25):
        a, b, c = random_triple(), random_triple(), random_triple()
        assert (a * b) * c == a * (b * c)


def test_u_degree_filtration(abelian2, space):
    x = PBWElement.generator(abelian2, 0)
    a = TensorElement.from_parts(x * x, space.one()) + TensorElement.from_parts(x, space.generator(1))
    deg2 = a.u_degree_terms(2)
    deg1 = a.u_degree_terms(1)
    assert set(deg2) == {((0, 0), 0)}
    assert set(deg1) == {((0,), 2)}
    assert a.u_degree_terms(3) == {}


def test_scalar_coefficient_and_scalar_test(abelian2, space):
    one = TensorElement.one(abelian2, space)
    a = Fraction(5, 4) * one
    assert a.is_scalar_multiple_of_one()
    assert a.scalar_coefficient() == Fraction(5, 4)
    b = a + elem(abelian2, space, 0, (0,))
    assert not b.is_scalar_multiple_of_one()
    assert TensorElement.zero(abelian2, space).is_scalar_multiple_of_one()


def test_elements_over_different_carriers_do_not_mix(abelian2, space, h_space, full_space):
    a = TensorElement.one(abelian2, space)
    b = TensorElement.one(abelian2, h_space)
    with pytest.raises(ContractViolation):
        a + b
    sl2 = catalog_entry("sl2-killing").algebra
    namesake = abelian_named_sl2()
    x = elem(sl2, space, 0, (0,))
    y = elem(namesake, space, 0, (0,))
    for left, right in ((x, y), (y, x)):
        with pytest.raises(ContractViolation):
            left + right
        with pytest.raises(ContractViolation):
            left * right
    assert x != y
    x3 = triple(sl2, full_space, 2, {((0,), 0b01, 1): 1})
    y3 = triple(namesake, full_space, 2, {((0,), 0b01, 1): 1})
    for left, right in ((x3, y3), (y3, x3)):
        with pytest.raises(ContractViolation):
            left + right
        with pytest.raises(ContractViolation):
            left * right
    assert x3 != y3
    # a triple and a pair over the same carrier are different elements
    x2 = TensorElement(sl2, full_space, x3.terms)
    for left, right in ((x2, x3), (x3, x2)):
        with pytest.raises(ContractViolation):
            left + right
        with pytest.raises(ContractViolation):
            left * right
    assert x2 != x3
