"""Super tensor products U(g) (x) C(V) and the three-factor variant."""

import random
from fractions import Fraction

import pytest

from conftest import abelian_named_sl2
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import CliffordSpace
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.tensor import TensorElement, TripleTensorElement, graded_commutator


@pytest.fixture(scope="module")
def abelian2():
    return catalog_entry("abelian2").algebra


@pytest.fixture(scope="module")
def space():
    return CliffordSpace((Fraction(2), Fraction(3)))


@pytest.fixture(scope="module")
def h_space():
    return CliffordSpace((Fraction(5),))


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


def test_koszul_sign_in_triple_product(abelian2, space, h_space):
    """Moving an odd h-factor past an odd p-factor costs a sign."""
    one_p = space.one()
    x_odd = TripleTensorElement.from_tensor(
        TensorElement.from_parts(PBWElement.one(abelian2), space.generator(0)), h_space
    )
    y_odd = TripleTensorElement.from_tensor(
        TensorElement.from_parts(PBWElement.one(abelian2), one_p), h_space, h_mask=1
    )
    both = TripleTensorElement.from_tensor(
        TensorElement.from_parts(PBWElement.one(abelian2), space.generator(0)), h_space, h_mask=1
    )
    assert x_odd * y_odd == both
    assert y_odd * x_odd == -both


def test_no_sign_when_either_factor_is_even(abelian2, space, h_space):
    u_even = TripleTensorElement.from_tensor(
        TensorElement.from_parts(PBWElement.generator(abelian2, 0), space.one()), h_space
    )
    y_odd = TripleTensorElement.from_tensor(
        TensorElement.from_parts(PBWElement.one(abelian2), space.one()), h_space, h_mask=1
    )
    lhs = y_odd * u_even
    rhs = u_even * y_odd
    assert lhs == rhs


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


def test_triple_associativity_randomized(abelian2, space, h_space):
    rng = random.Random(37)

    def random_triple():
        out = TripleTensorElement.zero(abelian2, space, h_space)
        for _ in range(3):
            u = PBWElement.generator(abelian2, rng.randrange(2))
            pmask = rng.randrange(4)
            hmask = rng.randrange(2)
            indices = tuple(s for s in range(2) if pmask >> s & 1)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            t = TensorElement.from_parts(coeff * u, space.blade(indices))
            out = out + TripleTensorElement.from_tensor(t, h_space, h_mask=hmask)
        return out

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


def test_elements_over_different_carriers_do_not_mix(abelian2, space, h_space):
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
    x3 = TripleTensorElement.from_tensor(x, h_space, 1)
    y3 = TripleTensorElement.from_tensor(y, h_space, 1)
    for left, right in ((x3, y3), (y3, x3)):
        with pytest.raises(ContractViolation):
            left + right
        with pytest.raises(ContractViolation):
            left * right
    assert x3 != y3
