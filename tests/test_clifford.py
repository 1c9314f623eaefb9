"""Clifford algebra of a diagonal form: products, contraction, pairing, lifts."""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import (
    best_of_three,
    blade_clifford,
    changed_algebra,
    changed_basis,
    contract,
    grade_involution,
    hostile_changed_algebra,
    multivector_from_trilinear,
    pairing,
    spin_lift,
)
from cubicdirac import DiracContext, QuadraticLieAlgebra, catalog_entry, catalog_names
from cubicdirac.clifford import (
    CliffordSpace,
    Multivector,
    _overlap_sums,
    _swap_prefix,
    is_scalar,
    scalar_part,
    twisted_commutator,
)
from cubicdirac.errors import ContractViolation
from cubicdirac.linalg import Matrix, solve_linear, vector
from cubicdirac.sparse import _integer_terms


@pytest.fixture(scope="module")
def space2():
    return CliffordSpace((Fraction(2), Fraction(7)))


@pytest.fixture(scope="module")
def space3():
    return CliffordSpace((Fraction(2), Fraction(-3), Fraction(5)))


def random_multivector(space, rng, terms=4):
    out = space.zero()
    for _ in range(terms):
        mask = rng.randrange(1 << space.dim)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        indices = tuple(i for i in range(space.dim) if mask >> i & 1)
        out = out + space.blade(indices, coeff)
    return out


def random_vector(space, rng):
    return space.vector([Fraction(rng.randint(-5, 5)) for _ in range(space.dim)])


def form_value(space, x, y):
    """B(x, y) for degree-1 elements, straight from the diagonal Gram."""
    total = Fraction(0)
    for i, d in enumerate(space.gram):
        total += x.terms.get(1 << i, Fraction(0)) * y.terms.get(1 << i, Fraction(0)) * d
    return total


def test_generator_squares_to_gram_entry(space2):
    e1 = space2.generator(0)
    assert e1 * e1 == space2.scalar(Fraction(2))


def test_orthogonal_generators_multiply_to_blade(space2):
    e1, e2 = space2.generator(0), space2.generator(1)
    assert e1 * e2 == space2.blade((0, 1))
    assert e2 * e1 == space2.blade((0, 1), Fraction(-1))


def test_blade_times_generator(space2):
    e12 = space2.blade((0, 1))
    e1, e2 = space2.generator(0), space2.generator(1)
    assert e12 * e1 == Fraction(-2) * e2
    assert e12 * e2 == Fraction(7) * e1


# The blade kernel as a walk over the bits of the left blade, highest first:
# each generator moves past the lower bits of the running blade (one sign per
# bit it crosses) and either squares to its Gram entry or joins the blade.
# It is kept here as the reference for the bit-parity kernel.


def bit_list(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def walk_blade_clifford(gram, ma, mb):
    coeff = Fraction(1)
    mask = mb
    for i in reversed(bit_list(ma)):
        if (mask & ((1 << i) - 1)).bit_count() & 1:
            coeff = -coeff
        bit = 1 << i
        if mask & bit:
            coeff *= gram[i]
            mask &= ~bit
        else:
            mask |= bit
    return coeff, mask


def walk_blade_wedge(ma, mb):
    if ma & mb:
        return None
    sign = 1
    for i in bit_list(ma):
        if (mb & ((1 << i) - 1)).bit_count() & 1:
            sign = -sign
    return sign, ma | mb


def wedge_of_blades(space, ma, mb):
    """The ^ of the one-blade multivectors on ma and mb, as walk_blade_wedge writes it."""
    product = Multivector(space, {ma: Fraction(1)}) ^ Multivector(space, {mb: Fraction(1)})
    return next(((c, mask) for mask, c in product.terms.items()), None)


def mixed_gram(m):
    """Gram entries of both signs, none of them +-1: 3/2, -5/3, 7/4, ..."""
    return tuple(Fraction((-1) ** i * (2 * i + 3), i + 2) for i in range(m))


def walk_product(a, b):
    """a * b summed term by term through the reference kernel."""
    out = a.space.zero()
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            coeff, mask = walk_blade_clifford(a.space.gram, ma, mb)
            out = out + Multivector(a.space, {mask: ca * cb * coeff})
    return out


@pytest.mark.parametrize("m", range(6))
def test_blade_kernel_matches_the_bit_walk_on_every_pair(m):
    gram = mixed_gram(m)
    space = CliffordSpace(gram)
    for ma in range(1 << m):
        for mb in range(1 << m):
            assert blade_clifford(space, ma, mb) == walk_blade_clifford(gram, ma, mb)
            assert wedge_of_blades(space, ma, mb) == walk_blade_wedge(ma, mb)


def test_blade_kernel_matches_the_bit_walk_on_random_pairs():
    rng = random.Random(20000)
    spaces = {m: CliffordSpace(mixed_gram(m)) for m in range(1, 16)}
    for _ in range(20000):
        m = rng.randint(1, 15)
        ma, mb = rng.randrange(1 << m), rng.randrange(1 << m)
        assert blade_clifford(spaces[m], ma, mb) == walk_blade_clifford(spaces[m].gram, ma, mb)
        assert wedge_of_blades(spaces[m], ma, mb) == walk_blade_wedge(ma, mb)


@pytest.mark.parametrize("m", (3, 6, 15))
def test_product_matches_the_bit_walk(m):
    space = CliffordSpace(mixed_gram(m))
    rng = random.Random(m)
    for _ in range(40):
        a = random_multivector(space, rng, terms=6)
        b = random_multivector(space, rng, terms=6)
        assert (a * b).terms == walk_product(a, b).terms


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def coprime_multivector(space, rng, terms):
    """Coefficients whose denominators are distinct primes up to 97, so no two share a factor."""
    dens = rng.sample(PRIMES, terms)
    return Multivector(
        space,
        {rng.randrange(1 << space.dim): Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), d) for d in dens},
    )


def assert_product_matches_the_walk(a, b):
    got = (a * b).terms
    assert got == walk_product(a, b).terms
    assert all(type(c) is Fraction and c for c in got.values())


@pytest.mark.parametrize("m", (1, 4, 9))
def test_product_over_coprime_denominators_matches_the_bit_walk(m):
    """Operands over coprime denominators and a Gram with denominators 2..m+1."""
    space = CliffordSpace(mixed_gram(m))
    rng = random.Random(f"coprime-{m}")
    scalar = Multivector(space, {0: Fraction(-7, 97)})
    for _ in range(30):
        a = coprime_multivector(space, rng, rng.randint(1, 8))
        b = coprime_multivector(space, rng, rng.randint(1, 8))
        for x, y in ((a, b), (b, a), (a, scalar), (scalar, a), (a, space.zero()), (space.zero(), a)):
            assert_product_matches_the_walk(x, y)


def test_product_that_cancels_completely_is_zero():
    """x = 9/28 e1 + 1/7 e2 with Grams 2/3 and -27/8 squares to 0, so x (x z) = 0."""
    space = CliffordSpace((Fraction(2, 3), Fraction(-27, 8), Fraction(5, 11)))
    x = Multivector(space, {1: Fraction(9, 28), 2: Fraction(1, 7)})
    assert (x * x).terms == {}
    z = coprime_multivector(space, random.Random(7), 6)
    xz = x * z
    assert xz.terms and all(type(c) is Fraction for c in xz.terms.values())
    assert (x * xz).terms == {}
    assert walk_product(x, xz).terms == {}


@pytest.mark.parametrize(
    "gram, square",
    [((Fraction(2, 3), Fraction(-5, 2)), {0: Fraction(-11, 6)}), ((Fraction(3), Fraction(-3)), {})],
)
def test_cancelling_terms_leave_no_zero_coefficient(gram, square):
    """(e1 + e2)^2 = d1 + d2: the e1^e2 terms cancel, and so does d1 + d2 = 0."""
    space = CliffordSpace(gram)
    x = space.generator(0) + space.generator(1)
    assert (x * x).terms == square


def test_clifford_relation_on_all_degree_one_pairs(space3):
    rng = random.Random(23)
    vectors = [space3.generator(i) for i in range(3)]
    vectors += [random_vector(space3, rng) for _ in range(5)]
    for x in vectors:
        for y in vectors:
            lhs = x * y + y * x
            assert lhs == space3.scalar(2 * form_value(space3, x, y))


def test_wedge_is_alternating(space3):
    rng = random.Random(7)
    for _ in range(20):
        x = random_vector(space3, rng)
        y = random_vector(space3, rng)
        assert (x ^ x).is_zero()
        assert x ^ y == -(y ^ x)


def test_degree_one_action_splits_into_wedge_and_contraction(space3):
    """x * w = x wedge w + contract(x, w), checked on every blade."""
    for i in range(3):
        x = space3.generator(i)
        for mask in range(1 << space3.dim):
            indices = tuple(s for s in range(3) if mask >> s & 1)
            w = space3.blade(indices)
            assert x * w == (x ^ w) + contract(x, w)


def test_degree_one_commutation_rule(space3):
    """x*w - (-1)^k w*x = 2 contract(x, w) for homogeneous w of degree k."""
    rng = random.Random(31)
    for i in range(3):
        x = space3.generator(i)
        for mask in range(1 << space3.dim):
            indices = tuple(s for s in range(3) if mask >> s & 1)
            w = space3.blade(indices, Fraction(rng.randint(1, 5)))
            k = len(indices)
            sign = Fraction(-1) if k % 2 else Fraction(1)
            assert x * w - sign * (w * x) == 2 * contract(x, w)


def test_associativity_exhaustive_small(space3):
    blades = [space3.blade(tuple(s for s in range(3) if m >> s & 1)) for m in range(1 << space3.dim)]
    for a, b, c in itertools.product(blades, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_associativity_dimension_four():
    space = CliffordSpace((Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 2)))
    blades = [space.blade(tuple(s for s in range(4) if m >> s & 1)) for m in range(1 << space.dim)]
    rng = random.Random(13)
    for _ in range(400):
        a, b, c = (rng.choice(blades) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_associativity_random_dimension_six():
    space = CliffordSpace(tuple(Fraction(d) for d in (1, 2, -1, 3, 2, -5)))
    rng = random.Random(41)
    for _ in range(30):
        a = random_multivector(space, rng)
        b = random_multivector(space, rng)
        c = random_multivector(space, rng)
        assert (a * b) * c == a * (b * c)


def test_grade_involution_is_an_algebra_automorphism(space3):
    rng = random.Random(3)
    for _ in range(25):
        a = random_multivector(space3, rng)
        b = random_multivector(space3, rng)
        assert grade_involution(a * b) == grade_involution(a) * grade_involution(b)
        assert grade_involution(grade_involution(a)) == a


def test_grade_involution_negates_generators(space3):
    x = space3.generator(1)
    assert grade_involution(x) == -x
    assert grade_involution(space3.one()) == space3.one()


def test_contract_on_scalar_is_zero(space3):
    assert contract(space3.generator(0), space3.one()).is_zero()


def test_contract_carries_gram_factors():
    space = CliffordSpace((Fraction(1), Fraction(1)))
    e12 = space.blade((0, 1))
    assert contract(space.generator(0), e12) == space.generator(1)
    assert contract(space.generator(1), e12) == -space.generator(0)


def test_contract_is_adjoint_to_wedge(space3):
    """pairing(contract(x, w), u) = pairing(w, x wedge u), exhaustively."""
    blades = [space3.blade(tuple(s for s in range(3) if m >> s & 1)) for m in range(1 << space3.dim)]
    for i in range(3):
        x = space3.generator(i)
        for w in blades:
            for u in blades:
                assert pairing(contract(x, w), u) == pairing(w, x ^ u)


def test_contract_is_an_odd_derivation_of_wedge(space3):
    rng = random.Random(17)
    for i in range(3):
        x = space3.generator(i)
        for mask in range(1 << space3.dim):
            indices = tuple(s for s in range(3) if mask >> s & 1)
            a = space3.blade(indices)
            k = len(indices)
            sign = Fraction(-1) if k % 2 else Fraction(1)
            b = random_multivector(space3, rng)
            lhs = contract(x, a ^ b)
            rhs = (contract(x, a) ^ b) + sign * (a ^ contract(x, b))
            assert lhs == rhs


def test_pairing_values(space2):
    assert pairing(space2.one(), space2.one()) == 1
    assert pairing(space2.generator(0), space2.generator(0)) == 2
    e12 = space2.blade((0, 1))
    assert pairing(e12, e12) == 14
    assert pairing(space2.one(), space2.generator(0)) == 0


def test_pairing_is_nondegenerate_per_degree(space3):
    masks = list(range(1 << space3.dim))
    for m in masks:
        w = space3.blade(tuple(s for s in range(3) if m >> s & 1))
        values = [pairing(w, space3.blade(tuple(s for s in range(3) if u >> s & 1))) for u in masks]
        assert any(v != 0 for v in values)


# `_multivector_from_numerators` builds v and checks that t is alternating.
# These tests reach it through `conftest.multivector_from_trilinear`, which
# writes a Fraction table over its common denominator with unit weights.


def alternating_table(base):
    """{(i, j, k): sign * value} over all six orderings of each base triple i < j < k."""
    return {
        order: sign * value
        for triple, value in base.items()
        for order, sign in zip(itertools.permutations(triple), (1, -1, -1, 1, 1, -1))
    }


def test_trilinear_reconstruction_orthonormal_case():
    space = CliffordSpace((Fraction(1), Fraction(1), Fraction(1)))
    table = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
    v = multivector_from_trilinear(space, table)
    assert v == space.blade((0, 1, 2))


def test_trilinear_reconstruction_matches_linear_solve_oracle():
    """Independent route: solve pairing(v, e_i^e_j^e_k) = t(i,j,k) directly."""
    space = CliffordSpace((Fraction(2), Fraction(-3), Fraction(5), Fraction(1, 2)))
    table = alternating_table({(0, 1, 2): Fraction(3, 2), (1, 2, 3): Fraction(-4, 7)})

    def t(i, j, k):
        return table.get((i, j, k), Fraction(0))

    v = multivector_from_trilinear(space, table)
    n = space.dim
    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]
    rows = []
    rhs = []
    for (i, j, k) in triples:
        probe = space.blade((i, j, k))
        rows.append([pairing(space.blade(abc), probe) for abc in triples])
        rhs.append(t(i, j, k))
    sol = solve_linear(Matrix(rows), vector(rhs))
    assert sol is not None and sol.unique
    expected = space.zero()
    for coeff, abc in zip(sol.vector, triples):
        expected = expected + space.blade(abc, coeff)
    assert v == expected
    for (i, j, k) in triples:
        assert pairing(v, space.blade((i, j, k))) == t(i, j, k)


def test_trilinear_of_an_all_zero_table_is_zero(space3):
    table = {key: Fraction(0) for key in itertools.product(range(3), repeat=3)}
    assert multivector_from_trilinear(space3, table) == space3.zero()
    assert multivector_from_trilinear(space3, {}) == space3.zero()


GOOD = alternating_table({(0, 1, 2): Fraction(2, 3)})


def test_trilinear_rejects_non_alternating_input(space3):
    table = {key: Fraction(1) for key in itertools.product(range(3), repeat=3)}
    with pytest.raises(ContractViolation, match=re.escape("not alternating at (0, 0, 0)")):
        multivector_from_trilinear(space3, table)


@pytest.mark.parametrize(
    "table, where",
    [
        ({**GOOD, (1, 1, 2): Fraction(5)}, "(1, 1, 2)"),
        ({key: c for key, c in GOOD.items() if key != (2, 1, 0)}, "(2, 1, 0)"),
        ({**GOOD, (1, 2, 0): Fraction(-2, 3)}, "(1, 2, 0)"),
    ],
    ids=("repeated-index", "missing-ordering", "wrong-sign-ordering"),
)
def test_trilinear_rejects_one_broken_entry(space3, table, where):
    with pytest.raises(ContractViolation, match=re.escape(f"not alternating at {where}")):
        multivector_from_trilinear(space3, table)


def reference_multivector_from_trilinear(space, table):
    """The reconstruction that compares all six orderings for every nonzero entry."""
    values = {key: Fraction(raw) for key, raw in table.items() if raw}
    terms = {}
    for key, val in sorted(values.items()):
        i, j, k = key
        if i == j or j == k or i == k:
            raise ContractViolation(f"trilinear map not alternating at {key}")
        for order, sign in zip(itertools.permutations(key), (1, -1, -1, 1, 1, -1)):
            if values.get(order, Fraction(0)) != sign * val:
                raise ContractViolation(f"trilinear map not alternating at {order}")
        if i < j < k:
            terms[(1 << i) | (1 << j) | (1 << k)] = val / (space.gram[i] * space.gram[j] * space.gram[k])
    return Multivector(space, terms)


def outcome_of(build, space, table):
    try:
        return build(space, table).terms
    except ContractViolation as exc:
        return str(exc)


def test_trilinear_checks_each_orbit_once_with_the_same_first_failure():
    """Corrupted alternating tables on 5 generators: the same result or the same
    error as when every entry compares its six orderings."""
    space = CliffordSpace((Fraction(2), Fraction(-3), Fraction(5), Fraction(1, 2), Fraction(-7, 3)))
    rng = random.Random("trilinear-orbits")
    triples = list(itertools.combinations(range(5), 3))
    failures = set()
    for _ in range(300):
        base = {t: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for t in rng.sample(triples, 4)}
        table = alternating_table(base)
        for _ in range(rng.randint(0, 2)):
            key = tuple(rng.randrange(5) for _ in range(3))
            roll = rng.random()
            if roll < 0.4:
                table.pop(key, None)
            elif roll < 0.7 and key in table:
                table[key] = -table[key]
            else:
                table[key] = Fraction(rng.randint(-3, 3))
        got = outcome_of(multivector_from_trilinear, space, table)
        assert got == outcome_of(reference_multivector_from_trilinear, space, table)
        if isinstance(got, str):
            failures.add(got)
    assert len(failures) > 20


V_CASES = {
    **{
        f"{name}-variant-{variant}": (lambda contexts, name=name, variant=variant: contexts(name, variant=variant))
        for name in catalog_names()
        for variant in (0, 1)
    },
    "sl3-killing-basis-5": lambda contexts: DiracContext(changed_algebra("sl3-killing", 5)),
    "sl3-killing-hostile": lambda contexts: DiracContext(hostile_changed_algebra("sl3-killing", 5)),
}


@pytest.mark.parametrize("case", V_CASES)
def test_v_is_the_reference_reconstruction_of_the_dense_three_form(contexts, case):
    """The context's v, built on integers from the adapted structure constants,
    against the reference reconstruction of -1/2 d_i [X_j, X_k]_i read
    densely on all m^3 triples.  The hostile case is sl(3) in a rational
    basis with its form scaled by 1/q, q of 4,000 digits."""
    ctx = V_CASES[case](contexts)
    gram = ctx.split.p_gram
    table = {
        (i, j, k): -Fraction(1, 2) * gram[i] * ctx.adapted.bracket_basis(j, k)[i]
        for i, j, k in itertools.product(range(ctx.m), repeat=3)
    }
    assert ctx.v == reference_multivector_from_trilinear(ctx.space, table)


def test_scalar_part_and_is_scalar(space2):
    a = space2.scalar(Fraction(5, 3)) + space2.blade((0, 1), Fraction(2))
    assert scalar_part(a) == Fraction(5, 3)
    assert not is_scalar(a)
    assert is_scalar(space2.scalar(Fraction(-4)))
    assert is_scalar(space2.zero())


def test_twisted_commutator_with_unit_vanishes(space3):
    v = space3.blade((0, 1, 2), Fraction(2, 3))
    assert twisted_commutator(v, space3.one()).is_zero()


def reference_twisted_commutator(v, a):
    """v a - kappa(a) v through two generic products: the reference for the one-pass kernel."""
    return v * a - grade_involution(a) * v


def assert_twist_matches_the_reference(v, a):
    got = twisted_commutator(v, a).terms
    assert got == reference_twisted_commutator(v, a).terms
    assert all(type(c) is Fraction and c for c in got.values())


def graded_multivector(space, rng, terms, parity):
    """A coprime_multivector on blades of one parity."""
    masks = [m for m in range(1 << space.dim) if m.bit_count() & 1 == parity]
    return Multivector(
        space,
        {rng.choice(masks): Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), d) for d in rng.sample(PRIMES, terms)},
    )


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("kind", ("odd", "even", "inhomogeneous"))
def test_twisted_commutator_matches_the_two_products(m, kind):
    """Any v, over coprime denominators up to 97 and a Gram with denominators 2..m+1."""
    space = CliffordSpace(mixed_gram(m))
    rng = random.Random(f"twist-{kind}-{m}")
    scalar = Multivector(space, {0: Fraction(-7, 97)})
    for _ in range(20):
        if kind == "inhomogeneous":
            v = graded_multivector(space, rng, rng.randint(1, 4), 1) + graded_multivector(space, rng, rng.randint(1, 4), 0)
            assert {mask.bit_count() & 1 for mask in v.terms} == {0, 1}
        else:
            v = graded_multivector(space, rng, rng.randint(1, 8), kind == "odd")
        a = coprime_multivector(space, rng, rng.randint(1, 8))
        for x in (a, v, scalar, space.zero()):
            assert_twist_matches_the_reference(v, x)
        assert_twist_matches_the_reference(space.zero(), a)
        assert_twist_matches_the_reference(scalar, a)


def test_twisted_commutator_that_cancels_completely_is_zero():
    """x = 9/28 e1 + 1/7 e2 with Grams 2/3 and -27/8 squares to 0, so for odd x
    d_x(x) = 2 x^2 = 0 and d_x(d_x(z)) = [x^2, z] = 0 while d_x(z) is not."""
    space = CliffordSpace((Fraction(2, 3), Fraction(-27, 8), Fraction(5, 11)))
    x = Multivector(space, {1: Fraction(9, 28), 2: Fraction(1, 7)})
    assert twisted_commutator(x, x).terms == {}
    z = coprime_multivector(space, random.Random(7), 6)
    dz = twisted_commutator(x, z)
    assert dz.terms and dz == reference_twisted_commutator(x, z)
    assert twisted_commutator(x, dz).terms == {}
    assert reference_twisted_commutator(x, dz).terms == {}


@pytest.mark.parametrize("twisted", (False, True))
def test_accumulating_overlap_sums_scale_the_product(twisted):
    """`_overlap_sums` with scale s and an empty table gives s times the
    product (the twisted commutator when twisted) once the table is scaled,
    and a second call adds its own scale times its product into the same
    table."""
    space = CliffordSpace(mixed_gram(4))
    rng = random.Random(f"accumulate-{twisted}")

    def product(x, y):
        """x y, or x y - kappa(y) x, through the blade loop over Q."""
        out = reference_product_over_q(x, y)
        return out - reference_product_over_q(grade_involution(y), x) if twisted else out

    for _ in range(20):
        a, b, c = (coprime_multivector(space, rng, rng.randint(1, 6)) for _ in range(3))
        (den_a, left), (den_b, right), (den_c, third) = map(_integer_terms, (a.terms, b.terms, c.terms))
        for s in (1, -1, 6, -35):
            table = _overlap_sums(left, right, twisted, {}, s)
            assert space._scale_overlaps(table, den_a * den_b) == (s * product(a, b)).terms
        table = _overlap_sums(left, right, twisted, {}, 5 * den_c)
        assert _overlap_sums(left, third, twisted, table, -3 * den_b) is table
        expected = 5 * product(a, b) - 3 * product(a, c)
        assert space._scale_overlaps(table, den_a * den_b * den_c) == expected.terms


def reference_product_over_q(a, b):
    """a * b with every blade pair scaled by Q, the product of all Gram denominators.

    Q times a Gram product is the product of the numerators in the overlap
    and the denominators outside it, an integer, so each sum is over
    D_a D_b Q and becomes one Fraction per blade.  The product kernel sums
    per overlap instead; this loop is its reference.
    """
    space = a.space
    q = math.prod(d.denominator for d in space.gram)
    den_a, left = _integer_terms(a.terms)
    den_b, right = _integer_terms(b.terms)
    scaled: dict[int, int] = {}
    out: dict[int, int] = {}
    for ma, na in left:
        p = _swap_prefix(ma)
        for mb, nb in right:
            overlap = ma & mb
            if overlap not in scaled:
                scaled[overlap] = math.prod(
                    d.numerator if overlap >> i & 1 else d.denominator for i, d in enumerate(space.gram)
                )
            c = na * nb * scaled[overlap]
            mask = ma ^ mb
            out[mask] = out.get(mask, 0) + (-c if (p & mb).bit_count() & 1 else c)
    return Multivector(space, {mask: Fraction(n, den_a * den_b * q) for mask, n in out.items() if n})


def test_products_stay_off_q_on_a_hostile_non_abelian_algebra():
    """sl2xsl2-diagonal in the seeded basis of changed_basis(g, 7), its form
    scaled by 1/q for a seeded q of 4,000 digits.

    The adapted Gram entries then carry q, and Q, the product of their
    denominators, has about 24,000 digits.  v * v and d_v(e_a) on every
    generator must equal their references, and v * v, which sums per
    overlap, must take at most 2/3 of the time of the product over Q: the
    best of three runs took about 0.35 of one reference run on a 2-vCPU VM
    with Python 3.11.
    """
    g = catalog_entry("sl2xsl2-diagonal").algebra
    table, form = changed_basis(g, 7)
    q = random.Random("hostile-sl2xsl2").randrange(10**3999, 10**4000)
    algebra = QuadraticLieAlgebra("sl2xsl2-hostile", g.labels, table, form.scaled(Fraction(1, q)))
    ctx = DiracContext(algebra)
    v, space = ctx.v, ctx.space
    assert math.prod(d.denominator for d in space.gram).bit_length() > 20000 * math.log2(10)

    start = time.perf_counter()
    reference = reference_product_over_q(v, v)
    reference_s = time.perf_counter() - start
    assert v * v == reference
    for a in range(space.dim):
        e = space.generator(a)
        assert twisted_commutator(v, e) == reference_twisted_commutator(v, e)
    assert best_of_three(lambda: v * v) <= 2 / 3 * reference_s


def test_spin_lift_of_a_rotation():
    space = CliffordSpace((Fraction(1), Fraction(1)))
    rotation = Matrix([[0, -1], [1, 0]])
    alpha = spin_lift(space, rotation)
    assert alpha == space.blade((0, 1), Fraction(-1, 2))
    for i in range(2):
        x = space.generator(i)
        image = space.vector(rotation.column(i))
        assert alpha * x - x * alpha == image


def test_spin_lift_defining_property_in_higher_dimension():
    space = CliffordSpace((Fraction(2), Fraction(3), Fraction(6)))
    a = Matrix([
        [0, -3, 0],
        [2, 0, 0],
        [0, 0, 0],
    ])
    gram = Matrix([[2, 0, 0], [0, 3, 0], [0, 0, 6]])
    product = gram @ a
    assert product.transpose() == product.scaled(Fraction(-1))
    alpha = spin_lift(space, a)
    assert alpha.degrees() <= {2}
    for i in range(3):
        x = space.generator(i)
        image = space.vector(a.column(i))
        assert alpha * x - x * alpha == image


def test_spin_lift_rejects_non_orthogonal_matrix():
    space = CliffordSpace((Fraction(1), Fraction(1)))
    with pytest.raises(ContractViolation):
        spin_lift(space, Matrix([[1, 0], [0, 1]]))


def reference_spin_lift(space, a):
    """alpha from the commutator equations [alpha, e_l] = A e_l, solved as a
    linear system over the C(m, 2) blades e_i e_j: the reference for the
    closed form."""
    m = space.dim
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if not pairs:
        if any(a.entry(i, j) for i in range(m) for j in range(m)):
            raise ContractViolation("no degree-2 element can realize this action")
        return space.zero()
    columns_of = []
    for i, j in pairs:
        blade = space.blade((i, j))
        cols_for_pair = []
        for l in range(m):
            gen = space.generator(l)
            com = blade * gen - gen * blade
            cols_for_pair.append([com.terms.get(1 << t, Fraction(0)) for t in range(m)])
        columns_of.append(cols_for_pair)
    rows = []
    rhs = []
    for l in range(m):
        for t in range(m):
            rows.append([columns_of[u][l][t] for u in range(len(pairs))])
            rhs.append(a.entry(t, l))
    sol = solve_linear(Matrix(rows, cols=len(pairs)), rhs)
    if sol is None:
        raise ContractViolation("commutator system is inconsistent")
    return Multivector(space, {(1 << i) | (1 << j): c for (i, j), c in zip(pairs, sol.vector) if c})


def random_so_matrix(gram, rng, density):
    """A = Gram^-1 S for a random antisymmetric S, so Gram * A is antisymmetric."""
    m = len(gram)
    s = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                s[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                s[j][i] = -s[i][j]
    return Matrix([[s[i][j] / gram[i] for j in range(m)] for i in range(m)], cols=m)


@pytest.mark.parametrize("m", range(2, 6))
def test_spin_lift_matches_the_linear_system(m):
    """The closed form against the solved commutator system, on Grams of both
    signs with non-unit entries, dense and sparse so(Gram) matrices."""
    rng = random.Random(f"spin-lift-{m}")
    grams = (mixed_gram(m), tuple(Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 5)) for _ in range(m)))
    for gram in grams:
        space = CliffordSpace(gram)
        for density in (1.0, 0.5, 0.2):
            for _ in range(5):
                a = random_so_matrix(space.gram, rng, density)
                assert spin_lift(space, a).terms == reference_spin_lift(space, a).terms


def test_spin_lift_in_dimension_one():
    space = CliffordSpace((Fraction(-3, 2),))
    assert spin_lift(space, Matrix([[0]])) == space.zero()
    assert reference_spin_lift(space, Matrix([[0]])) == space.zero()
    with pytest.raises(ContractViolation):
        spin_lift(space, Matrix([[Fraction(1, 2)]]))
