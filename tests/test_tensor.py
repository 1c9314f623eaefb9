"""Super tensor products U(g) (x) C(V) and the graded triple over C(h_perp + h).

A graded triple U(g) x C(h_perp) (x)bar C(h) is stored over the concatenated
Clifford space: the term (mono, p, h) is the key (mono, p | h << m).  The
tests below build triples that way over the Grams (2, 3, 5), so m = 2 and
the h generator is bit 2, and compare the merged product with the
two-factor product and its Koszul sign.

The product itself is an integer kernel; `reference_tensor_mul` keeps the
Fraction product it replaced, one PBW normalisation per term pair by the
Fraction rewriter `conftest.reference_pbw_normalize`, and the kernel is
compared with it on seeded operands.

The product takes at most one bracket, as every product of the checks
does: the seeded operands of a product are drawn with U-degrees bounded by
one of `CONTRACT_DEGREES`, so that only two generators are ever out of PBW
order.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    abelian_named_sl2,
    best_of_three,
    blade_clifford,
    changed_algebra,
    hostile_changed_algebra,
    hostile_form,
    reference_pbw_normalize,
    tensor_from_parts,
)
from cubicdirac import clifford, tensor
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import CliffordSpace, _overlap_sums
from cubicdirac.dirac import DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.lie import QuadraticLieAlgebra
from cubicdirac.linalg import ZERO
from cubicdirac.tensor import TensorElement, TripleTensorElement


# U-degree bounds (left, right) of two operands whose product takes at most one bracket
CONTRACT_DEGREES = ((1, 1), (2, 0), (0, 2))


def _mono_mul(algebra, ma, mb) -> dict:
    return reference_pbw_normalize(algebra, {ma + mb: Fraction(1)})


def reference_tensor_mul(a, b):
    """a * b by Fraction arithmetic per term pair and per PBW monomial."""
    out: dict = {}
    for (ma, ka), ca in a.terms.items():
        for (mb, kb), cb in b.terms.items():
            bl_coeff, mask = blade_clifford(a.space, ka, kb)
            factor = ca * cb * bl_coeff
            if not factor:
                continue
            for mono, mc in _mono_mul(a.algebra, ma, mb).items():
                key = (mono, mask)
                acc = out.get(key, ZERO) + factor * mc
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
    return a._from_terms(a.carrier, out)


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
            p_coeff, pmask = blade_clifford(p_space, pa, pb)
            h_coeff, hmask = blade_clifford(h_space, ha, hb)
            factor = sign * ca * cb * p_coeff * h_coeff
            for mono, mc in _mono_mul(algebra, ma, mb).items():
                key = (mono, pmask, hmask)
                out[key] = out.get(key, 0) + factor * mc
    return {key: c for key, c in out.items() if c}


def elem(algebra, space, i, indices, coeff=1):
    """X_i (x) (blade on indices), the building block for these tests."""
    u = PBWElement.generator(algebra, i) if i is not None else PBWElement.one(algebra)
    return tensor_from_parts(u, space.blade(indices, Fraction(coeff)))


def test_unit_acts_as_identity(abelian2, space):
    one = TensorElement.one(abelian2, space)
    a = elem(abelian2, space, 0, (1,), coeff=3)
    assert one * a == a
    assert a * one == a


def test_square_of_odd_simple_tensor(abelian2, space):
    """(X (x) e1)^2 = X^2 (x) d1, the sign-free case of the super product."""
    a = elem(abelian2, space, 0, (0,))
    x = PBWElement.generator(abelian2, 0)
    expected = tensor_from_parts(x * x, space.scalar(Fraction(2)))
    assert a * a == expected


def test_product_of_distinct_odd_tensors(abelian2, space):
    a = elem(abelian2, space, 0, (0,))
    b = elem(abelian2, space, 1, (1,))
    x, y = PBWElement.generator(abelian2, 0), PBWElement.generator(abelian2, 1)
    assert a * b == tensor_from_parts(x * y, space.blade((0, 1)))


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

    Seeded random operands over sl(2) (so the PBW factor takes brackets),
    for every m <= 3 and k <= 2, with Grams that are not units and have
    denominators.
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

            def operand(max_degree):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    mono = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(0, max_degree))))
                    key = (mono, rng.randrange(1 << m), rng.randrange(1 << k))
                    terms[key] = Fraction(rng.choice((-7, -2, -1, 1, 3, 5)), rng.randint(1, 6))
                return terms

            for _ in range(12):
                a, b = (operand(d) for d in rng.choice(CONTRACT_DEGREES))
                odd_pairs += sum(
                    (ha.bit_count() & 1) and (pb.bit_count() & 1) for (_, _, ha) in a for (_, pb, _) in b
                )
                expected = triple(sl2, full, m, koszul_product(sl2, p_space, h_space, a, b))
                product = triple(sl2, full, m, a) * triple(sl2, full, m, b)
                assert type(product) is TripleTensorElement
                assert product == expected
    assert odd_pairs > 0


def test_tensor_associativity_randomized(space):
    """Over sl(2), one factor of each triple of U-degree up to 1 and the others scalar in U(g)."""
    sl2 = catalog_entry("sl2-killing").algebra
    rng = random.Random(29)

    def random_tensor(max_degree):
        out = TensorElement.zero(sl2, space)
        for _ in range(3):
            word = [rng.randrange(3) for _ in range(rng.randint(0, max_degree))]
            u = PBWElement.one(sl2)
            for i in word:
                u = u * PBWElement.generator(sl2, i)
            mask = rng.randrange(4)
            indices = tuple(s for s in range(2) if mask >> s & 1)
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            out = out + tensor_from_parts(coeff * u, space.blade(indices))
        return out

    for _ in range(25):
        degree_one = rng.randrange(3)
        a, b, c = (random_tensor(int(t == degree_one)) for t in range(3))
        assert (a * b) * c == a * (b * c)


def test_triple_associativity_randomized(abelian2, full_space):
    """One factor of each triple of U-degree 1 and the others scalar in U(g)."""
    rng = random.Random(37)

    def random_triple(degree):
        terms = {}
        for _ in range(3):
            mono = (rng.randrange(2),) if degree else ()
            key = (mono, rng.randrange(4), rng.randrange(2))
            terms[key] = terms.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return triple(abelian2, full_space, 2, terms)

    for _ in range(25):
        degree_one = rng.randrange(3)
        a, b, c = (random_triple(t == degree_one) for t in range(3))
        assert (a * b) * c == a * (b * c)


def test_u_degree_filtration(abelian2, space):
    x = PBWElement.generator(abelian2, 0)
    a = tensor_from_parts(x * x, space.one()) + tensor_from_parts(x, space.generator(1))
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


def random_tensor_terms(rng, dim, blades, max_degree, count):
    """Seeded terms {(PBW monomial, blade): c}, the c of either sign and over denominators up to 12."""
    terms = {}
    for _ in range(count):
        mono = tuple(sorted(rng.randrange(dim) for _ in range(rng.randint(0, max_degree))))
        key = (mono, rng.randrange(blades))
        terms[key] = Fraction(rng.choice((-9, -4, -1, 1, 2, 7)), rng.choice((1, 2, 3, 5, 12)))
    return terms


def assert_kernel_is_the_reference(a, b):
    product = a * b
    assert type(product) is type(a)
    assert product.terms == reference_tensor_mul(a, b).terms
    return product


def is_inhomogeneous(t):
    """t has terms on blades of both parities."""
    return len({mask.bit_count() & 1 for _, mask in t.terms}) > 1


def test_kernel_matches_the_reference_over_prime_denominators_and_mixed_parity():
    """Grams over distinct primes, operands of both parities at once, over sl(2) and abelian2."""
    rng = random.Random(12)
    space = CliffordSpace((Fraction(2, 3), Fraction(-5, 7), Fraction(11, 13), Fraction(-1, 17)))
    inhomogeneous = 0
    for algebra in (catalog_entry("sl2-killing").algebra, catalog_entry("abelian2").algebra):
        for _ in range(30):
            a, b = (
                TensorElement(algebra, space, random_tensor_terms(rng, algebra.dim, 16, d, rng.randint(1, 6)))
                for d in rng.choice(CONTRACT_DEGREES)
            )
            inhomogeneous += is_inhomogeneous(a) and is_inhomogeneous(b)
            assert_kernel_is_the_reference(a, b)
    assert inhomogeneous > 10


def test_kernel_matches_the_reference_on_products_that_cancel():
    """Over Grams (d, -d), (e1 + e2)^2 = d - d: the overlaps {1} and {2} cancel on one key."""
    algebra = catalog_entry("sl2-killing").algebra
    space = CliffordSpace((Fraction(3, 5), Fraction(-3, 5), Fraction(7)))
    null = {((), 0b001): Fraction(1), ((), 0b010): Fraction(1)}
    x = TensorElement(algebra, space, null)
    assert assert_kernel_is_the_reference(x, x).is_zero()
    # X_e (x) (e1 + e2) times X_f (x) (e1 + e2): the blade factor is 0, the U factor is not
    xe = TensorElement(algebra, space, {((0,), k): c for (_, k), c in null.items()})
    xf = TensorElement(algebra, space, {((2,), k): c for (_, k), c in null.items()})
    assert assert_kernel_is_the_reference(xe, xf).is_zero()
    # [X_h (x) 1, X_e (x) 1] = 2 X_e (x) 1: the degree-2 monomials cancel, the bracket stays
    xh, xe1 = (TensorElement(algebra, space, {((i,), 0): Fraction(1)}) for i in (1, 0))
    assert assert_kernel_is_the_reference(xh, xe1) - assert_kernel_is_the_reference(xe1, xh) == 2 * xe1
    # a product with zero is zero on either side
    half = TensorElement(algebra, space, {((0, 2), 0b100): Fraction(1, 2)})
    assert (half * TensorElement.zero(algebra, space)).is_zero()
    assert (TensorElement.zero(algebra, space) * half).is_zero()


def test_kernel_matches_the_reference_on_the_diagonal_embedding_powers(contexts, sl3_triple_context):
    """Delta(Y_i) Delta(Y_j), the images _embed_h_tensor builds of D_h^2, on two pairs."""
    for ctx in (contexts("sl2xsl2-diagonal", with_subalgebra=True), sl3_triple_context):
        one = TensorElement.one(ctx.adapted, ctx.space)
        embedded = [ctx.diagonal_embedding(j) for j in range(ctx.k)]
        squares = [assert_kernel_is_the_reference(di, dj) for di in embedded for dj in embedded]
        assert max(len(mono) for p in squares for mono, _ in p.terms) == 2
        for dj in embedded:
            assert_kernel_is_the_reference(one, dj)
            assert_kernel_is_the_reference(dj, one)


def test_kernel_matches_the_reference_over_an_adapted_algebra_with_denominators():
    """sl(3) in a seeded rational basis, adapted: D^2, and random operands up to degree 2."""
    ctx = DiracContext(changed_algebra("sl3-killing", 3))
    g = ctx.adapted
    assert any(c.denominator > 1 for i in range(8) for j in range(8) for _, c in g.bracket_sparse(i, j))
    assert any(d.denominator > 1 for d in ctx.space.gram)
    assert_kernel_is_the_reference(ctx.dirac, ctx.dirac)
    rng = random.Random(13)
    for _ in range(6):
        a, b = (
            TensorElement(g, ctx.space, random_tensor_terms(rng, g.dim, 1 << ctx.m, d, rng.randint(1, 5)))
            for d in rng.choice(CONTRACT_DEGREES)
        )
        assert_kernel_is_the_reference(a, b)


def test_a_product_needing_more_than_one_bracket_is_refused():
    """Out of PBW order only two generators may meet.

    Over sl(2) (e, h, f), X_f times X_e X_h and X_h X_f times X_e would need
    a second bracket and are refused, naming the two U-degrees; X_e X_f
    times a U-scalar, in order, is a concatenation and matches the reference.
    """
    algebra = catalog_entry("sl2-killing").algebra
    space = CliffordSpace((Fraction(2, 3), Fraction(-5, 7)))

    def tensor(terms):
        return TensorElement(algebra, space, {key: Fraction(c) for key, c in terms.items()})

    for a, b, degrees in (
        (tensor({((2,), 0b01): 1}), tensor({((0, 1), 0b11): 3}), (1, 2)),
        (tensor({((1, 2), 0b10): -2}), tensor({((0,), 0b01): 1}), (2, 1)),
    ):
        named = "U-degree {} monomial times a U-degree {} monomial".format(*degrees)
        with pytest.raises(ContractViolation, match=named):
            a * b
    in_order = tensor({((0, 2), 0b01): Fraction(1, 2), ((1,), 0b11): 3})
    scalar = tensor({((), 0b10): Fraction(-4, 5), ((), 0): 1})
    assert assert_kernel_is_the_reference(in_order, scalar).u_degree_terms(2)
    assert assert_kernel_is_the_reference(scalar, in_order).u_degree_terms(2)


def test_triple_product_keeps_its_type(abelian2, full_space):
    x = triple(abelian2, full_space, 2, {((0,), 0b01, 1): 3, ((), 0b10, 0): -1})
    y = triple(abelian2, full_space, 2, {((1,), 0b11, 1): Fraction(1, 2)})
    product = assert_kernel_is_the_reference(x, y)
    assert type(product) is TripleTensorElement
    assert type(x * 2) is TripleTensorElement


def overlap_sums_with_one_overlap_negated(left, right, twisted, by_overlap, scale):
    """`clifford._overlap_sums` whose plain form adds the sums under the
    overlap e_1 (mask 1) negated; its twisted form is the kernel's."""
    if twisted:
        return _overlap_sums(left, right, True, by_overlap, scale)
    for overlap, sums in _overlap_sums(left, right, False, {}, scale).items():
        sign = -1 if overlap == 1 else 1
        table = by_overlap.setdefault(overlap, {})
        for mask, n in sums.items():
            table[mask] = table.get(mask, 0) + sign * n
    return by_overlap


def test_the_blade_pair_kernel_reaches_the_square_of_d(contexts, monkeypatch):
    """D^2 runs on the one blade-pair kernel, `clifford._overlap_sums`: with
    the sums under one overlap negated there, D^2 on sl(3) differs from the
    reference, whose blade products are `conftest.blade_clifford`'s."""
    d = contexts("sl3-killing").dirac
    reference = reference_tensor_mul(d, d)
    assert d * d == reference
    for module in (clifford, tensor):
        monkeypatch.setattr(module, "_overlap_sums", overlap_sums_with_one_overlap_negated)
    assert d * d != reference


def hostile_document_context():
    """The 16-dimensional abelian algebra with form entries 1/q, q of 4,000 digits."""
    form = hostile_form()
    return DiracContext(QuadraticLieAlgebra("hostile", tuple(f"x{i}" for i in range(form.rows)), {}, form))


def test_hostile_numbers_stay_cheap():
    """D^2 with 4,000-digit Grams: the kernel keeps the Grams per overlap.

    Scaling every numerator by the product of the 16 Gram denominators, a
    64,000-digit integer, makes D^2 several times slower than the
    reference; the kernel may take at most twice the reference's time.
    """
    ctx = hostile_document_context()
    d = ctx.dirac
    square = d * d
    assert square == reference_tensor_mul(d, d)
    assert ctx.c_value() == 0
    assert best_of_three(lambda: d * d) <= 2 * best_of_three(lambda: reference_tensor_mul(d, d))


def test_hostile_non_abelian_square_stays_cheap():
    """D^2 on sl(3) in a rational basis with its form scaled by 1/q, q of
    4,000 digits: the Gram denominators carry q, and the brackets rewrite.

    Each key is put over the lcm of the Gram denominators that reach it,
    not over the lcm of all of them; the kernel must equal the reference
    and take at most twice its time (one run each, the reference taking
    several seconds).
    """
    ctx = DiracContext(hostile_changed_algebra("sl3-killing", 5))
    d = ctx.dirac
    start = time.perf_counter()
    square = d * d
    kernel_s = time.perf_counter() - start
    start = time.perf_counter()
    reference = reference_tensor_mul(d, d)
    reference_s = time.perf_counter() - start
    assert square == reference
    assert kernel_s <= 2 * reference_s
