"""Shared fixtures: session-scoped caches for contexts and suite runs.

The larger algebras (dimension 8, Clifford dimension 256) are expensive
enough that reconstructing them per test would dominate the run; the caches
hand out the same immutable objects everywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from cubicdirac import DiracContext, QuadraticLieAlgebra, catalog_entry
from cubicdirac.clifford import Multivector, _swap_prefix
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import MultilinearMap, _canonical_part
from cubicdirac.linalg import ZERO, Matrix, _echelon, as_scalar, rank
from cubicdirac.suite import run_suite


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(s == i)) for s in range(n))


def form_value(g: QuadraticLieAlgebra, x, y) -> Fraction:
    """B(x, y) = x^T B y, read off g.form."""
    return sum((xi * c for xi, c in zip(x, g.form.mat_vec(y))), Fraction(0))


def invert(a: Matrix) -> Matrix:
    """A^-1 by Gauss-Jordan elimination of [A | I]."""
    if a.rows != a.cols:
        raise ContractViolation("only square matrices can be inverted")
    n = a.rows
    aug = [list(a.row(i)) + list(Matrix.identity(n).row(i)) for i in range(n)]
    if len(_echelon(aug, n)) != n:
        raise ContractViolation("matrix is singular")
    return Matrix([row[n:] for row in aug], cols=n)


def abelian_named_sl2() -> QuadraticLieAlgebra:
    """A 3-dimensional abelian algebra that borrows catalog sl(2)'s name.

    Carriers are compared by identity, so its elements must never mix with
    sl(2)'s even though the names agree.
    """
    return QuadraticLieAlgebra("sl2-killing", ("a", "b", "c"), {}, Matrix.identity(3))


def tstar_heisenberg() -> QuadraticLieAlgebra:
    """T*-extension of the Heisenberg algebra: g = heis + heis* with the dual pairing.

    [x, y] = z, [x, z*] = -y*, [y, z*] = x*, and B pairs each basis vector
    with its dual.  The form is split, so its adapted basis has Grams 2 and
    -1/2 and non-integer structure constants.
    """
    n = 6
    brackets = {(0, 1): (0, 0, 1, 0, 0, 0), (0, 5): (0, 0, 0, 0, -1, 0), (1, 5): (0, 0, 0, 1, 0, 0)}
    form = Matrix([[int(abs(i - j) == 3) for j in range(n)] for i in range(n)], cols=n)
    return QuadraticLieAlgebra("tstar-heisenberg", ("x", "y", "z", "x*", "y*", "z*"), brackets, form)


def reference_pbw_normalize(algebra: QuadraticLieAlgebra, raw: dict) -> dict:
    """The PBW normal form by Fraction arithmetic, reading each bracket through `bracket_sparse`.

    This is the body `envelope.pbw_normalize` had before the rewriting ran
    on integers; the integer rewriter is compared with it.
    """
    out: dict = {}
    stack = [(tuple(m), as_scalar(c)) for m, c in raw.items()]
    while stack:
        mono, coeff = stack.pop()
        if not coeff:
            continue
        for t in range(len(mono) - 1):
            if mono[t] > mono[t + 1]:
                j, i = mono[t], mono[t + 1]
                stack.append((mono[:t] + (i, j) + mono[t + 2 :], coeff))
                for k, c in algebra.bracket_sparse(j, i):
                    stack.append((mono[:t] + (k,) + mono[t + 2 :], coeff * c))
                break
        else:
            acc = out.get(mono, ZERO) + coeff
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
    return out


def pbw_from_vector(algebra: QuadraticLieAlgebra, coords) -> PBWElement:
    """The degree-1 element of U(g) with the given coordinates."""
    (coords,) = algebra._coordinates(coords)
    return PBWElement(algebra, {(i,): c for i, c in enumerate(coords) if c})


def casimir_element(algebra: QuadraticLieAlgebra) -> PBWElement:
    """Casimir sum(X_i X^i) of an algebra whose basis is B-orthogonal.

    With d the diagonal of the form, X^i = X_i / d_i and X_i X_i is already
    in PBW order, so Omega = sum (1/d_i) X_i X_i needs no product.  A form
    that is not diagonal is rejected: the dual-basis formula needs an
    orthogonal basis, which `orthogonal_split` provides.
    """
    if not algebra.form.is_diagonal():
        raise ContractViolation("the basis is not orthogonal; take the adapted algebra of a split")
    return PBWElement(algebra, {(i, i): 1 / d for i, d in enumerate(algebra.form.diagonal())})


def blade_clifford(space, ma: int, mb: int):
    """e_A e_B = +-(the Gram product of A & B) e_{A ^ B}, with the sign the product kernels take."""
    coeff = space._gram_product(ma & mb)
    return (-coeff if (_swap_prefix(ma) & mb).bit_count() & 1 else coeff), ma ^ mb


def contract(x: Multivector, w: Multivector) -> Multivector:
    """iota(x) w for degree-1 x: the B-transpose of wedging by x.

    On blades: iota(e_i) kills blades without i, and removes i with the sign
    of its position and a factor d_i otherwise.  It is an odd derivation of
    the exterior algebra.
    """
    if any(m.bit_count() != 1 for m in x.terms):
        raise ContractViolation("contraction direction must have pure degree 1")
    x._check(w)
    space = x.space
    out: dict[int, Fraction] = {}
    for mx, cx in x.terms.items():
        d = space.gram[mx.bit_length() - 1]
        for mw, cw in w.terms.items():
            if mw & mx:
                sign = -1 if (mw & (mx - 1)).bit_count() & 1 else 1
                out[mw ^ mx] = out.get(mw ^ mx, Fraction(0)) + sign * cx * cw * d
    return Multivector(space, out)


def pairing(a: Multivector, b: Multivector) -> Fraction:
    """The extended pairing: B extended to blades by Gram determinants, diagonal here."""
    a._check(b)
    return sum((ca * b.terms.get(m, 0) * a.space._gram_product(m) for m, ca in a.terms.items()), Fraction(0))


def grade_involution(a: Multivector) -> Multivector:
    """kappa(a): the automorphism acting by (-1)^k on degree k."""
    return Multivector(a.space, {m: (-c if m.bit_count() & 1 else c) for m, c in a.terms.items()})


def is_alternating(w: MultilinearMap) -> bool:
    """Whether w's table is alternating, as `forms._canonical_part` decides."""
    return _canonical_part(w.terms) is not None


def random_basis(n: int, seed) -> Matrix:
    """A seeded invertible n x n matrix with entries a/b, |a| <= 2 and 1 <= b <= 4."""
    rng = random.Random(seed)
    while True:
        p = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            return p


def changed_basis(g, seed):
    """g's bracket table and form in a seeded random basis of Q^n.

    The new basis vectors are the columns of random_basis(n, seed), so the
    structure constants and the form, which is not diagonal, have
    denominators.
    """
    n = g.dim
    p = random_basis(n, seed)
    inverse, cols = invert(p), p.columns()
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = g.bracket(cols[i], cols[j])
            if any(br):
                table[(i, j)] = inverse.mat_vec(br)
    return table, p.transpose() @ g.form @ p


def changed_algebra(name: str, seed: int) -> QuadraticLieAlgebra:
    """Catalog entry `name` as an algebra in the basis of changed_basis(g, seed)."""
    g = catalog_entry(name).algebra
    table, form = changed_basis(g, seed)
    return QuadraticLieAlgebra(f"{name}-basis-{seed}", g.labels, table, form)


def hostile_changed_algebra(name: str, seed: int) -> QuadraticLieAlgebra:
    """Catalog entry `name` in the basis of changed_basis(g, seed), its form
    scaled by 1/q for q of 4,000 digits drawn from random.Random(f"hostile-{name}")."""
    g = catalog_entry(name).algebra
    table, form = changed_basis(g, seed)
    q = random.Random(f"hostile-{name}").randrange(10**3999, 10**4000)
    return QuadraticLieAlgebra(f"{name}-hostile", g.labels, table, form.scaled(Fraction(1, q)))


def hostile_form(n=16, digits=4000, seed=16):
    """A diagonal n x n form with entries 1/q, for distinct seeded q of `digits` digits."""
    rng = random.Random(seed)
    qs = set()
    while len(qs) < n:
        qs.add(rng.randrange(10 ** (digits - 1), 10**digits))
    return Matrix([[Fraction(1, q) if i == j else Fraction(0) for j in range(n)] for i, q in enumerate(sorted(qs))])


def best_of_three(f):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="session")
def contexts():
    cache: dict = {}

    def get(name: str, with_subalgebra: bool = False, variant: int = 0) -> DiracContext:
        key = (name, with_subalgebra, variant)
        if key not in cache:
            entry = catalog_entry(name)
            sub = entry.subalgebra if with_subalgebra else ()
            cache[key] = DiracContext(entry.algebra, sub, p_variant=variant)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def suite_reports():
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            entry = catalog_entry(name)
            cache[name] = run_suite(entry.algebra, entry.subalgebra)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def sl3_triple_context():
    """sl(3) split along an sl(2) triple: the non-symmetric relative case."""
    entry = catalog_entry("sl3-killing")
    sub = (unit_vector(8, 0), unit_vector(8, 3), unit_vector(8, 5))
    return DiracContext(entry.algebra, sub)
