"""Shared fixtures: session-scoped caches for contexts and suite runs.

The larger algebras (dimension 8, Clifford dimension 256) are expensive
enough that reconstructing them per test would dominate the run; the caches
hand out the same immutable objects everywhere.

The module also keeps the reference oracles the package is compared with,
most of them bodies the package once had: the Fraction PBW rewriter, the
Casimir, h as an algebra validated on its own, the matrix nu(Y) of ad Y on
h_perp with its spin lift, the multilinear map type with the operators d,
theta_X and iota_X on it, the 3-form <v, .^.^.> of a 3-vector, the
Fraction face of the v kernel, the tensor element u (x) c built from a
PBW element and a multivector, and the dv-* laws on elements.  It also
keeps the fault of the blade-pair kernel with the twist sign dropped, and a
counter of Fraction arithmetic.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from cubicdirac import DiracContext, QuadraticLieAlgebra, catalog_entry, clifford, dirac, forms, tensor
from cubicdirac.clifford import (
    CliffordSpace,
    Multivector,
    _multivector_from_numerators,
    _swap_prefix,
    twisted_commutator,
)
from cubicdirac.dirac import CheckItem
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation, DegenerateFormError
from cubicdirac.forms import _canonical_part
from cubicdirac.lie import OrthogonalSplit
from cubicdirac.linalg import ONE, ZERO, Matrix, _echelon, as_scalar, nullspace, rank
from cubicdirac.sparse import LinearCombination, _fractions_over, _integer_terms
from cubicdirac.suite import run_suite
from cubicdirac.tensor import TensorElement


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(s == i)) for s in range(n))


# the sl(2) triple e12, h1, f12 of catalog sl(3)
SL3_TRIPLE = (unit_vector(8, 0), unit_vector(8, 3), unit_vector(8, 5))


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


def reference_diagonalize_form(b: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """(P, d) with P^T B P = diag(d) by symmetric Gaussian reduction in Fraction arithmetic.

    The body `linalg.diagonalize_form` had before it ran on integers: every
    column operation is applied to B's columns and mirrored on its rows, and
    an all-zero remaining diagonal is repaired by adding a column with
    nonzero coupling onto the pivot column.
    """
    if b.rows != b.cols:
        raise ContractViolation("form matrix must be square")
    if not b.is_symmetric():
        raise ContractViolation("form matrix must be symmetric")
    n = b.rows
    m = [list(b.row(i)) for i in range(n)]
    p = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    def add_col(dst, src, c):
        # col_dst += c * col_src, mirrored on rows to stay congruent
        for r in range(n):
            if m[r][src]:
                m[r][dst] += c * m[r][src]
        for q in range(n):
            if m[src][q]:
                m[dst][q] += c * m[src][q]
        for r in range(n):
            if p[r][src]:
                p[r][dst] += c * p[r][src]

    for r in range(n):
        if m[r][r] == 0:
            pivot = next((j for j in range(r + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap_cols(r, pivot)
            else:
                pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n) if m[i][j] != 0), None)
                if pair is None:
                    kernel = nullspace(b)
                    raise DegenerateFormError("form is degenerate", witness=kernel[0] if kernel else None)
                i, j = pair
                add_col(i, j, ONE)
                if i != r:
                    swap_cols(r, i)
        piv = m[r][r]
        for j in range(r + 1, n):
            if m[r][j] != 0:
                add_col(j, r, -m[r][j] / piv)

    d = tuple(m[i][i] for i in range(n))
    return Matrix(p, cols=n), d


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


def reference_subalgebra_as_algebra(split: OrthogonalSplit) -> QuadraticLieAlgebra:
    """h as a standalone quadratic Lie algebra in its orthogonal basis, validated.

    A Fraction table read off the adapted algebra's brackets on h, put
    through the constructor, which checks Jacobi, non-degeneracy and
    ad-invariance: the reference for `OrthogonalSplit.subalgebra_as_algebra`,
    which restricts the adapted integer structure and validates nothing.
    """
    m, k = split.p_dim, split.h_dim
    brackets = {(i, j): split.adapted.bracket_basis(m + i, m + j)[m:] for i in range(k) for j in range(i + 1, k)}
    form = Matrix([[split.h_gram[i] if i == j else ZERO for j in range(k)] for i in range(k)], cols=k)
    labels = tuple(f"h{i + 1}" for i in range(k))
    return QuadraticLieAlgebra(f"{split.ambient.name}|h", labels, brackets, form)


def subalgebra_action(split: OrthogonalSplit, j: int) -> Matrix:
    """nu(Y_j): the matrix of ad(Y_j) restricted to h_perp, in the orthogonal p-basis.

    Y_j is the j-th orthogonal basis vector of h, the adapted basis vector
    m + j, so column i is the bracket [Y_j, X_i] read off the adapted
    algebra.  `orthogonal_split` has checked that [h, h_perp] lies in
    h_perp; that the result lies in so of the diagonal Gram is checked by
    `spin_lift`, which takes it.  With `spin_lift` it is the reference for
    the lift `DiracContext.diagonal_embedding` reads off the bracket
    coproduct.
    """
    if not 0 <= j < split.h_dim:
        raise ContractViolation("subalgebra basis index out of range")
    m = split.p_dim
    cols = []
    for i in range(m):
        acc = [ZERO] * m
        for t, b in split.adapted.bracket_sparse(m + j, i):
            acc[t] = b
        cols.append(tuple(acc))
    return Matrix.from_columns(cols, rows=m)


def spin_lift(space: CliffordSpace, a: Matrix) -> Multivector:
    """The degree-2 Clifford element alpha with [alpha, x] = A x on degree 1.

    A must be in so of the Gram (Gram * A antisymmetric).  Since
    [e_i e_j, e_l] = 2 d_l (delta_jl e_i - delta_il e_j), the element is
    alpha = sum_{i<j} A_ij / (2 d_j) e_i e_j: its commutator with e_l has
    A_il on e_i for i < l, and -2 d_l A_li / (2 d_i) = A_il for i > l by
    the so condition.  alpha is re-verified on every generator.
    """
    m = space.dim
    if a.rows != m or a.cols != m:
        raise ContractViolation("matrix shape does not match the space")
    for i in range(m):
        for j in range(m):
            if space.gram[i] * a.entry(i, j) != -space.gram[j] * a.entry(j, i):
                raise ContractViolation("matrix is not in so of the Gram")
    alpha = Multivector(
        space,
        {(1 << i) | (1 << j): a.entry(i, j) / (2 * space.gram[j]) for i in range(m) for j in range(i + 1, m)},
    )
    for l in range(m):
        gen = space.generator(l)
        if alpha * gen - gen * alpha != space.vector(a.column(l)):
            raise ContractViolation("internal: spin lift failed re-verification")
    return alpha


class MultilinearMap(LinearCombination):
    """A map of arity k on an algebra as its nonzero entries {index tuple: Fraction}.

    The map type the package had before its cohomology items ran on
    integer kernels; the oracles below take and return it, and maps of
    different algebras or arities do not mix.
    """

    __slots__ = ("algebra", "arity")
    carrier_fields = ("algebra", "arity")

    def __init__(self, algebra: QuadraticLieAlgebra, arity: int, values):
        self.algebra = algebra
        self.arity = arity
        self.terms = {tuple(key): as_scalar(val) for key, val in values.items() if val}

    @classmethod
    def from_matrix(cls, algebra: QuadraticLieAlgebra, mat: Matrix) -> "MultilinearMap":
        return cls(algebra, 2, {(i, j): mat.entry(i, j) for i in range(mat.rows) for j in range(mat.cols)})


def kernel_differential(w: MultilinearMap) -> MultilinearMap:
    """d w through the kernel `forms._d_scatter`, read off the module at each
    call so that a fault patched into forms reaches it, over the algebra's
    integer structure, so that a corrupted preimage index reaches it too.

    It is the path the cohomology items take, and the d their references
    share with them.  The reference d itself is compared with is the
    gather form `test_forms.dense_differential`.
    """
    g = w.algebra
    den, entries = _integer_terms(w.terms)
    den_g, _, preimage = g._integer_structure
    out = _fractions_over(forms._d_scatter(entries, preimage), den * den_g)
    return MultilinearMap._from_terms((g, w.arity + 1), out)


def form_of_trivector(algebra: QuadraticLieAlgebra, v: Multivector) -> MultilinearMap:
    """<v, .^.^.> as an arity-3 map: `pairing(v, e_i^e_j^e_k)` on each
    increasing triple, spread over its orderings with their signs."""
    space = v.space
    out = {}
    for triple in combinations(range(space.dim), 3):
        val = pairing(v, space.blade(triple))
        for order in permutations(triple):
            out[order] = (-1) ** sum(a > b for a, b in combinations(order, 2)) * val
    return MultilinearMap(algebra, 3, out)


def multivector_from_trilinear(space: CliffordSpace, table: dict) -> Multivector:
    """The degree-3 v with <v, x^y^z> = t(x, y, z) for the table
    t = {(i, j, k): value}: its nonzero entries over one common denominator,
    through the kernel `_multivector_from_numerators` with unit weights,
    which checks that t is alternating."""
    den, numerators = _integer_terms({key: as_scalar(val) for key, val in table.items() if val})
    return _multivector_from_numerators(space, dict(numerators), den, (Fraction(1),) * space.dim)


def lie_action(x, w: MultilinearMap) -> MultilinearMap:
    """theta_X w: the natural action, inserting [X, .] slot by slot.

    It runs the theta kernels the cohomology items run, `forms._ad_rows`
    and `forms._theta_scatter`, read off the module at each call so that a
    fault patched into `forms` reaches it too.
    """
    g = w.algebra
    (x,) = g._coordinates(x)
    den_x, support = _integer_terms({a: xa for a, xa in enumerate(x) if xa})
    den_g, ad, _ = g._integer_structure
    den, entries = _integer_terms(w.terms)
    out = _fractions_over(forms._theta_scatter(entries, forms._ad_rows(support, ad)), den * den_x * den_g)
    return MultilinearMap._from_terms((g, w.arity), out)


def _iota_buckets(entries) -> dict[int, dict]:
    """{a: {rest: n}}: the (key, n) entries grouped by key[0] = a, keyed by key[1:].

    iota_X w is the sum over a of X's coordinate a times bucket a.
    """
    out: dict[int, dict] = {}
    for key, val in entries:
        out.setdefault(key[0], {})[key[1:]] = val
    return out


def insert_first(x, w: MultilinearMap) -> MultilinearMap:
    """iota_X w = w(X, ...); defined for arity >= 1.  The one reader of `_iota_buckets`."""
    if w.arity == 0:
        raise ContractViolation("cannot contract an arity-0 map")
    g = w.algebra
    (x,) = g._coordinates(x)
    # only the entries whose first index is in the support of X, and only
    # the coordinates of X they read, are brought to integers
    picked = {key: val for key, val in w.terms.items() if x[key[0]]}
    if not picked:
        return MultilinearMap._from_terms((g, w.arity - 1), {})
    den_x, coords = _integer_terms({key[0]: x[key[0]] for key in picked})
    den, entries = _integer_terms(picked)
    buckets = _iota_buckets(entries)
    out: dict = {}
    for a, xa in coords:
        for rest, val in buckets[a].items():
            out[rest] = out.get(rest, 0) + xa * val
    return MultilinearMap._from_terms((g, w.arity - 1), _fractions_over(out, den * den_x))


def tensor_from_parts(u: PBWElement, c: Multivector) -> TensorElement:
    """u (x) c: the tensor element with coefficient c_u c_c on each (monomial, blade) pair."""
    terms = {(mono, mask): cu * cc for mono, cu in u.terms.items() for mask, cc in c.terms.items()}
    return TensorElement(u.algebra, c.space, terms)


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


def generator_dv_law_items(space, v, v2, dv, labels, d_v=twisted_commutator):
    """`dv-derivation-law` and `dv-square-is-v2-bracket` on the generators, on elements.

    The body `dirac._dv_law_items` had before it compared the laws on
    integer tables: d_v = d_v(v, .), v2 = v^2 and dv[a] = d_v(e_a), with
    d_v(e_i e_j) = d_v(e_i) e_j - e_i d_v(e_j) on every ordered pair and
    d_v(d_v(e_a)) = v2 e_a - e_a v2 on every a, each side a Multivector.
    """
    gens = [space.generator(a) for a in range(space.dim)]
    pairs = product(enumerate(gens), repeat=2)
    broken = ((i, j) for (i, a), (j, b) in pairs if d_v(v, a * b) != dv[i] * b - a * dv[j])
    derivation = next((f"a={labels[i]} b={labels[j]}" for i, j in broken), None)
    unequal = (a for a, e in enumerate(gens) if d_v(v, dv[a]) != v2 * e - e * v2)
    square = next((labels[a] for a in unequal), None)
    return CheckItem("dv-derivation-law", derivation), CheckItem("dv-square-is-v2-bracket", square)


OVERLAP_SUMS = clifford._overlap_sums


def overlap_sums_with_twist_sign_dropped(left, right, twisted, by_overlap, scale):
    """`clifford._overlap_sums` whose twisted form adds v a + kappa(a) v, not v a - kappa(a) v.

    Its plain form is the kernel's.  Its twisted form adds the product of
    left and right and that of kappa(right) and left, each through the
    kernel's plain form, so `twisted_commutator(v, a)` under it is
    v * a + grade_involution(a) * v.
    """
    if not twisted:
        return OVERLAP_SUMS(left, right, False, by_overlap, scale)
    left, right = list(left), list(right)
    OVERLAP_SUMS(left, right, False, by_overlap, scale)
    kappa = [(mask, -n if mask.bit_count() & 1 else n) for mask, n in right]
    return OVERLAP_SUMS(kappa, left, False, by_overlap, scale)


def drop_twist_sign(patch):
    """Bind the kernel with the twist sign dropped where the package reads it:
    in clifford, for `twisted_commutator` and so d_v(e_a), in dirac, for the
    left sides of the dv-* laws, and in tensor, whose product never twists."""
    for module in (clifford, dirac, tensor):
        patch.setattr(module, "_overlap_sums", overlap_sums_with_twist_sign_dropped)


def count_fraction_arithmetic(monkeypatch) -> list:
    """Patch Fraction's arithmetic operators to record each call in the list returned."""
    calls = []

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            monkeypatch.setattr(Fraction, name, counted(name))
    monkeypatch.setattr(Fraction, "__neg__", counted("__neg__"))
    -Fraction(1, 2) * 3 / Fraction(1, 3)
    assert calls == ["__neg__", "__mul__", "__truediv__"], "the patched operators are not reached"
    calls.clear()
    return calls


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


def moved_subalgebra(subalgebra, seed: int) -> tuple:
    """A catalog entry's subalgebra vectors in the basis of changed_algebra(name, seed)."""
    inverse = invert(random_basis(len(subalgebra[0]), seed))
    return tuple(inverse.mat_vec(v) for v in subalgebra)


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
    return DiracContext(catalog_entry("sl3-killing").algebra, SL3_TRIPLE)
