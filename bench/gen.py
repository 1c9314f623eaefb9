"""Seeded input documents for the benchmark workloads.

An algebra is held as a `Spec`: plain bracket table, Gram matrix and
subalgebra vectors, all Fractions, plus the values of c known for it (from
the literature, or for a change of basis the oracle's value on the original
algebra).  Documents are emitted through the package's canonical writer and must
survive parse -> emit byte for byte before any of them is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from cubicdirac import QuadraticLieAlgebra, emit_algebra_text, parse_algebra_text
from cubicdirac.catalog import matrix_brackets
from cubicdirac.linalg import Matrix

import oracle

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Spec:
    name: str
    labels: tuple[str, ...]
    table: dict
    form: tuple[tuple[Fraction, ...], ...]
    subalgebra: tuple[tuple[Fraction, ...], ...] = ()
    known: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.labels)


# -- matrix algebras ---------------------------------------------------------


def _unit(size: int, r: int, c: int):
    return tuple(tuple(ONE if (i, j) == (r, c) else ZERO for j in range(size)) for i in range(size))


def _sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sl_reps(size: int):
    """sl(size): raising e_ij (i < j), Cartan h_i = E_ii - E_i+1,i+1, lowering f_ij."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    raising = [(f"e{i + 1}{j + 1}", _unit(size, i, j)) for i, j in pairs]
    cartan = [(f"h{i + 1}", _sub(_unit(size, i, i), _unit(size, i + 1, i + 1))) for i in range(size - 1)]
    lowering = [(f"f{i + 1}{j + 1}", _unit(size, j, i)) for i, j in pairs]
    return raising + cartan + lowering


def so_reps(size: int):
    """so(size): E_ij - E_ji for i < j (the compact real form)."""
    return [
        (f"r{i + 1}{j + 1}", _sub(_unit(size, i, j), _unit(size, j, i)))
        for i in range(size)
        for j in range(i + 1, size)
    ]


def matrix_spec(name: str, reps, known_c: Fraction) -> Spec:
    """The matrix algebra spanned by `reps` with its Killing form (from the oracle's loop)."""
    labels = tuple(label for label, _ in reps)
    table = matrix_brackets([m for _, m in reps])
    form = tuple(tuple(row) for row in oracle.killing_matrix(len(labels), table))
    return Spec(name, labels, table, form, known={"c": known_c})


# -- T*-extensions -------------------------------------------------------------


def tstar_spec(name: str, labels, table) -> Spec:
    """g + g* with [x, xi] = ad*_x xi = -xi o ad_x and B(x, xi) = xi(x).

    The form is split (g and g* are isotropic), so the algebra is quadratic
    for any Lie algebra g, reductive or not; c = 0 for every such extension.
    """
    n = len(labels)
    big = {}
    for (i, j), coeffs in table.items():
        big[(i, j)] = tuple(Fraction(c) for c in coeffs) + (ZERO,) * n
    for i in range(n):
        for j in range(n):
            # [x_i, xi^j] = -sum_k c_ik^j xi^k
            out = [ZERO] * (2 * n)
            for k in range(n):
                c = oracle.bracket_vector(n, table, i, k)[j]
                if c:
                    out[n + k] = -c
            if any(out):
                big[(i, n + j)] = tuple(out)
    form = tuple(
        tuple(ONE if abs(r - c) == n else ZERO for c in range(2 * n)) for r in range(2 * n)
    )
    star = tuple(labels) + tuple(f"{label}*" for label in labels)
    return Spec(name, star, big, form, known={"c": ZERO})


# -- changes of basis -----------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    num = rng.randint(1, 40) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 40))


SHEARS = 2  # few enough that the new brackets stay sparse


def change_basis(spec: Spec, rng: random.Random, tag: str) -> Spec:
    """The same algebra on a sparse random basis f_a = sum_i P_ia e_i.

    P is a permutation, then SHEARS column operations col_a += q col_b,
    then a rational rescaling of every column; brackets become P^-1 [P., P.]
    and the form P^T B P.  New labels, a new name, no subalgebra.
    """
    n = spec.dim
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[ONE if perm[a] == i else ZERO for a in range(n)] for i in range(n)]
    for _ in range(SHEARS):
        a, b = rng.sample(range(n), 2)
        q = _rational(rng)
        for i in range(n):
            p[i][a] += q * p[i][b]
    for a in range(n):
        s = _rational(rng)
        for i in range(n):
            p[i][a] *= s
    pinv = oracle.inverse(p)
    cols = [[p[i][a] for i in range(n)] for a in range(n)]

    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            ambient = [ZERO] * n
            for i in range(n):
                if cols[a][i]:
                    for j in range(n):
                        if cols[b][j] and i != j:
                            f = cols[a][i] * cols[b][j]
                            for r, c in enumerate(oracle.bracket_vector(n, spec.table, i, j)):
                                if c:
                                    ambient[r] += f * c
            new = tuple(sum((pinv[r][s] * ambient[s] for s in range(n)), ZERO) for r in range(n))
            if any(new):
                table[(a, b)] = new
    form = tuple(
        tuple(
            sum((cols[a][i] * spec.form[i][j] * cols[b][j] for i in range(n) for j in range(n)), ZERO)
            for b in range(n)
        )
        for a in range(n)
    )
    labels = tuple(f"{tag}_{a}" for a in range(n))
    return replace(spec, name=f"{spec.name}-{tag}", labels=labels, table=table, form=form, subalgebra=())


# -- documents ----------------------------------------------------------------


def document(spec: Spec) -> str:
    """Canonical text of `spec`; raises ValueError unless it round-trips exactly."""
    algebra = QuadraticLieAlgebra(spec.name, spec.labels, spec.table, Matrix(spec.form, cols=spec.dim))
    text = emit_algebra_text(algebra, spec.subalgebra)
    again = emit_algebra_text(*parse_algebra_text(text))
    if again != text:
        raise ValueError(f"{spec.name}: document does not round-trip byte for byte")
    return text


def oracle_values(spec: Spec, use_subalgebra: bool) -> dict[str, Fraction]:
    """c (and, for a pair, c_g, c_h, c_rel) from the oracle alone."""
    form = [list(row) for row in spec.form]
    if use_subalgebra:
        rel = oracle.relative_c(spec.dim, spec.table, form, spec.subalgebra)
        return {"c": rel["c_rel"], **rel}
    return {"c": oracle.absolute_c(spec.dim, spec.table, form)}
