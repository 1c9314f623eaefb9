"""Dense exact linear algebra over the rationals.

Matrices hold `fractions.Fraction` entries, and products and the echelon
form compute with them; the congruence diagonalization of a form eliminates
on integer numerators, each row and column over its own denominator, and
hands back Fractions.  No floating point is accepted or produced anywhere in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ContractViolation, DegenerateFormError

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ContractViolation(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}"
    )


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(map(as_scalar, entries))


def _identity_rows(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        if rows:
            cols = len(rows[0])
            for row in rows:
                if len(row) != cols:
                    raise ContractViolation("ragged matrix rows")
        elif cols is None:
            raise ContractViolation("empty matrix needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self._e = rows

    @classmethod
    def _built(cls, rows: tuple[tuple[Fraction, ...], ...], cols: int) -> "Matrix":
        """A matrix from tuple rows of Fractions that this module built; nothing is re-checked."""
        out = object.__new__(cls)
        out.rows = len(rows)
        out.cols = cols
        out._e = rows
        return out

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._built(tuple(map(tuple, _identity_rows(n))), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._built(((ZERO,) * cols,) * rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        if not columns:
            if rows is None:
                raise ContractViolation("empty column list needs an explicit row count")
            return cls.zero(rows, 0)
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self._e[i][j]

    def __getitem__(self, ij):
        i, j = ij
        return self._e[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._e[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self._e[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        if not self._e:
            return Matrix.zero(self.cols, 0)
        return Matrix._built(tuple(zip(*self._e)), self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ContractViolation("matrix shape mismatch in product")
        rows = []
        for row in self._e:
            out = [ZERO] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in enumerate(other._e[k]):
                        if b:
                            out[j] += a * b
            rows.append(tuple(out))
        return Matrix._built(tuple(rows), other.cols)

    def mat_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = vector(v)
        if len(v) != self.cols:
            raise ContractViolation("matrix/vector shape mismatch")
        nonzero = [(j, vj) for j, vj in enumerate(v) if vj]
        return tuple(
            sum((row[j] * vj for j, vj in nonzero if row[j]), ZERO) for row in self._e
        )

    def scaled(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix._built(tuple(tuple(c * x for x in row) for row in self._e), self.cols)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._e[i][j] == self._e[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_diagonal(self) -> bool:
        return all(
            self._e[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self._e[i][i] for i in range(min(self.rows, self.cols)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"Matrix({self.rows}x{self.cols}: {body})"


@dataclass(frozen=True)
class LinearSolution:
    """One solution of A x = b; `unique` is False when the kernel is nonzero."""

    vector: tuple[Fraction, ...]
    unique: bool


def _echelon(aug: list[list[Fraction]], cols: int) -> list[int]:
    """In-place reduced row echelon form of `aug`; returns pivot column list.

    `cols` counts the coefficient columns; anything beyond is augmentation.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(aug)):
            if aug[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        row = aug[r]
        p = row[c]
        if p != 1:
            row = aug[r] = [x / p if x else x for x in row]
        # only the pivot row's nonzero entries change another row
        support = [(j, y) for j, y in enumerate(row) if y]
        for i, other in enumerate(aug):
            f = other[c]
            if f and i != r:
                for j, y in support:
                    other[j] -= f * y
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    return pivots


def solve_linear(a: Matrix, b: Sequence) -> LinearSolution | None:
    """Solve A x = b exactly.

    Returns None when the system is inconsistent.  When the solution space is
    an affine subspace of positive dimension, one solution is returned (free
    variables set to zero) with unique=False.
    """
    b = vector(b)
    if len(b) != a.rows:
        raise ContractViolation("right-hand side length does not match row count")
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    pivots = _echelon(aug, a.cols)
    rank = len(pivots)
    for i in range(rank, a.rows):
        if aug[i][a.cols] != 0:
            return None
    x = [ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][a.cols]
    return LinearSolution(tuple(x), unique=(rank == a.cols))


def nullspace(a: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of A, as a list of coordinate vectors."""
    if a.rows == 0:
        return list(map(tuple, _identity_rows(a.cols)))
    aug = [list(a.row(i)) for i in range(a.rows)]
    pivots = _echelon(aug, a.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * a.cols
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -aug[r][free]
        basis.append(tuple(v))
    return basis


def rank(a: Matrix) -> int:
    if a.rows == 0 or a.cols == 0:
        return 0
    aug = [list(a.row(i)) for i in range(a.rows)]
    return len(_echelon(aug, a.cols))


def _row_numerators(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(t, [N_0, ...]) with row[s] = N_s / t, t the least common denominator of the row.

    A row with one nonzero entry is that entry's numerator over its denominator.
    """
    nonzero = (s for s, x in enumerate(row) if x)
    first = next(nonzero, None)
    if first is not None and next(nonzero, None) is None:
        nums = [0] * len(row)
        nums[first] = row[first].numerator
        return row[first].denominator, nums
    t = 1
    for x in row:
        if x and t % x.denominator:
            t = lcm(t, x.denominator)
    return t, [x.numerator * (t // x.denominator) if x else 0 for x in row]


def _reduced(scale: int, nums: list[int]) -> tuple[int, list[int]]:
    """scale and nums divided by their gcd, with scale kept positive."""
    g = gcd(scale, *nums)
    if scale < 0:
        g = -g
    if g == 1:
        return scale, nums
    return scale // g, [x // g for x in nums]


def diagonalize_form(b: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Congruence-diagonalize a symmetric non-degenerate form.

    Returns (P, d) with P invertible and P^T B P = diag(d), every d_i nonzero.
    Symmetric Gaussian reduction; when the whole remaining diagonal is zero an
    isotropic pivot is repaired by adding a column with nonzero coupling onto
    the pivot column (char 0, so the repaired diagonal entry 2*B_ij != 0).

    The elimination runs on integers.  Row i of the form being reduced is
    N_i / t_i over its own denominator, and column j of P is K_j / s_j over
    its own scale, each kept in lowest terms; no number is put over the
    denominators of the whole form.  Past pivot r only the trailing block
    (rows and columns after r) is kept: the pivot step is the Schur
    complement of that block, row by row, and P's columns take the same
    column operations.  The pivots are chosen on the same zero tests as in
    Fraction arithmetic, so (P, d) is the same exact result.
    """
    if b.rows != b.cols:
        raise ContractViolation("form matrix must be square")
    if not b.is_symmetric():
        raise ContractViolation("form matrix must be symmetric")
    n = b.rows
    rows = [_row_numerators(b.row(i)) for i in range(n)]
    cols = [(1, [1 if r == j else 0 for r in range(n)]) for j in range(n)]
    # own[r]: the index of the form's row that rows[r] still is, or None once changed
    own: list[int | None] = list(range(n))
    d = []

    def swap(r, i):
        rows[r], rows[i] = rows[i], rows[r]
        for _, nums in rows[r:]:
            nums[r], nums[i] = nums[i], nums[r]
        cols[r], cols[i] = cols[i], cols[r]
        own[r], own[i] = own[i], own[r]

    for r in range(n):
        if rows[r][1][r] == 0:
            pivot = next((j for j in range(r + 1, n) if rows[j][1][j]), None)
            if pivot is not None:
                swap(r, pivot)
            else:
                pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n) if rows[i][1][j]), None)
                if pair is None:
                    kernel = nullspace(b)
                    raise DegenerateFormError("form is degenerate", witness=kernel[0] if kernel else None)
                # column i += column j, mirrored on row i
                i, j = pair
                for _, nums in rows[r:]:
                    nums[i] += nums[j]
                (ti, ni), (tj, nj) = rows[i], rows[j]
                rows[i] = _reduced(ti * tj, [x * tj + y * ti for x, y in zip(ni, nj)])
                own[i] = None
                (si, ki), (sj, kj) = cols[i], cols[j]
                cols[i] = _reduced(si * sj, [x * sj + y * si for x, y in zip(ki, kj)])
                if i != r:
                    swap(r, i)
        t, pivot_row = rows[r]
        a = pivot_row[r]
        d.append(Fraction(a, t) if own[r] is None else b.entry(own[r], own[r]))
        s, pivot_col = cols[r]
        for j in range(r + 1, n):
            c = pivot_row[j]
            if c:
                # column j -= (B_rj / B_rr) column r, and row j of the trailing block with it
                tj, nj = rows[j]
                f = nj[r]
                trailing = [a * x - f * y for x, y in zip(nj[r + 1 :], pivot_row[r + 1 :])]
                rows[j] = _reduced(tj * a, [0] * (r + 1) + trailing)
                own[j] = None
                sj, kj = cols[j]
                cols[j] = _reduced(sj * a * s, [a * s * x - c * sj * y for x, y in zip(kj, pivot_col)])

    entries = [[Fraction(k, s) if s > 1 else Fraction(k) if k else ZERO for k in nums] for s, nums in cols]
    return Matrix._built(tuple(zip(*entries)), n), tuple(d)
