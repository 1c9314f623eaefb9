"""Quadratic Lie algebras over Q and orthogonal splittings.

A quadratic Lie algebra carries a symmetric non-degenerate bilinear form B
that is ad-invariant: B([x,y],z) + B(y,[x,z]) = 0.  Structure constants are
given per unordered basis pair (i < j) as a coefficient vector.  The
constructor builds two tables from them, once, before it validates
anything: the Fraction store of the nonzero terms ((k, c), ...) of
[e_i, e_j] = sum c e_k per ordered pair, which brackets and PBW rewriting
read, and the integer structure (P, ad, preimage), the same constants
times their common denominator P, indexed by left factor and by result
(see `_bracket_structure`).  The Jacobi identity and ad-invariance are
checked on the integer structure, non-degeneracy on the form, so an
instance is always a genuine quadratic Lie algebra.  The two identity
checks add integer numerators over the nonzero brackets and form entries
only; they test sums against zero, which the positive scale does not
change.  The Killing form, the change of basis and the Chevalley-Eilenberg
operators in `forms` read the same integer structure.

`orthogonal_split` decomposes g = h + h_perp for a non-degenerate subalgebra
h, produces B-orthogonal bases of both parts (over Q one cannot normalize, so
the diagonal Gram entries d_i replace unit lengths), and re-expresses the
whole algebra in the adapted basis (h_perp vectors first, then h vectors)
where B is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import (
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
)
from .linalg import (
    Matrix,
    ZERO,
    diagonalize_form,
    is_zero_vector,
    nullspace,
    rank,
    solve_linear,
    vector,
)
from .sparse import _integer_terms

BracketTable = dict[tuple[int, int], tuple[Fraction, ...]]
SparseBrackets = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]
BracketStructure = tuple[int, tuple[dict, ...], tuple[tuple, ...]]


def normalize_brackets(dim: int, raw: Mapping) -> BracketTable:
    """Coerce a {(i, j): coefficient-vector} table, i < j, dropping zeros."""
    table: BracketTable = {}
    for (i, j), coeffs in raw.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ContractViolation(f"bracket index ({i},{j}) out of range")
        if i >= j:
            raise ContractViolation(f"bracket pairs must have i < j, got ({i},{j})")
        vec = vector(coeffs)
        if len(vec) != dim:
            raise ContractViolation(f"bracket ({i},{j}) coefficient vector has wrong length")
        if not is_zero_vector(vec):
            table[(i, j)] = vec
    return table


def _sparse_brackets(dim: int, table: BracketTable) -> SparseBrackets:
    """{(i, j): ((k, c), ...)} for every ordered pair; () where [e_i, e_j] = 0."""
    out: SparseBrackets = {(i, j): () for i in range(dim) for j in range(dim)}
    for (i, j), coeffs in table.items():
        terms = tuple((k, c) for k, c in enumerate(coeffs) if c)
        out[(i, j)] = terms
        out[(j, i)] = tuple((k, -c) for k, c in terms)
    return out


def _bracket_structure(dim: int, sparse: SparseBrackets) -> BracketStructure:
    """(P, ad, preimage): the structure constants times their common denominator P.

    ad[a] is {s: ((r, P c), ...)} over the nonzero [e_a, e_s] = sum c e_r,
    with s and r increasing; preimage[r] lists the same constants with r
    fixed, as ((a, s, P c), ...) in row-major order of (a, s).
    """
    den, flat = _integer_terms(
        {(a, s, r): c for (a, s), terms in sparse.items() for r, c in terms}
    )
    ad: list[dict] = [{} for _ in range(dim)]
    preimage: list[list] = [[] for _ in range(dim)]
    for (a, s, r), c in flat:
        ad[a].setdefault(s, []).append((r, c))
        preimage[r].append((a, s, c))
    return (
        den,
        tuple({s: tuple(terms) for s, terms in row.items()} for row in ad),
        tuple(map(tuple, preimage)),
    )


def check_jacobi(structure: BracketStructure):
    """None if the Jacobi identity holds; otherwise the first failing (i,j,k)."""
    _, ad, _ = structure
    dim = len(ad)
    for i in range(dim):
        ad_i = ad[i]
        for j in range(i + 1, dim):
            ad_j = ad[j]
            vij = ad_i.get(j)
            # without [e_i, e_j], only a k with [e_j, e_k] or [e_k, e_i] can fail
            ks = range(j + 1, dim) if vij else sorted(k for k in {*ad_i, *ad_j} if k > j)
            for k in ks:
                total = {}
                for terms, last in ((vij, k), (ad_j.get(k), i), (ad[k].get(i), j)):
                    for a, c in terms or ():
                        for t, d in ad[a].get(last, ()):
                            total[t] = total.get(t, 0) + c * d
                if any(total.values()):
                    return (i, j, k)
    return None


def check_ad_invariance(structure: BracketStructure, form: Matrix):
    """None if B([x,y],z) + B(y,[x,z]) = 0 on all basis triples; else (i,j,k).

    For each i, the sums over all (j, k) are scattered from the nonzero
    [e_i, e_j] and the nonzero form entries, and the witness is the least
    failing (j, k) of the first i that has one.  The sums read row a and
    column a of the form only for the a that some bracket reaches, so only
    the entries in those rows and columns are brought to integers.
    """
    _, ad, preimage = structure
    dim = len(ad)
    reached = {r for r, pairs in enumerate(preimage) if pairs}
    if not reached:
        return None
    _, entries = _integer_terms(
        {
            (a, k): b
            for a in range(dim)
            for k, b in enumerate(form.row(a))
            if b and (a in reached or k in reached)
        }
    )
    rows: list[list] = [[] for _ in range(dim)]
    cols: list[list] = [[] for _ in range(dim)]
    for (a, k), b in entries:
        rows[a].append((k, b))
        cols[k].append((a, b))
    for i, ad_i in enumerate(ad):
        s: dict = {}
        for j, terms in ad_i.items():
            for a, c in terms:
                for k, b in rows[a]:
                    s[j, k] = s.get((j, k), 0) + c * b
        for k, terms in ad_i.items():
            for a, c in terms:
                for j, b in cols[a]:
                    s[j, k] = s.get((j, k), 0) + b * c
        failing = [jk for jk, v in s.items() if v]
        if failing:
            return (i, *min(failing))
    return None


def killing_form(dim: int, table: BracketTable) -> Matrix:
    """K(x,y) = trace(ad x ad y); may be degenerate."""
    return _killing(_bracket_structure(dim, _sparse_brackets(dim, table)))


def _killing(structure: BracketStructure) -> Matrix:
    # K(e_i, e_j) = sum of c d over [e_j, e_s] = ... + c e_a + ... and
    # [e_i, e_a] = ... + d e_s + ..., on numerators over P^2
    den, ad, _ = structure
    entries = []
    for ad_i in ad:
        row = []
        for ad_j in ad:
            t = 0
            for s, terms in ad_j.items():
                for a, c in terms:
                    for r, d in ad_i.get(a, ()):
                        if r == s:
                            t += c * d
            row.append(Fraction(t, den * den))
        entries.append(row)
    return Matrix(entries, cols=len(ad))


class QuadraticLieAlgebra:
    """A validated quadratic Lie algebra given by structure constants."""

    __slots__ = ("name", "dim", "labels", "form", "_sparse", "_integer_structure")

    def __init__(self, name: str, labels: Sequence[str], brackets: Mapping, form: Matrix):
        self.name = name
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if self.dim == 0:
            raise ContractViolation("algebra must have positive dimension")
        if len(set(self.labels)) != self.dim:
            raise ContractViolation("basis labels must be distinct")
        table = normalize_brackets(self.dim, brackets)
        if form.rows != self.dim or form.cols != self.dim:
            raise ContractViolation("form matrix shape does not match dimension")
        if not form.is_symmetric():
            bad = next(
                (i, j)
                for i in range(self.dim)
                for j in range(self.dim)
                if form.entry(i, j) != form.entry(j, i)
            )
            raise ValidationError("form-symmetric", witness=bad)
        self.form = form
        self._sparse = _sparse_brackets(self.dim, table)
        self._integer_structure = _bracket_structure(self.dim, self._sparse)

        w = check_jacobi(self._integer_structure)
        if w is not None:
            raise ValidationError("jacobi", witness=tuple(self.labels[a] for a in w))
        kernel = nullspace(form)
        if kernel:
            raise ValidationError(
                "form-non-degenerate",
                witness=kernel[0],
                detail="the bilinear form has a nonzero kernel vector",
            )
        w = check_ad_invariance(self._integer_structure, form)
        if w is not None:
            raise ValidationError("ad-invariance", witness=tuple(self.labels[a] for a in w))

    # -- bracket and form access ------------------------------------------

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        """[e_i, e_j] as a dense coordinate vector, for any index order."""
        out = [ZERO] * self.dim
        for k, c in self.bracket_sparse(i, j):
            out[k] = c
        return tuple(out)

    def bracket_sparse(self, i: int, j: int):
        """[(k, coeff), ...] for [e_i, e_j]; empty tuple when the bracket vanishes."""
        return self._sparse[(i, j)]

    def _coordinates(self, *vectors: Sequence):
        out = tuple(map(vector, vectors))
        for v in out:
            if len(v) != self.dim:
                raise ContractViolation("coordinate length does not match the algebra")
        return out

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        x, y = self._coordinates(x, y)
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        factor = xi * yj
                        for k, c in self._sparse[(i, j)]:
                            out[k] += factor * c
        return tuple(out)

    def bracket_table(self) -> BracketTable:
        return {
            (i, j): self.bracket_basis(i, j)
            for (i, j), terms in self._sparse.items()
            if i < j and terms
        }

    def killing(self) -> Matrix:
        return _killing(self._integer_structure)

    def __repr__(self) -> str:
        return f"QuadraticLieAlgebra({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class OrthogonalSplit:
    """g = h + h_perp with B-orthogonal bases of both parts.

    p_vectors / h_vectors hold the orthogonalized bases in ambient
    coordinates; p_gram / h_gram are the corresponding diagonal Gram entries.
    `adapted` is the same Lie algebra re-expressed in the basis
    (p_1..p_m, h_1..h_k), where the form is diag(p_gram + h_gram), and
    everything built on the split reads it there: Y_j is the basis vector
    m + j.  from_adapted maps adapted coordinates to ambient ones (its
    columns are the adapted basis vectors); no inverse is kept, since
    nothing maps ambient coordinates back.
    """

    ambient: QuadraticLieAlgebra
    p_vectors: tuple[tuple[Fraction, ...], ...]
    h_vectors: tuple[tuple[Fraction, ...], ...]
    p_gram: tuple[Fraction, ...]
    h_gram: tuple[Fraction, ...]
    adapted: QuadraticLieAlgebra
    from_adapted: Matrix

    @property
    def p_dim(self) -> int:
        return len(self.p_vectors)

    @property
    def h_dim(self) -> int:
        return len(self.h_vectors)

    def subalgebra_as_algebra(self) -> QuadraticLieAlgebra:
        """h as a standalone quadratic Lie algebra in its orthogonal basis."""
        if self.h_dim == 0:
            raise ContractViolation("the split has no subalgebra part")
        m, k = self.p_dim, self.h_dim
        brackets = {}
        for i in range(k):
            for j in range(i + 1, k):
                # `orthogonal_split` has checked that [h, h] lies in h
                brackets[(i, j)] = self.adapted.bracket_basis(m + i, m + j)[m:]
        form = Matrix(
            [[self.h_gram[i] if i == j else ZERO for j in range(k)] for i in range(k)],
            cols=k,
        )
        labels = tuple(f"h{i + 1}" for i in range(k))
        return QuadraticLieAlgebra(f"{self.ambient.name}|h", labels, brackets, form)


def orthogonal_split(
    g: QuadraticLieAlgebra,
    subalgebra: Sequence[Sequence] = (),
    p_variant: int = 0,
) -> OrthogonalSplit:
    """Split g along a subalgebra with non-degenerate restricted form.

    `subalgebra` is a list of ambient coordinate vectors spanning h (possibly
    empty).  `p_variant` deterministically reshapes the complement basis
    before orthogonalization; any value yields a valid split, different values
    usually yield genuinely different orthogonal bases of h_perp, which the
    basis-independence checks rely on.

    Every Gram is a congruence: the Gram of the columns of S is S^T B S.
    With h = 0 and no reshape the complement basis is the unit vectors, so
    the form is diagonalized as it stands.  The adapted basis P is checked
    to satisfy P^T B P = diag(d) on integers, each column of P and each row
    of P^T B over its own denominator (see `_pairing_rows`), and the adapted
    structure constants are read off the bracket support on integers,
    projected with the same rows over d (see `_adapted_brackets`); the
    inverse of P is never formed.
    """
    n = g.dim
    h_raw = [vector(v) for v in subalgebra]
    for v in h_raw:
        if len(v) != n:
            raise ContractViolation("subalgebra vector length does not match the algebra")
    k = len(h_raw)
    reshape = p_variant and n - k >= 2

    h_vectors: list = []
    h_gram: tuple = ()
    if k:
        hmat = Matrix.from_columns(h_raw, rows=n)
        if rank(hmat) != k:
            raise NotASubalgebraError("subalgebra vectors are linearly dependent")
        for i in range(k):
            for j in range(i + 1, k):
                br = g.bracket(h_raw[i], h_raw[j])
                if solve_linear(hmat, br) is None:
                    raise NotASubalgebraError("not closed under the bracket", witness=(i, j))
        # row i is x -> B(h_i, x), so h_perp is its kernel
        pairing_rows = hmat.transpose() @ g.form
        try:
            p_h, h_gram = diagonalize_form(pairing_rows @ hmat)
        except DegenerateFormError as exc:
            raise DegenerateFormError(
                "the form restricted to the subalgebra is degenerate",
                witness=exc.witness,
            ) from exc
        h_vectors = (hmat @ p_h).columns()

    if k or reshape:
        complement = nullspace(pairing_rows) if k else [unit(n, i) for i in range(n)]
        if reshape:
            complement = list(reversed(complement))
            complement[0] = tuple(x + p_variant * y for x, y in zip(complement[0], complement[1]))
        cmat = Matrix.from_columns(complement, rows=n)
        p_p, p_gram = diagonalize_form(cmat.transpose() @ g.form @ cmat)
        p_vectors = (cmat @ p_p).columns()
        from_adapted = Matrix.from_columns(p_vectors + h_vectors, rows=n)
    else:
        # h_perp is g, in the basis of unit vectors, whose Gram is the form
        from_adapted, p_gram = diagonalize_form(g.form)
        p_vectors = from_adapted.columns()
    m = len(p_vectors)

    grams = p_gram + h_gram
    cols = [_integer_terms({a: x for a, x in enumerate(col) if x}) for col in p_vectors + h_vectors]
    rows = _pairing_rows(g.form, cols)
    # (P^T B P)_at = M_a . N_t / (w_a q_t) is d_a at t = a and 0 elsewhere;
    # the off-diagonal entries include every B(h_j, p_i) = 0
    for a, ((w, row), d) in enumerate(zip(rows, grams)):
        for t, (q, col) in enumerate(cols):
            total = sum(row.get(s, 0) * x for s, x in col)
            if total * d.denominator != (d.numerator * w * q if t == a else 0):
                raise ContractViolation("internal: adapted form mismatch")

    if not h_vectors and from_adapted == Matrix.identity(n):
        # The form is diagonal in the given basis, so g is its own adapted
        # algebra: it is not validated a second time, and the reports keep
        # the input's labels.
        adapted = g
    else:
        adapted_brackets = _adapted_brackets(g, cols, rows, grams)
        labels = tuple(f"p{i + 1}" for i in range(m)) + tuple(f"h{j + 1}" for j in range(k))
        adapted_form = Matrix(
            [[grams[i] if i == j else ZERO for j in range(n)] for i in range(n)], cols=n
        )
        adapted = QuadraticLieAlgebra(f"{g.name}#adapted", labels, adapted_brackets, adapted_form)

    # closure and ad-invariance keep [h, h] in h and [h, h_perp] in h_perp
    # in the adapted basis; check both anyway, where the blocks are made
    for j in range(m, n):
        for i in range(n):
            if any((t < m) != (i < m) for t, _ in adapted.bracket_sparse(j, i)):
                part = "h_perp" if i < m else "h"
                raise ContractViolation(f"internal: [h, {part}] leaves {part}")

    return OrthogonalSplit(
        ambient=g,
        p_vectors=tuple(p_vectors),
        h_vectors=tuple(h_vectors),
        p_gram=p_gram,
        h_gram=h_gram,
        adapted=adapted,
        from_adapted=from_adapted,
    )


def _pairing_rows(form: Matrix, cols: Sequence[tuple[int, list]]) -> list[tuple[int, dict]]:
    """The rows of P^T B on integers: row k as (w_k, {s: M_ks}), (P^T B)_ks = M_ks / w_k.

    Column k of P is given as (q_k, [(r, N_kr), ...]), N_k / q_k.  Each row
    r of B that some column reaches is written once over its own
    denominator, R_r / b_r, so row k is sum_r N_kr (L / b_r) R_r over
    q_k L, L the lcm of the b_r of its column, and is then divided by the
    gcd of its numerators and w_k: w_k is the least common denominator of
    the row.  Nothing is put over the denominators of all form entries.
    """
    b_rows: dict[int, tuple[int, list]] = {}
    out = []
    for q, col in cols:
        lcd = 1
        for r, _ in col:
            if r not in b_rows:
                b_rows[r] = _integer_terms({s: x for s, x in enumerate(form.row(r)) if x})
            lcd = lcm(lcd, b_rows[r][0])
        row: dict = {}
        for r, x in col:
            b, entries = b_rows[r]
            x *= lcd // b
            for s, y in entries:
                row[s] = row.get(s, 0) + x * y
        w = q * lcd
        common = gcd(w, *row.values())
        out.append((w // common, {s: y // common for s, y in row.items() if y}))
    return out


def _adapted_brackets(
    g: QuadraticLieAlgebra, cols: Sequence[tuple[int, list]], rows: Sequence[tuple[int, dict]], grams: Sequence
) -> BracketTable:
    """The structure constants of g in the basis P_1..P_n given by `cols`.

    The coefficient of P_k in [P_i, P_j] is (P^T B)_k . [P_i, P_j] / d_k,
    with d = `grams`.  Each column is given as N_i / q_i and each row of
    P^T B as M_k / w_k, both over their own denominators (`rows` is
    `_pairing_rows(g.form, cols)`), and g's structure constants are
    integers over their common denominator D (g's integer structure), so
    the coefficient is the integer M_k . [N_i, N_j] over q_i q_j D w_k d_k.
    For each i, ad(P_i) is built once from the columns of ad[a]; for each
    j > i the bracket is scattered from it and projected on the rows of
    P^T B that meet its support.  A pair whose bracket is 0 is left out of
    the table.
    """
    n = g.dim
    den, ad, _ = g._integer_structure
    # column r of P^T B as [(k, M_kr), ...], and d_k w_k as (numerator, denominator)
    by_row: list[list] = [[] for _ in range(n)]
    scales = []
    for k, ((w, row), d) in enumerate(zip(rows, grams)):
        for r, x in row.items():
            by_row[r].append((k, x))
        scales.append((w * d.numerator, d.denominator))
    table: BracketTable = {}
    for i, (qi, ni) in enumerate(cols):
        # ad(P_i) by column s: {r: n} with [N_i, e_s] = sum n e_r over D
        ad_i: dict[int, dict] = {}
        for a, x in ni:
            for s, terms in ad[a].items():
                col = ad_i.setdefault(s, {})
                for r, c in terms:
                    col[r] = col.get(r, 0) + x * c
        if not ad_i:
            continue
        for j in range(i + 1, n):
            qj, nj = cols[j]
            br: dict = {}
            for s, y in nj:
                col = ad_i.get(s)
                if col:
                    for r, x in col.items():
                        br[r] = br.get(r, 0) + x * y
            sums: dict = {}
            for r, x in br.items():
                if x:
                    for k, mkr in by_row[r]:
                        sums[k] = sums.get(k, 0) + x * mkr
            base = qi * qj * den
            coeffs = [ZERO] * n
            for k, total in sums.items():
                if total:
                    num, dk = scales[k]
                    coeffs[k] = Fraction(total * dk, base * num)
            if any(coeffs):
                table[(i, j)] = tuple(coeffs)
    return table


def unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if s == i else ZERO for s in range(n))


def subalgebra_action(split: OrthogonalSplit, j: int) -> Matrix:
    """nu(Y_j): the matrix of ad(Y_j) restricted to h_perp, in the orthogonal p-basis.

    Y_j is the j-th orthogonal basis vector of h, the adapted basis vector
    m + j, so column i is the bracket [Y_j, X_i] read off the adapted
    algebra.  `orthogonal_split` has checked that [h, h_perp] lies in
    h_perp; that the result lies in so of the diagonal Gram is checked by
    `spin_lift`, which takes it.
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
