"""Quadratic Lie algebras over Q and orthogonal splittings.

A quadratic Lie algebra carries a symmetric non-degenerate bilinear form B
that is ad-invariant: B([x,y],z) + B(y,[x,z]) = 0.  Structure constants are
given per unordered basis pair (i < j) as a coefficient vector.  The
constructor builds one table from them, once, before it validates
anything: the integer structure (P, ad, preimage), the constants times
their common denominator P, indexed by left factor and by result (see
`_bracket_structure`).  Everything reads it: `bracket_sparse` and the tensor
product read a bracket off ad over P, `pbw_normalize` rewrites on it, and the
Killing form, the change of basis and the Chevalley-Eilenberg operators in
`forms` use it as it is.  The constructor checks the Jacobi identity and
ad-invariance on it, and non-degeneracy by diagonalizing the form, whose
(P, d) the split with h = 0 reuses, so an instance is always a genuine
quadratic Lie algebra.  The two identity checks add integer numerators over
the nonzero brackets and form entries only; they test sums against zero,
which the positive scale does not change.

`orthogonal_split` decomposes g = h + h_perp for a non-degenerate subalgebra
h, produces B-orthogonal bases of both parts (over Q one cannot normalize, so
the diagonal Gram entries d_i replace unit lengths), and re-expresses the
whole algebra in the adapted basis (h_perp vectors first, then h vectors)
where B is diagonal.  The adapted algebra is not validated a second time:
it is g, already validated, moved by P.  The split checks P^T B P = diag(d)
with every d_i nonzero, so P is invertible, and certifies that the adapted
constants give [P_i, P_j] in g for every pair (`_certify_adapted`); a
bracket pulled back along an isomorphism satisfies Jacobi, and P^T B P is
invariant and non-degenerate for it.  It checks there that [h, h] stays in
h and [h, h_perp] in h_perp; with ad-invariance, that is what lets `dirac`
read the spin lift of ad y on h_perp, y in h, off the bracket coproduct,
with no matrix of ad y.
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
    nullspace,
    rank,
    solve_linear,
    vector,
)
from .sparse import _integer_terms

BracketTable = dict[tuple[int, int], tuple[Fraction, ...]]
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
        if any(vec):
            table[(i, j)] = vec
    return table


def _bracket_structure(dim: int, den: int, entries: Sequence[tuple[tuple[int, int, int], int]]) -> BracketStructure:
    """(P, ad, preimage): the structure constants times their common denominator P = den.

    entries lists the nonzero ((a, s, r), n) with [e_a, e_s] = sum (n / P) e_r
    for every ordered pair, sorted by (a, s, r).  ad[a] is {s: ((r, n), ...)}
    with s and r increasing; preimage[r] lists the same constants with r
    fixed, as ((a, s, n), ...) in row-major order of (a, s).
    """
    ad: list[dict] = [{} for _ in range(dim)]
    preimage: list[list] = [[] for _ in range(dim)]
    for (a, s, r), c in entries:
        ad[a].setdefault(s, []).append((r, c))
        preimage[r].append((a, s, c))
    return (
        den,
        tuple({s: tuple(terms) for s, terms in row.items()} for row in ad),
        tuple(map(tuple, preimage)),
    )


def _table_structure(dim: int, table: BracketTable) -> BracketStructure:
    """The integer structure of a normalized table, over the least common denominator.

    Each nonzero constant is read as its numerator and denominator once;
    the entries of both orders are integers, with no Fraction built.
    """
    terms = [
        (i, j, r, c.numerator, c.denominator) for (i, j), coeffs in table.items() for r, c in enumerate(coeffs) if c
    ]
    den = lcm(*(q for *_, q in terms))
    entries = []
    for i, j, r, p, q in terms:
        c = p * (den // q)
        entries += [((i, j, r), c), ((j, i, r), -c)]
    entries.sort()
    return _bracket_structure(dim, den, entries)


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
    return _killing(_table_structure(dim, table))


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

    __slots__ = ("name", "dim", "labels", "form", "_integer_structure", "_diagonal_form")

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
        self._integer_structure = _table_structure(self.dim, table)
        self._validate()

    @classmethod
    def _from_structure(cls, name: str, labels: Sequence[str], structure: BracketStructure, grams: Sequence):
        """The algebra with integer structure `structure` and form diag(grams), not validated.

        The caller vouches for it: `orthogonal_split` passes the structure
        `_adapted_structure` has certified to be a validated algebra's
        bracket pulled back along an invertible P with P^T B P = diag(grams),
        and `OrthogonalSplit.subalgebra_as_algebra` its restriction to the
        closed h.  A diagonal form is its own diagonalization, (I, grams).
        """
        self = cls.__new__(cls)
        self.name, self.labels, self.dim = name, tuple(labels), len(labels)
        n = self.dim
        self.form = Matrix._built(tuple(tuple(grams[i] if i == j else ZERO for j in range(n)) for i in range(n)), n)
        self._integer_structure = structure
        self._diagonal_form = Matrix.identity(n), tuple(grams)
        return self

    def _validate(self):
        """Jacobi, non-degeneracy and ad-invariance, in that order.

        Non-degeneracy is the congruence diagonalization of the form, which
        `orthogonal_split` reuses for h = 0; only a degenerate form pays for
        the kernel vector of its witness.
        """
        w = check_jacobi(self._integer_structure)
        if w is not None:
            raise ValidationError("jacobi", witness=tuple(self.labels[a] for a in w))
        try:
            self._diagonal_form = diagonalize_form(self.form)
        except DegenerateFormError as exc:
            raise ValidationError(
                "form-non-degenerate",
                witness=exc.witness,
                detail="the bilinear form has a nonzero kernel vector",
            ) from None
        w = check_ad_invariance(self._integer_structure, self.form)
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
        """[(k, coeff), ...] for [e_i, e_j], read off the integer structure; () when it vanishes."""
        den, ad, _ = self._integer_structure
        return tuple((k, Fraction(c, den)) for k, c in ad[i].get(j, ()))

    def _coordinates(self, *vectors: Sequence):
        out = tuple(map(vector, vectors))
        for v in out:
            if len(v) != self.dim:
                raise ContractViolation("coordinate length does not match the algebra")
        return out

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        x, y = self._coordinates(x, y)
        den, ad, _ = self._integer_structure
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        factor = xi * yj
                        for k, c in ad[i].get(j, ()):
                            out[k] += factor * c
        return tuple(c / den for c in out)

    def bracket_table(self) -> BracketTable:
        _, ad, _ = self._integer_structure
        return {(i, j): self.bracket_basis(i, j) for i, row in enumerate(ad) for j in row if i < j}

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
        """h as a quadratic Lie algebra of its own: the block m.. of the
        adapted integer structure, indexed from 0, over its least common
        denominator, with the adapted labels h1.. and form diag(h_gram).
        Not validated again: the split has checked [h, h] in h on the
        certified adapted algebra, and a closed h with a non-degenerate
        form is a quadratic Lie algebra.
        """
        if self.h_dim == 0:
            raise ContractViolation("the split has no subalgebra part")
        m, k = self.p_dim, self.h_dim
        den, ad, _ = self.adapted._integer_structure
        block = ((a, s, terms) for a in range(m, m + k) for s, terms in ad[a].items() if s >= m)
        entries = [((a - m, s - m, r - m), c) for a, s, terms in block for r, c in terms]
        divisor = gcd(den, *(c for _, c in entries))
        structure = _bracket_structure(k, den // divisor, [(key, c // divisor) for key, c in entries])
        return QuadraticLieAlgebra._from_structure(
            f"{self.ambient.name}|h", self.adapted.labels[m:], structure, self.h_gram
        )


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
    the diagonalization of the form that validated g is taken as it is.
    The adapted basis P is checked to satisfy P^T B P = diag(d) on
    integers, each column of P and each row of P^T B over its own
    denominator (see `_pairing_rows`), and the adapted algebra's integer
    structure is read off the bracket support on integers, projected with
    the same rows over d, and certified against the brackets of the columns
    (see `_adapted_structure`), with no Fraction table built and no second
    validation; the inverse of P is never formed.
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
        # h_perp is g, in the basis of unit vectors, whose Gram is the form,
        # diagonalized once when g was validated
        from_adapted, p_gram = g._diagonal_form
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
        # algebra, and the reports keep the input's labels.
        adapted = g
    else:
        labels = tuple(f"p{i + 1}" for i in range(m)) + tuple(f"h{j + 1}" for j in range(k))
        structure = _adapted_structure(g, cols, rows, grams, labels)
        adapted = QuadraticLieAlgebra._from_structure(f"{g.name}#adapted", labels, structure, grams)

    # closure and ad-invariance keep [h, h] in h and [h, h_perp] in h_perp
    # in the adapted basis; check both anyway, where h's algebra and the
    # spin lift read them
    _, ad, _ = adapted._integer_structure
    for j in range(m, n):
        for i, terms in ad[j].items():
            if any((t < m) != (i < m) for t, _ in terms):
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


def _adapted_structure(
    g: QuadraticLieAlgebra,
    cols: Sequence[tuple[int, list]],
    rows: Sequence[tuple[int, dict]],
    grams: Sequence,
    labels: Sequence[str],
) -> BracketStructure:
    """The integer structure of g in the basis P_1..P_n given by `cols`, certified.

    The coefficient of P_k in [P_i, P_j] is (P^T B)_k . [P_i, P_j] / d_k,
    with d = `grams`.  Each column is given as N_i / q_i and each row of
    P^T B as M_k / w_k, both over their own denominators (`rows` is
    `_pairing_rows(g.form, cols)`), and g's structure constants are
    integers over their common denominator D (g's integer structure), so
    the coefficient is the integer M_k . [N_i, N_j] times r_k = 1 / (w_k d_k)
    over q_i q_j D.  For each i, ad(P_i) is built once from the columns of
    ad[a]; for each j > i the bracket is scattered from it and projected on
    the rows of P^T B that meet its support.  Every coefficient is written
    over Q = L^2 D R, L the lcm of the q_i and R that of the denominators
    of the r_k, and the numerators and Q are divided by their gcd, which
    leaves Q the least common denominator, as for a table.

    The structure is then checked against the brackets just scattered (see
    `_certify_adapted`), so it is g's bracket pulled back along P.
    """
    n = g.dim
    den, ad, _ = g._integer_structure
    # column r of P^T B as [(k, M_kr), ...]
    by_row: list[list] = [[] for _ in range(n)]
    for k, (_, row) in enumerate(rows):
        for r, x in row.items():
            by_row[r].append((k, x))
    ratios = [Fraction(d.denominator, w * d.numerator) for (w, _), d in zip(rows, grams)]
    lq = lcm(*(q for q, _ in cols))
    lr = lcm(*(r.denominator for r in ratios))
    col_scale = [lq // q for q, _ in cols]
    row_scale = [r.numerator * (lr // r.denominator) for r in ratios]
    entries = []
    brackets = {}
    for i, (_, ni) in enumerate(cols):
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
            br: dict = {}
            for s, y in cols[j][1]:
                col = ad_i.get(s)
                if col:
                    for r, x in col.items():
                        br[r] = br.get(r, 0) + x * y
            sums: dict = {}
            for r, x in br.items():
                if x:
                    for k, mkr in by_row[r]:
                        sums[k] = sums.get(k, 0) + x * mkr
            if br:
                brackets[i, j] = br
            scale = col_scale[i] * col_scale[j]
            for k, total in sums.items():
                if total:
                    c = total * scale * row_scale[k]
                    entries += [((i, j, k), c), ((j, i, k), -c)]
    common = lq * lq * den * lr
    divisor = gcd(common, *(c for _, c in entries))
    entries.sort()
    structure = _bracket_structure(n, common // divisor, [(key, c // divisor) for key, c in entries])
    _certify_adapted(structure, cols, brackets, den, labels)
    return structure


def _certify_adapted(
    structure: BracketStructure, cols: Sequence[tuple[int, list]], brackets: Mapping, den: int, labels: Sequence[str]
):
    """Raise ContractViolation unless sum_k c_ijk P_k = [P_i, P_j] for every i < j.

    c is `structure`, over its denominator Q, and column k of P is N_k / q_k
    (`cols`); `brackets` holds [N_i, N_j] = sum br_r e_r over g's
    denominator D for every i < j that the scatter which made c reached.
    With L the lcm of the q_k, both sides are compared on integers:
    (sum_k c_ijk (L / q_k) N_k) q_i q_j D against br Q L.  ad[j][i] must be
    the negation of ad[i][j], and no ad[i][i] may exist.

    This implies everything a validation of the adapted algebra would
    check.  g passed Jacobi, non-degeneracy and ad-invariance, and
    `orthogonal_split` has checked P^T B P = diag(d) with every d_i != 0,
    so P is invertible; a bracket pulled back along an isomorphism is a Lie
    bracket, and P^T B P is invariant and non-degenerate for it.
    """
    q_den, ad, _ = structure
    lq = lcm(*(q for q, _ in cols))
    col_scale = [lq // q for q, _ in cols]
    for i, row in enumerate(ad):
        for j, terms in row.items():
            if j == i or ad[j].get(i) != tuple((r, -c) for r, c in terms):
                _refuse(labels, min(i, j), max(i, j))
    for i, j in sorted({*brackets, *((i, j) for i, row in enumerate(ad) for j in row if i < j)}):
        lhs: dict = {}
        for k, c in ad[i].get(j, ()):
            c *= col_scale[k]
            for r, x in cols[k][1]:
                lhs[r] = lhs.get(r, 0) + c * x
        br = brackets.get((i, j), {})
        left, right = cols[i][0] * cols[j][0] * den, q_den * lq
        if any(lhs.get(r, 0) * left != br.get(r, 0) * right for r in {*lhs, *br}):
            _refuse(labels, i, j)


def _refuse(labels: Sequence[str], i: int, j: int):
    raise ContractViolation(
        f"internal: the adapted constants of [{labels[i]}, {labels[j]}] "
        "do not give the bracket of the adapted basis vectors"
    )


def unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if s == i else ZERO for s in range(n))
