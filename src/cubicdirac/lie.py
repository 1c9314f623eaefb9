"""Quadratic Lie algebras over Q and orthogonal splittings.

A quadratic Lie algebra carries a symmetric non-degenerate bilinear form B
that is ad-invariant: B([x,y],z) + B(y,[x,z]) = 0.  Structure constants are
given per unordered basis pair (i < j) as a coefficient vector and stored
sparsely, per ordered pair, as the nonzero terms ((k, c), ...) of
[e_i, e_j] = sum c e_k; the constructor validates antisymmetry conventions,
the Jacobi identity, non-degeneracy and ad-invariance eagerly, so an
instance is always a genuine quadratic Lie algebra.

`orthogonal_split` decomposes g = h + h_perp for a non-degenerate subalgebra
h, produces B-orthogonal bases of both parts (over Q one cannot normalize, so
the diagonal Gram entries d_i replace unit lengths), and re-expresses the
whole algebra in the adapted basis (h_perp vectors first, then h vectors)
where B is diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    invert,
    is_zero_vector,
    nullspace,
    rank,
    solve_linear,
    vec_add,
    vec_scale,
    vector,
)
from .sparse import _integer_terms

BracketTable = dict[tuple[int, int], tuple[Fraction, ...]]
SparseBrackets = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


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


def check_jacobi(dim: int, table: BracketTable):
    """None if the Jacobi identity holds; otherwise the first failing (i,j,k)."""
    br = _sparse_brackets(dim, table)
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = {}
                for pair, last in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for a, c in br[pair]:
                        for t, d in br[(a, last)]:
                            total[t] = total.get(t, ZERO) + c * d
                if any(total.values()):
                    return (i, j, k)
    return None


def check_ad_invariance(dim: int, table: BracketTable, form: Matrix):
    """None if B([x,y],z) + B(y,[x,z]) = 0 on all basis triples; else (i,j,k)."""
    br = _sparse_brackets(dim, table)
    for i in range(dim):
        for j in range(dim):
            vij = br[(i, j)]
            row_j = form.row(j)
            for k in range(dim):
                s = sum((c * form.entry(a, k) for a, c in vij), ZERO)
                s += sum((row_j[a] * c for a, c in br[(i, k)]), ZERO)
                if s != 0:
                    return (i, j, k)
    return None


def killing_form(dim: int, table: BracketTable) -> Matrix:
    """K(x,y) = trace(ad x ad y); may be degenerate."""
    return _killing(dim, _sparse_brackets(dim, table))


def _killing(dim: int, br: SparseBrackets) -> Matrix:
    # K(e_i, e_j) = sum_s (coefficient of e_s in [e_i, [e_j, e_s]])
    lookup = {pair: dict(terms) for pair, terms in br.items()}
    entries = []
    for i in range(dim):
        row = []
        for j in range(dim):
            t = ZERO
            for s in range(dim):
                for a, c in br[(j, s)]:
                    d = lookup[(i, a)].get(s)
                    if d:
                        t += c * d
            row.append(t)
        entries.append(row)
    return Matrix(entries, cols=dim)


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

        w = check_jacobi(self.dim, table)
        if w is not None:
            raise ValidationError("jacobi", witness=tuple(self.labels[a] for a in w))
        kernel = nullspace(form)
        if kernel:
            raise ValidationError(
                "form-non-degenerate",
                witness=kernel[0],
                detail="the bilinear form has a nonzero kernel vector",
            )
        w = check_ad_invariance(self.dim, table, form)
        if w is not None:
            raise ValidationError("ad-invariance", witness=tuple(self.labels[a] for a in w))
        self._sparse = _sparse_brackets(self.dim, table)
        self._integer_structure = None

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

    def _structure_over_integers(self):
        """(P, ad, preimage): the structure constants times their common denominator P.

        ad[a] lists the (s, r, P c) with [e_a, e_s] = ... + c e_r + ..., and
        preimage[r] the same triples with r fixed, as (a, s, P c).  Built on
        first use, so algebras that never meet the Chevalley-Eilenberg
        operators do not pay for it.
        """
        if self._integer_structure is None:
            den, flat = _integer_terms(
                {(a, s, r): c for (a, s), terms in self._sparse.items() for r, c in terms}
            )
            ad: list[list] = [[] for _ in range(self.dim)]
            preimage: list[list] = [[] for _ in range(self.dim)]
            for (a, s, r), c in flat:
                ad[a].append((s, r, c))
                preimage[r].append((a, s, c))
            self._integer_structure = den, tuple(map(tuple, ad)), tuple(map(tuple, preimage))
        return self._integer_structure

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

    def b(self, x: Sequence, y: Sequence) -> Fraction:
        x, y = self._coordinates(x, y)
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        total = ZERO
        for i, xi in enumerate(x):
            if xi:
                row = self.form.row(i)
                total += xi * sum((row[j] * yj for j, yj in ys if row[j]), ZERO)
        return total

    def is_abelian(self) -> bool:
        return not any(self._sparse.values())

    def killing(self) -> Matrix:
        return _killing(self.dim, self._sparse)

    def __repr__(self) -> str:
        return f"QuadraticLieAlgebra({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class OrthogonalSplit:
    """g = h + h_perp with B-orthogonal bases of both parts.

    p_vectors / h_vectors hold the orthogonalized bases in ambient
    coordinates; p_gram / h_gram are the corresponding diagonal Gram entries.
    `adapted` is the same Lie algebra re-expressed in the basis
    (p_1..p_m, h_1..h_k), where the form is diag(p_gram + h_gram).
    from_adapted maps adapted coordinates to ambient ones (its columns are the
    adapted basis vectors); to_adapted is its inverse.
    """

    ambient: QuadraticLieAlgebra
    p_vectors: tuple[tuple[Fraction, ...], ...]
    h_vectors: tuple[tuple[Fraction, ...], ...]
    p_gram: tuple[Fraction, ...]
    h_gram: tuple[Fraction, ...]
    adapted: QuadraticLieAlgebra
    from_adapted: Matrix
    to_adapted: Matrix

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
                full = self.adapted.bracket_basis(m + i, m + j)
                if any(full[:m]):
                    raise NotASubalgebraError(
                        "subalgebra bracket leaks into the complement", witness=(i, j)
                    )
                brackets[(i, j)] = full[m:]
        form = Matrix(
            [[self.h_gram[i] if i == j else ZERO for j in range(k)] for i in range(k)],
            cols=k,
        )
        labels = tuple(f"h{i + 1}" for i in range(k))
        return QuadraticLieAlgebra(f"{self.ambient.name}|h", labels, brackets, form)


def _span_solver(vectors: Sequence[Sequence[Fraction]], dim: int) -> Matrix:
    return Matrix.from_columns([vector(v) for v in vectors], rows=dim)


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
    """
    n = g.dim
    h_raw = [vector(v) for v in subalgebra]
    for v in h_raw:
        if len(v) != n:
            raise ContractViolation("subalgebra vector length does not match the algebra")
    k = len(h_raw)

    if k:
        hmat = _span_solver(h_raw, n)
        if rank(hmat) != k:
            raise NotASubalgebraError("subalgebra vectors are linearly dependent")
        for i in range(k):
            for j in range(i + 1, k):
                br = g.bracket(h_raw[i], h_raw[j])
                if solve_linear(hmat, br) is None:
                    raise NotASubalgebraError(
                        "not closed under the bracket", witness=(i, j)
                    )
        gram_h = Matrix(
            [[g.b(h_raw[i], h_raw[j]) for j in range(k)] for i in range(k)], cols=k
        )
        try:
            p_h, h_gram = diagonalize_form(gram_h)
        except DegenerateFormError as exc:
            raise DegenerateFormError(
                "the form restricted to the subalgebra is degenerate",
                witness=exc.witness,
            ) from exc
        h_vectors = []
        for col in p_h.columns():
            acc = (ZERO,) * n
            for c, hv in zip(col, h_raw):
                acc = vec_add(acc, vec_scale(c, hv))
            h_vectors.append(acc)
        # h_perp = kernel of x -> (B(h_i, x))_i
        pairing_rows = Matrix(
            [[g.b(h_raw[i], unit(n, s)) for s in range(n)] for i in range(k)], cols=n
        )
        complement = nullspace(pairing_rows)
    else:
        h_vectors = []
        h_gram = ()
        complement = nullspace(Matrix.zero(0, n))

    if p_variant and len(complement) >= 2:
        complement = list(reversed(complement))
        for _ in range(p_variant):
            complement[0] = vec_add(complement[0], complement[1])

    m = len(complement)
    if m:
        gram_p = Matrix(
            [[g.b(complement[i], complement[j]) for j in range(m)] for i in range(m)],
            cols=m,
        )
        p_p, p_gram = diagonalize_form(gram_p)
        p_vectors = []
        for col in p_p.columns():
            acc = (ZERO,) * n
            for c, pv in zip(col, complement):
                acc = vec_add(acc, vec_scale(c, pv))
            p_vectors.append(acc)
    else:
        p_vectors = []
        p_gram = ()

    for hv in h_vectors:
        for pv in p_vectors:
            if g.b(hv, pv) != 0:
                raise ContractViolation("internal: split bases are not B-orthogonal")

    from_adapted = Matrix.from_columns(list(p_vectors) + list(h_vectors), rows=n)
    to_adapted = invert(from_adapted)
    grams = tuple(p_gram) + tuple(h_gram)
    adapted_form = Matrix(
        [[grams[i] if i == j else ZERO for j in range(n)] for i in range(n)], cols=n
    )
    check = from_adapted.transpose() @ g.form @ from_adapted
    if check != adapted_form:
        raise ContractViolation("internal: adapted form mismatch")

    adapted_brackets = {}
    cols = from_adapted.columns()
    for i in range(n):
        for j in range(i + 1, n):
            br = g.bracket(cols[i], cols[j])
            if any(br):
                adapted_brackets[(i, j)] = to_adapted.mat_vec(br)
    labels = tuple(f"p{i + 1}" for i in range(m)) + tuple(f"h{j + 1}" for j in range(len(h_vectors)))
    adapted = QuadraticLieAlgebra(f"{g.name}#adapted", labels, adapted_brackets, adapted_form)

    # ad-invariance makes h_perp an h-module; check it anyway
    for j in range(len(h_vectors)):
        for i in range(m):
            if any(adapted.bracket_basis(m + j, i)[m:]):
                raise ContractViolation("internal: [h, h_perp] leaves h_perp")

    return OrthogonalSplit(
        ambient=g,
        p_vectors=tuple(p_vectors),
        h_vectors=tuple(h_vectors),
        p_gram=tuple(p_gram),
        h_gram=tuple(h_gram),
        adapted=adapted,
        from_adapted=from_adapted,
        to_adapted=to_adapted,
    )


def unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if s == i else ZERO for s in range(n))


def subalgebra_action(split: OrthogonalSplit, y_ambient: Sequence) -> Matrix:
    """Matrix of ad(y) restricted to h_perp, in the orthogonal p-basis.

    y must lie in the span of the subalgebra.  The result lies in so of the
    diagonal Gram: Gram * A is antisymmetric.
    """
    y_ad = split.to_adapted.mat_vec(vector(y_ambient))
    m = split.p_dim
    if any(y_ad[:m]):
        raise ContractViolation("vector is not in the subalgebra span")
    cols = []
    for i in range(m):
        acc = [ZERO] * m
        for j, c in enumerate(y_ad[m:]):
            if c:
                br = split.adapted.bracket_basis(m + j, i)
                if any(br[m:]):
                    raise ContractViolation("internal: action leaves h_perp")
                for t in range(m):
                    acc[t] += c * br[t]
        cols.append(tuple(acc))
    mat = Matrix.from_columns(cols, rows=m)
    for i in range(m):
        for j in range(m):
            if split.p_gram[i] * mat.entry(i, j) != -split.p_gram[j] * mat.entry(j, i):
                raise ContractViolation("internal: restricted action is not in so(Gram)")
    return mat
