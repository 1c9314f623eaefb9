"""Multilinear maps on a Lie algebra and the Chevalley-Eilenberg operators.

A MultilinearMap of arity k is a table over all n^k basis index tuples (no
symmetry compression; only nonzero entries are physically stored, reads
default to zero).  The three operators below are the coordinate formulas

  (d w)(x_0..x_k)     = sum_{s<t} (-1)^s w(x_0.. x_s-hat .. [x_s,x_t]@t .. x_k)
  (theta_X w)(x_1..x_k) = sum_s w(x_1 .. [X, x_s] .. x_k)
  (iota_X w)(...)       = w(X, ...)

read backwards: each one walks the nonzero entries of w and scatters every
entry into the output tuples it contributes to, so the work grows with the
support of w, not with n^k.  d finds the pairs (x_s, x_t) whose bracket
reaches a slot's index through the algebra's preimage index, and theta_X
reads the rows of ad X off ad e_a for the a in the support of X, so on a
basis vector it costs O(n + nnz(ad e_a)).  Both indexes come from
`QuadraticLieAlgebra._structure_over_integers` and hold the structure
constants over one common denominator; every operator adds integer
numerators, building one Fraction per output tuple at the end.

d raises arity by one and is capped so results stay within arity 4.  On
alternating maps these are the usual Lie-algebra-cohomology operators with
trivial coefficients; d of a 0-form is zero.  A map's table is its `terms`;
addition, scaling, equality and the carrier check (the algebra and the
arity) come from the shared LinearCombination base.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Mapping, Sequence

from .clifford import CliffordSpace, Multivector
from .errors import ContractViolation, UnsupportedArityError
from .lie import QuadraticLieAlgebra
from .linalg import ZERO, as_scalar, vector
from .sparse import LinearCombination, _fractions_over, _integer_terms

MAX_ARITY = 4


class MultilinearMap(LinearCombination):
    __slots__ = ("algebra", "arity")
    carrier_fields = ("algebra", "arity")

    def __init__(self, algebra: QuadraticLieAlgebra, arity: int, values: Mapping):
        if not 0 <= arity <= MAX_ARITY:
            raise UnsupportedArityError(f"arity {arity} outside 0..{MAX_ARITY}")
        self.algebra = algebra
        self.arity = arity
        table = {}
        for key, val in values.items():
            key = tuple(key)
            if len(key) != arity:
                raise ContractViolation("index tuple length does not match arity")
            if any(not 0 <= i < algebra.dim for i in key):
                raise ContractViolation("index out of range")
            val = as_scalar(val)
            if val:
                table[key] = val
        self.terms = table

    @classmethod
    def zero(cls, algebra, arity: int) -> "MultilinearMap":
        return cls(algebra, arity, {})

    @classmethod
    def from_matrix(cls, algebra, mat) -> "MultilinearMap":
        if mat.rows != algebra.dim or mat.cols != algebra.dim:
            raise ContractViolation("matrix shape does not match the algebra")
        return cls(
            algebra,
            2,
            {
                (i, j): mat.entry(i, j)
                for i in range(algebra.dim)
                for j in range(algebra.dim)
            },
        )

    @classmethod
    def covector(cls, algebra, x: Sequence) -> "MultilinearMap":
        """x* = B(x, .) as an arity-1 map."""
        x = vector(x)
        return cls(
            algebra,
            1,
            {(i,): algebra.b(x, [Fraction(int(s == i)) for s in range(algebra.dim)]) for i in range(algebra.dim)},
        )

    @property
    def values(self) -> dict:
        """The nonzero table entries, keyed by index tuple."""
        return self.terms

    def value(self, key: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(key), ZERO)

    def is_alternating(self) -> bool:
        for key, val in self.terms.items():
            if len(set(key)) != len(key):
                return False
            for s in range(len(key) - 1):
                swapped = key[:s] + (key[s + 1], key[s]) + key[s + 2 :]
                if self.terms.get(swapped, ZERO) != -val:
                    return False
        return True

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{key}:{val}" for key, val in sorted(self.terms.items())
        )
        return f"MultilinearMap(arity={self.arity}, {{{entries}}})"


def ce_differential(w: MultilinearMap) -> MultilinearMap:
    """The coboundary; raises arity by one (input arity at most 3)."""
    g = w.algebra
    k = w.arity
    if k + 1 > MAX_ARITY:
        raise UnsupportedArityError(f"differential of arity {k} exceeds the arity cap")
    den, entries = _integer_terms(w.terms)
    den_g, _, preimage = g._structure_over_integers()
    out: dict = {}
    for key, val in entries:
        for pos, r in enumerate(key):
            tail = key[pos + 1 :]
            for a, b, c in preimage[r]:
                cv = c * val
                for s in range(pos + 1):
                    idx = key[:s] + (a,) + key[s:pos] + (b,) + tail
                    out[idx] = out.get(idx, 0) + (-cv if s & 1 else cv)
    return MultilinearMap._from_terms((g, k + 1), _fractions_over(out, den * den_g))


def lie_action(x: Sequence, w: MultilinearMap) -> MultilinearMap:
    """theta_X w: the natural action, inserting [X, .] slot by slot."""
    g = w.algebra
    (x,) = g._coordinates(x)
    # row r of ad X: the (s, c) with [X, e_s] = ... + c e_r + ..., over
    # den_x * den_g, read off ad e_a for the a in the support of X
    den_x, support = _integer_terms({a: xa for a, xa in enumerate(x) if xa})
    den_g, ad, _ = g._structure_over_integers()
    rows: dict[int, dict[int, int]] = {}
    for a, xa in support:
        for s, r, c in ad[a]:
            row = rows.setdefault(r, {})
            row[s] = row.get(s, 0) + xa * c
    den, entries = _integer_terms(w.terms)
    out: dict = {}
    for key, val in entries:
        for pos, r in enumerate(key):
            row = rows.get(r)
            if row:
                head, tail = key[:pos], key[pos + 1 :]
                for s, c in row.items():
                    idx = head + (s,) + tail
                    out[idx] = out.get(idx, 0) + c * val
    return MultilinearMap._from_terms((g, w.arity), _fractions_over(out, den * den_x * den_g))


def insert_first(x: Sequence, w: MultilinearMap) -> MultilinearMap:
    """iota_X w = w(X, ...); defined for arity >= 1."""
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
    coords = dict(coords)
    den, entries = _integer_terms(picked)
    out: dict = {}
    for key, val in entries:
        rest = key[1:]
        out[rest] = out.get(rest, 0) + coords[key[0]] * val
    return MultilinearMap._from_terms((g, w.arity - 1), _fractions_over(out, den * den_x))


def bracket_coproduct(space: CliffordSpace, algebra: QuadraticLieAlgebra, x: Sequence) -> Multivector:
    """The degree-2 multivector delta(x) with pairing(delta(x), y^z) = B(x,[y,z]).

    The space must consist of the first space.dim basis directions of the
    algebra with matching diagonal Gram; with a diagonal Gram the defining
    equations decouple and the blade coefficient at {i,j} is
    B(x, [e_i, e_j]) / (d_i d_j).
    """
    if space.dim > algebra.dim:
        raise ContractViolation("space does not embed in the algebra")
    for i in range(space.dim):
        if algebra.form.entry(i, i) != space.gram[i]:
            raise ContractViolation("space Gram does not match the algebra form")
    (x,) = algebra._coordinates(x)
    bx = algebra.form.mat_vec(x)  # B(x, e_k) = (Bx)_k, B being symmetric
    terms = {}
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            val = sum((c * bx[k] for k, c in algebra.bracket_sparse(i, j)), ZERO)
            if val:
                terms[(1 << i) | (1 << j)] = val / (space.gram[i] * space.gram[j])
    return Multivector(space, terms)


def form_of_trivector(algebra: QuadraticLieAlgebra, v: Multivector) -> MultilinearMap:
    """Read a degree-3 multivector back as the arity-3 map pairing(v, .^.^.).

    A degree-3 blade c e_i^e_j^e_k (i < j < k) pairs with e_p^e_q^e_r to
    sign(p, q, r) c d_i d_j d_k when (p, q, r) orders {i, j, k}, else to 0.
    """
    space = v.space
    if space.dim != algebra.dim:
        raise ContractViolation("multivector space does not match the algebra")
    out = {}
    for mask, c in v.degree_part(3).terms.items():
        i, j, k = (t for t in range(space.dim) if mask >> t & 1)
        val = c * space.gram[i] * space.gram[j] * space.gram[k]
        # permutations() lists the orderings of (i, j, k) with these signs
        for idx, sign in zip(permutations((i, j, k)), (1, -1, -1, 1, 1, -1)):
            out[idx] = sign * val
    return MultilinearMap._from_terms((algebra, 3), out)
