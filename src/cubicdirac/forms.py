"""Multilinear maps on a Lie algebra and the Chevalley-Eilenberg operators.

A MultilinearMap of arity k is a table over all n^k basis index tuples (no
symmetry compression; only nonzero entries are physically stored, reads
default to zero).  The three operators below are literal transcriptions of
the coordinate formulas, evaluated on every output tuple:

  (d w)(x_0..x_k)     = sum_{s<t} (-1)^s w(x_0.. x_s-hat .. [x_s,x_t]@t .. x_k)
  (theta_X w)(x_1..x_k) = sum_s w(x_1 .. [X, x_s] .. x_k)
  (iota_X w)(...)       = w(X, ...)

d raises arity by one and is capped so results stay within arity 4.  On
alternating maps these are the usual Lie-algebra-cohomology operators with
trivial coefficients; d of a 0-form is zero.  A map's table is its `terms`;
addition, scaling, equality and the carrier check (the algebra and the
arity) come from the shared LinearCombination base.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .clifford import CliffordSpace, Multivector
from .errors import ContractViolation, UnsupportedArityError
from .lie import QuadraticLieAlgebra
from .linalg import ZERO, as_scalar, vector
from .sparse import LinearCombination

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
    n = g.dim
    k = w.arity
    if k + 1 > MAX_ARITY:
        raise UnsupportedArityError(f"differential of arity {k} exceeds the arity cap")
    get = w.terms.get
    sparse = g.bracket_sparse
    out = {}
    for idx in product(range(n), repeat=k + 1):
        total = ZERO
        for s in range(k + 1):
            negative = s & 1
            for t in range(s + 1, k + 1):
                br = sparse(idx[s], idx[t])
                if not br:
                    continue
                base = idx[:s] + idx[s + 1 :]
                pos = t - 1
                head, tail = base[:pos], base[pos + 1 :]
                for r, c in br:
                    val = get(head + (r,) + tail)
                    if val:
                        total = total - c * val if negative else total + c * val
        if total:
            out[idx] = total
    return MultilinearMap._from_terms((g, k + 1), out)


def lie_action(x: Sequence, w: MultilinearMap) -> MultilinearMap:
    """theta_X w: the natural action, inserting [X, .] slot by slot."""
    g = w.algebra
    n = g.dim
    k = w.arity
    x = vector(x)
    adx = []
    for s in range(n):
        col: dict[int, Fraction] = {}
        for i, xi in enumerate(x):
            if xi:
                for r, c in g.bracket_sparse(i, s):
                    col[r] = col.get(r, ZERO) + xi * c
        adx.append(tuple((r, c) for r, c in col.items() if c))
    get = w.terms.get
    out = {}
    for idx in product(range(n), repeat=k):
        total = ZERO
        for s in range(k):
            head, tail = idx[:s], idx[s + 1 :]
            for r, c in adx[idx[s]]:
                val = get(head + (r,) + tail)
                if val:
                    total += c * val
        if total:
            out[idx] = total
    return MultilinearMap._from_terms((g, k), out)


def insert_first(x: Sequence, w: MultilinearMap) -> MultilinearMap:
    """iota_X w = w(X, ...); defined for arity >= 1."""
    if w.arity == 0:
        raise ContractViolation("cannot contract an arity-0 map")
    g = w.algebra
    x = vector(x)
    get = w.terms.get
    out = {}
    for idx in product(range(g.dim), repeat=w.arity - 1):
        total = ZERO
        for a, xa in enumerate(x):
            if xa:
                val = get((a,) + idx)
                if val:
                    total += xa * val
        if total:
            out[idx] = total
    return MultilinearMap._from_terms((g, w.arity - 1), out)


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
    x = vector(x)
    if len(x) != algebra.dim:
        raise ContractViolation("coordinate length does not match the algebra")
    bx = algebra.form.mat_vec(x)  # B(x, e_k) = (Bx)_k, B being symmetric
    terms = {}
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            val = sum((c * bx[k] for k, c in algebra.bracket_sparse(i, j)), ZERO)
            if val:
                terms[(1 << i) | (1 << j)] = val / (space.gram[i] * space.gram[j])
    return Multivector(space, terms)


def form_of_trivector(algebra: QuadraticLieAlgebra, v: Multivector) -> MultilinearMap:
    """Read a degree-3 multivector back as the arity-3 map pairing(v, .^.^.)."""
    space = v.space
    if space.dim != algebra.dim:
        raise ContractViolation("multivector space does not match the algebra")
    from .clifford import pairing

    n = space.dim
    out = {}
    for idx in product(range(n), repeat=3):
        i, j, k = idx
        if len({i, j, k}) < 3:
            continue
        wedge = (space.generator(i) ^ space.generator(j)) ^ space.generator(k)
        val = pairing(v, wedge)
        if val:
            out[idx] = val
    return MultilinearMap._from_terms((algebra, 3), out)
