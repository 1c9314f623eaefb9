"""Universal enveloping algebra in PBW normal form.

Elements are Q-linear combinations of monomials X_{i1}...X_{ik} with
i1 <= ... <= ik in a fixed basis order.  Products are normalized by the
rewriting rule X_j X_i -> X_i X_j + [X_j, X_i] for j > i, which terminates
because each step lowers (degree, inversion count) lexicographically; by the
PBW theorem the normal form does not depend on the rewrite order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ContractViolation
from .lie import QuadraticLieAlgebra
from .linalg import ZERO, as_scalar
from .sparse import LinearCombination

Monomial = tuple[int, ...]


def pbw_normalize(algebra: QuadraticLieAlgebra, raw: dict) -> dict:
    out: dict[Monomial, Fraction] = {}
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


class PBWElement(LinearCombination):
    """Element of U(g) on the PBW monomial basis."""

    __slots__ = ("algebra",)
    carrier_fields = ("algebra",)

    def __init__(self, algebra: QuadraticLieAlgebra, terms: dict):
        """terms must already be in PBW normal form; zero coefficients are dropped."""
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, algebra) -> "PBWElement":
        return cls(algebra, {})

    @classmethod
    def scalar(cls, algebra, c) -> "PBWElement":
        return cls(algebra, {(): as_scalar(c)})

    @classmethod
    def one(cls, algebra) -> "PBWElement":
        return cls.scalar(algebra, 1)

    @classmethod
    def generator(cls, algebra, i: int) -> "PBWElement":
        if not 0 <= i < algebra.dim:
            raise ContractViolation("generator index out of range")
        return cls(algebra, {(i,): Fraction(1)})

    @classmethod
    def from_vector(cls, algebra, coords: Sequence) -> "PBWElement":
        (coords,) = algebra._coordinates(coords)
        return cls(algebra, {(i,): c for i, c in enumerate(coords) if c})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        raw: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = ma + mb
                raw[mono] = raw.get(mono, ZERO) + ca * cb
        return PBWElement(self.algebra, pbw_normalize(self.algebra, raw))

    def commutator(self, other: "PBWElement") -> "PBWElement":
        return self * other - other * self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        bits = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            if not m:
                bits.append(str(c))
                continue
            word = "*".join(labels[i] for i in m)
            bits.append(word if c == 1 else f"{c}*{word}")
        return " + ".join(bits)


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
