"""Universal enveloping algebra in PBW normal form.

Elements are Q-linear combinations of monomials X_{i1}...X_{ik} with
i1 <= ... <= ik in a fixed basis order.  Products are normalized by the
rewriting rule X_j X_i -> X_i X_j + [X_j, X_i] for j > i, which terminates
because each step lowers (degree, inversion count) lexicographically; by the
PBW theorem the normal form does not depend on the rewrite order.

The rewriting runs on integers (`_pbw_rewrite`): it reads the brackets off
the algebra's integer structure, whose constants are numerators over P, and
tracks how many brackets each term has taken, so that a term of depth e is
a numerator over P^e.  The normal form comes out over P^E, E the greatest
such depth, with no Fraction built.  `pbw_normalize` is its Fraction face.
No check reaches this module: the tensor product takes its one bracket per
product off the bracket table itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContractViolation
from .lie import BracketStructure, QuadraticLieAlgebra
from .linalg import ZERO, as_scalar
from .sparse import LinearCombination, _fractions_over, _integer_terms

Monomial = tuple[int, ...]


def _pbw_rewrite(structure: BracketStructure, raw) -> tuple[int, dict]:
    """(E, {monomial: N}): the normal form of sum n m over the (monomial m,
    integer n) in raw, each coefficient N / P^E.

    P is the structure's common denominator and E the most brackets taken
    by a term that reached normal form; the numerators of the terms that
    took e brackets are lifted by P^(E - e).  Keys whose numerators cancel
    are left out.
    """
    den, ad, _ = structure
    by_depth: list[dict] = [{}]
    stack = [(mono, n, 0) for mono, n in raw]
    while stack:
        mono, n, depth = stack.pop()
        if not n:
            continue
        for t in range(len(mono) - 1):
            if mono[t] > mono[t + 1]:
                j, i = mono[t], mono[t + 1]
                head, tail = mono[:t], mono[t + 2 :]
                stack.append((head + (i, j) + tail, n, depth))
                for k, c in ad[j].get(i, ()):
                    stack.append((head + (k,) + tail, n * c, depth + 1))
                break
        else:
            while depth >= len(by_depth):
                by_depth.append({})
            terms = by_depth[depth]
            terms[mono] = terms.get(mono, 0) + n
    top = len(by_depth) - 1
    out: dict = {}
    for depth, terms in enumerate(by_depth):
        lift = den ** (top - depth)
        for mono, n in terms.items():
            out[mono] = out.get(mono, 0) + n * lift
    return top, {mono: n for mono, n in out.items() if n}


def pbw_normalize(algebra: QuadraticLieAlgebra, raw: dict) -> dict:
    """The PBW normal form of {monomial: coefficient}, as {monomial: Fraction}."""
    den, terms = _integer_terms({tuple(m): as_scalar(c) for m, c in raw.items()})
    structure = algebra._integer_structure
    depth, out = _pbw_rewrite(structure, terms)
    return _fractions_over(out, den * structure[0] ** depth)


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

