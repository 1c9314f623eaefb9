"""The tensor product U(g) x C with the super sign rule, and its graded triple.

TensorElement lives in U(g) tensor C(V); the two factors commute, so
multiplication is componentwise (the Z2-grading of a term is the parity of
its Clifford blade).  Addition, scaling, equality, hashing and the carrier
check come from the shared LinearCombination base; TensorElement supplies
its carrier, its product and its repr.

The graded triple U(g) x C(h_perp) (x)bar C(h) needs no second product.  For
an orthogonal sum, C(h_perp + h) = C(h_perp) (x)bar C(h) (Chevalley), and in
a basis with the h_perp vectors first (bits 0..m-1) and the h vectors after
them, the blade p (x)bar h is the blade on the concatenated mask
p | h << m.  The Clifford sign of (p_a h_a)(p_b h_b) is the sign of moving
h_a past p_b, which is the Koszul sign (-1)^{|h_a| |p_b|}, times the signs of
p_a p_b and h_a h_b, and the Gram product over the overlap splits the same
way.  So TripleTensorElement is TensorElement over CliffordSpace(p_gram +
h_gram), the Clifford space of g in its adapted basis.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import CliffordSpace, Multivector, _blade_clifford
from .envelope import PBWElement, pbw_normalize
from .errors import ContractViolation
from .lie import QuadraticLieAlgebra
from .linalg import ZERO
from .sparse import LinearCombination


def _mono_mul(algebra, ma, mb) -> dict:
    return pbw_normalize(algebra, {ma + mb: Fraction(1)})


class TensorElement(LinearCombination):
    """Element of U(g) x C on the basis (PBW monomial, blade)."""

    __slots__ = ("algebra", "space")
    carrier_fields = ("algebra", "space")

    def __init__(self, algebra: QuadraticLieAlgebra, space: CliffordSpace, terms: dict):
        self.algebra = algebra
        self.space = space
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, algebra, space) -> "TensorElement":
        return cls(algebra, space, {})

    @classmethod
    def one(cls, algebra, space) -> "TensorElement":
        return cls(algebra, space, {((), 0): Fraction(1)})

    @classmethod
    def from_parts(cls, u: PBWElement, c: Multivector) -> "TensorElement":
        terms = {}
        for mono, cu in u.terms.items():
            for mask, cc in c.terms.items():
                terms[(mono, mask)] = cu * cc
        return cls(u.algebra, c.space, terms)

    @staticmethod
    def _key_parity(key) -> int:
        """Z2-degree of a term: its Clifford blade parity (U carries no grading)."""
        return key[1].bit_count() & 1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}
        for (ma, ka), ca in self.terms.items():
            for (mb, kb), cb in other.terms.items():
                bl_coeff, mask = _blade_clifford(self.space, ka, kb)
                factor = ca * cb * bl_coeff
                if not factor:
                    continue
                for mono, mc in _mono_mul(self.algebra, ma, mb).items():
                    key = (mono, mask)
                    acc = out.get(key, ZERO) + factor * mc
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return self._from_terms(self.carrier, out)

    def u_degree_terms(self, k: int) -> dict:
        return {key: c for key, c in self.terms.items() if len(key[0]) == k}

    def scalar_coefficient(self) -> Fraction:
        return self.terms.get(((), 0), ZERO)

    def is_scalar_multiple_of_one(self) -> bool:
        return all(k == ((), 0) for k in self.terms)

    def commutator(self, other: "TensorElement") -> "TensorElement":
        return self * other - other * self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        bits = []
        for (mono, mask) in sorted(self.terms, key=lambda k: (len(k[0]), k[0], k[1])):
            c = self.terms[(mono, mask)]
            u = "*".join(labels[i] for i in mono) if mono else "1"
            blade = (
                "^".join(f"e{i + 1}" for i in range(self.space.dim) if mask >> i & 1)
                if mask
                else "1"
            )
            bits.append(f"{c}*[{u} (x) {blade}]")
        return " + ".join(bits)


class TripleTensorElement(TensorElement):
    """Element of U(g) x C(h_perp) (x)bar C(h), stored over C(h_perp + h).

    The product is TensorElement's, bound here so that bench/tracing.py
    times the decomposition side's products under their own name.
    """

    __slots__ = ()
    __mul__ = TensorElement.__mul__


def graded_commutator(a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba on homogeneous a, b."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise ContractViolation("graded commutator needs Z2-homogeneous arguments")
    sign = -1 if pa and pb else 1
    return a * b - sign * (b * a)
