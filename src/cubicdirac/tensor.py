"""Tensor products U(g) x C and U(g) x C x C' with the super sign rule.

TensorElement lives in U(g) tensor C(h_perp); the two factors commute, so
multiplication is componentwise (the Z2-grading of a term is the parity of
its Clifford blade).  TripleTensorElement lives in U(g) tensor C(h_perp)
graded-tensor C(h): moving a C(h) blade past a C(h_perp) blade costs the
Koszul sign (-1)^{|k| |c'|}.  Addition, scaling, equality, hashing and
the carrier check come from the shared LinearCombination base; each class
here supplies its carrier, its product and its repr.
"""

from __future__ import annotations

from fractions import Fraction

from .clifford import CliffordSpace, Multivector, _blade_clifford
from .envelope import PBWElement, pbw_normalize
from .errors import ContractViolation
from .lie import QuadraticLieAlgebra
from .linalg import ZERO, as_scalar
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
        return TensorElement(self.algebra, self.space, out)

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


class TripleTensorElement(LinearCombination):
    """Element of U(g) x C(h_perp) x C(h) with the graded product."""

    __slots__ = ("algebra", "p_space", "h_space")
    carrier_fields = ("algebra", "p_space", "h_space")

    def __init__(self, algebra, p_space: CliffordSpace, h_space: CliffordSpace, terms: dict):
        self.algebra = algebra
        self.p_space = p_space
        self.h_space = h_space
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, algebra, p_space, h_space) -> "TripleTensorElement":
        return cls(algebra, p_space, h_space, {})

    @classmethod
    def from_tensor(cls, t: TensorElement, h_space: CliffordSpace, h_mask: int = 0, coeff=1):
        """t x (h blade); no sign, since the blade is appended on the right."""
        c0 = as_scalar(coeff)
        terms = {}
        for (mono, pmask), c in t.terms.items():
            terms[(mono, pmask, h_mask)] = c * c0
        return cls(t.algebra, t.space, h_space, terms)

    @staticmethod
    def _key_parity(key) -> int:
        """Total Clifford parity |p-blade| + |h-blade| mod 2."""
        return (key[1].bit_count() + key[2].bit_count()) & 1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}
        for (ma, pa, ha), ca in self.terms.items():
            for (mb, pb, hb), cb in other.terms.items():
                # Koszul sign: h-blade of the left factor passes the
                # h_perp-blade of the right factor
                sign = -1 if (ha.bit_count() & 1) and (pb.bit_count() & 1) else 1
                p_coeff, pmask = _blade_clifford(self.p_space, pa, pb)
                h_coeff, hmask = _blade_clifford(self.h_space, ha, hb)
                factor = sign * ca * cb * p_coeff * h_coeff
                if not factor:
                    continue
                for mono, mc in _mono_mul(self.algebra, ma, mb).items():
                    key = (mono, pmask, hmask)
                    acc = out.get(key, ZERO) + factor * mc
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return TripleTensorElement(self.algebra, self.p_space, self.h_space, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        labels = self.algebra.labels
        bits = []
        for (mono, pmask, hmask) in sorted(
            self.terms, key=lambda k: (len(k[0]), k[0], k[1], k[2])
        ):
            c = self.terms[(mono, pmask, hmask)]
            u = "*".join(labels[i] for i in mono) if mono else "1"
            p = "^".join(f"e{i + 1}" for i in range(self.p_space.dim) if pmask >> i & 1) or "1"
            h = "^".join(f"f{i + 1}" for i in range(self.h_space.dim) if hmask >> i & 1) or "1"
            bits.append(f"{c}*[{u} (x) {p} (x) {h}]")
        return " + ".join(bits)


def graded_commutator(a, b):
    """[a, b] = ab - (-1)^{|a||b|} ba on homogeneous a, b."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise ContractViolation("graded commutator needs Z2-homogeneous arguments")
    sign = -1 if pa and pb else 1
    return a * b - sign * (b * a)
