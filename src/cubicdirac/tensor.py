"""The tensor product U(g) x C with the super sign rule, and its graded triple.

TensorElement lives in U(g) tensor C(V); the two factors commute, so
multiplication is componentwise (the Z2-grading of a term is the parity of
its Clifford blade).  Addition, scaling, equality, hashing and the carrier
check come from the shared LinearCombination base; TensorElement supplies
its carrier, its product and its repr.

The product runs on the Clifford product's integer kernel.  Each operand is
put over its own common denominator, and each distinct pair of PBW
monomials is normalised once per call, its normal forms over their lcm; a
pair whose concatenation is already in PBW order is its own normal form and
is not rewritten.
The blades of each monomial pair are multiplied by `clifford._overlap_sums`,
one sum per blade overlap, and each blade sum is spread over that pair's
normal form; only at the end does `CliffordSpace._scale_overlaps` scale
each sum by the Gram product of its overlap and turn it into a Fraction.
So D^2 is never put over the product of all Gram denominators, which with
large Gram denominators would be a huge integer that every coefficient
pays a gcd with.

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

from .clifford import ONE, CliffordSpace, Multivector, _overlap_sums
from .envelope import PBWElement, pbw_normalize
from .lie import QuadraticLieAlgebra
from .linalg import ZERO
from .sparse import LinearCombination, _integer_terms


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

    def __mul__(self, other):
        """Super tensor product; scalars multiply coefficientwise.

        a's coefficients are over D_a and b's over D_b; each distinct pair
        of PBW monomials is normalised once, and the normal forms are put
        over their lcm D_m.  The blades of a monomial pair multiply in
        `_overlap_sums`, and each blade sum is spread over the pair's normal
        form, so every sum is over D_a D_b D_m and needs only the Gram
        product of its overlap, which `CliffordSpace._scale_overlaps`
        applies at the end.
        """
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        den_a, left = _integer_terms(self.terms)
        den_b, right = _integer_terms(other.terms)
        blades_a: dict = {}
        blades_b: dict = {}
        for blades, terms in ((blades_a, left), (blades_b, right)):
            for (mono, mask), n in terms:
                blades.setdefault(mono, []).append((mask, n))
        den_m, normal = _integer_terms({
            (ma, mb, mono): c
            for ma in blades_a
            for mb in blades_b
            for mono, c in _normal_form(self.algebra, ma, mb)
        })
        products: dict = {}
        for (ma, mb, mono), nm in normal:
            products.setdefault((ma, mb), []).append((mono, nm))
        by_overlap: dict[int, dict] = {}
        for (ma, mb), monos in products.items():
            for overlap, blade_sums in _overlap_sums(blades_a[ma], blades_b[mb], False).items():
                sums = by_overlap.setdefault(overlap, {})
                for mask, n in blade_sums.items():
                    for mono, nm in monos:
                        key = (mono, mask)
                        sums[key] = sums.get(key, 0) + n * nm
        return self._from_terms(self.carrier, self.space._scale_overlaps(by_overlap, den_a * den_b * den_m))

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


def _normal_form(algebra: QuadraticLieAlgebra, ma: tuple, mb: tuple):
    """The PBW normal form of the monomial ma mb as (monomial, coefficient) pairs.

    When the concatenation is already in PBW order (ma or mb empty, or
    ma[-1] <= mb[0]) it is its own normal form, and nothing is rewritten.
    """
    if ma and mb and ma[-1] > mb[0]:
        return pbw_normalize(algebra, {ma + mb: ONE}).items()
    return ((ma + mb, ONE),)


class TripleTensorElement(TensorElement):
    """Element of U(g) x C(h_perp) (x)bar C(h), stored over C(h_perp + h).

    The product is TensorElement's, bound here so that bench/tracing.py
    times the decomposition side's products under their own name.
    """

    __slots__ = ()
    __mul__ = TensorElement.__mul__
