"""The tensor product U(g) x C with the super sign rule, and its graded triple.

TensorElement lives in U(g) tensor C(V); the two factors commute, so
multiplication is componentwise (the Z2-grading of a term is the parity of
its Clifford blade).  Addition, scaling, equality, hashing and the carrier
check come from the shared LinearCombination base; TensorElement supplies
its carrier, its product and its repr.

The product runs on integers.  Each operand is put over its own common
denominator, and each distinct pair of PBW monomials is normalised once per
call by the integer rewriter that reads the algebra's one bracket table
(`envelope._pbw_rewrite`; a pair of generators is read off it directly), its
normal form over a power of the table's denominator P; a pair whose
concatenation is already in PBW order is its own normal form and is not
rewritten.  Every blade pair of a monomial pair adds straight into the sum
of its blade overlap, one sum per overlap, and only at the end does
`CliffordSpace._scale_overlaps` scale each sum by the Gram product of its
overlap, putting each key over the lcm of the Gram denominators that reach
it and turning it into one Fraction.  So D^2 is never put over the product,
or the lcm, of all Gram denominators, which with large Gram denominators
would be a huge integer that every coefficient pays a gcd with.

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

from .clifford import CliffordSpace, Multivector, _swap_prefix
from .envelope import PBWElement, _pbw_rewrite
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

        a's coefficients are over D_a and b's over D_b.  Each distinct pair
        of PBW monomials is normalised once on integers, its normal form
        over P^e for the algebra's denominator P (see `_normal_form`), and
        all of them are lifted to P^E, E the greatest e.  Every blade pair
        of a monomial pair adds its signed numerator product, times each
        term of the pair's normal form, straight into the sum of its blade
        overlap, over D_a D_b P^E; `CliffordSpace._scale_overlaps` applies
        each overlap's Gram product at the end.
        """
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        den_a, left = _integer_terms(self.terms)
        den_b, right = _integer_terms(other.terms)
        blades_a: dict = {}
        blades_b: dict = {}
        for (mono, mask), n in left:
            blades_a.setdefault(mono, []).append((mask, n, _swap_prefix(mask)))
        for (mono, mask), n in right:
            blades_b.setdefault(mono, []).append((mask, n))
        structure = self.algebra._integer_structure
        normal = [(ma, mb, *_normal_form(structure, ma, mb)) for ma in blades_a for mb in blades_b]
        top = max((depth for _, _, depth, _ in normal), default=0)
        by_overlap: dict[int, dict] = {}
        for ma, mb, depth, monos in normal:
            if depth < top:
                lift = structure[0] ** (top - depth)
                monos = [(mono, n * lift) for mono, n in monos]
            right_blades = blades_b[mb]
            for mask_a, na, p in blades_a[ma]:
                for mask_b, nb in right_blades:
                    overlap = mask_a & mask_b
                    sums = by_overlap.get(overlap)
                    if sums is None:
                        sums = by_overlap[overlap] = {}
                    mask = mask_a ^ mask_b
                    n = -na * nb if (p & mask_b).bit_count() & 1 else na * nb
                    for mono, nm in monos:
                        key = (mono, mask)
                        sums[key] = sums.get(key, 0) + n * nm
        den = den_a * den_b * structure[0] ** top
        return self._from_terms(self.carrier, self.space._scale_overlaps(by_overlap, den))

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


def _normal_form(structure, ma: tuple, mb: tuple) -> tuple[int, tuple]:
    """The PBW normal form of the monomial ma mb as (e, ((monomial, N), ...)), each coefficient N / P^e.

    When the concatenation is already in PBW order (ma or mb empty, or
    ma[-1] <= mb[0]) it is its own normal form, and nothing is rewritten.
    Two generators X_j X_i, j > i, are X_i X_j + [X_j, X_i], read off ad
    over P; longer monomials go through `envelope._pbw_rewrite`.
    """
    if not (ma and mb and ma[-1] > mb[0]):
        return 0, ((ma + mb, 1),)
    den, ad, _ = structure
    if len(ma) == len(mb) == 1:
        terms = ad[ma[0]].get(mb[0])
        swapped = mb + ma
        if not terms:
            return 0, ((swapped, 1),)
        return 1, ((swapped, den), *(((k,), c) for k, c in terms))
    depth, out = _pbw_rewrite(structure, ((ma + mb, 1),))
    return depth, tuple(out.items())


class TripleTensorElement(TensorElement):
    """Element of U(g) x C(h_perp) (x)bar C(h), stored over C(h_perp + h).

    The product is TensorElement's, bound here so that bench/tracing.py
    times the decomposition side's products under their own name.
    """

    __slots__ = ()
    __mul__ = TensorElement.__mul__
