"""The tensor product U(g) x C with the super sign rule, and its graded triple.

TensorElement lives in U(g) tensor C(V); the two factors commute, so
multiplication is componentwise (the Z2-grading of a term is the parity of
its Clifford blade).  Addition, scaling, equality, hashing and the carrier
check come from the shared LinearCombination base; TensorElement supplies
its carrier, its product and its repr.

The product runs on integers.  Each operand is put over its own common
denominator, and each distinct pair of PBW monomials is normalised once per
call with at most one bracket, read off the algebra's integer bracket table
(`_normal_form`): D has U-degree at most one, so no product of the checks
needs more.  The blades of a monomial pair are multiplied by the Clifford
product's own blade-pair loop, `clifford._overlap_sums`, once per monomial
of the pair's normal form, each monomial keeping its own table of sums per
blade overlap; so every product, twisted commutator and dv-* law of the
package runs on one loop.  Only at the end does
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

from .clifford import CliffordSpace, _overlap_sums
from .errors import ContractViolation
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

    def __mul__(self, other):
        """Super tensor product; scalars multiply coefficientwise.

        a's coefficients are over D_a and b's over D_b.  Each distinct pair
        of PBW monomials is normalised once on integers, its normal form
        over P^e, e <= 1, for the algebra's denominator P (`_normal_form`),
        and lifted to P^E, E the greatest e.  Each term (mono, N) of a pair's
        normal form runs the pair's blades through `clifford._overlap_sums`
        at scale N P^(E - e), into the overlap table of mono, over
        D_a D_b P^E; `CliffordSpace._scale_overlaps` applies each overlap's
        Gram product at the end, one table per monomial.
        """
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        den_a, left = _integer_terms(self.terms)
        den_b, right = _integer_terms(other.terms)
        blades_a: dict = {}
        blades_b: dict = {}
        for (mono, mask), n in left:
            blades_a.setdefault(mono, []).append((mask, n))
        for (mono, mask), n in right:
            blades_b.setdefault(mono, []).append((mask, n))
        structure = self.algebra._integer_structure
        normal = [(ma, mb, *_normal_form(structure, ma, mb)) for ma in blades_a for mb in blades_b]
        top = max((depth for _, _, depth, _ in normal), default=0)
        by_mono: dict = {}
        for ma, mb, depth, monos in normal:
            lift = structure[0] ** (top - depth)
            for mono, nm in monos:
                _overlap_sums(blades_a[ma], blades_b[mb], False, by_mono.setdefault(mono, {}), nm * lift)
        den = den_a * den_b * structure[0] ** top
        scale_overlaps = self.space._scale_overlaps
        terms = {(mono, mask): c for mono, table in by_mono.items() for mask, c in scale_overlaps(table, den).items()}
        return self._from_terms(self.carrier, terms)

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

    A concatenation already in PBW order (ma or mb empty, or ma[-1] <= mb[0])
    is its own normal form.  Two generators X_j X_i, j > i, are
    X_i X_j + [X_j, X_i], read off ad over P.  Any other pair needs more
    than one bracket and is refused.
    """
    if not (ma and mb and ma[-1] > mb[0]):
        return 0, ((ma + mb, 1),)
    if len(ma) != 1 or len(mb) != 1:
        degrees = f"a U-degree {len(ma)} monomial times a U-degree {len(mb)} monomial"
        raise ContractViolation(f"the tensor product takes at most one bracket; {degrees} out of PBW order needs more")
    den, ad, _ = structure
    terms = ad[ma[0]].get(mb[0])
    swapped = mb + ma
    if not terms:
        return 0, ((swapped, 1),)
    return 1, ((swapped, den), *(((k,), c) for k, c in terms))


class TripleTensorElement(TensorElement):
    """Element of U(g) x C(h_perp) (x)bar C(h), stored over C(h_perp + h).

    The product is TensorElement's, bound here so that bench/tracing.py
    times the decomposition side's products under their own name.
    """

    __slots__ = ()
    __mul__ = TensorElement.__mul__
