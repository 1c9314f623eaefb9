"""Clifford algebra of an orthogonal rational quadratic space.

The space carries an orthogonal basis e_1..e_m with B(e_i, e_i) = d_i != 0
(no normalization is possible over Q, so the d_i travel through every
formula).  Multivectors are stored on the exterior-algebra basis of ordered
blades e_{i1}^...^e_{ik}, i1 < ... < ik, encoded as bitmasks; the Clifford
product is defined through that identification: a blade acts as the Clifford
product of its generators, and a generator acts as exterior multiplication
plus contraction,

    x * w = x ^ w + iota(x) w,

which encodes the defining relation x y + y x = 2 B(x, y).  The contraction
iota(x) is the transpose of wedging by x for the extended pairing <.,.>,
which extends B to blades by Gram determinants.

Products run on integer numerators, one sum per blade overlap, and each
output key becomes one Fraction over the lcm of the Gram denominators of
the overlaps that reach it (`CliffordSpace._scale_overlaps`); integer Gram
entries take the same path, each denominator 1.  The package has one
blade-pair loop, `_overlap_sums`, which adds into a table it is handed,
each product times its own integer scale: the product and the twisted
commutator hand it an empty table and scale 1; the dv-* laws in `dirac`
add the products on both sides of a law into one table over a common
denominator, so that the law holds exactly when the scaled table is
empty; and the tensor product in `tensor` adds the blades of each pair of
PBW monomials into one table per monomial of their normal form, scaled by
its coefficient.

The degree-2 elements the operator needs are built elsewhere, in closed
form: the bracket coproduct delta(x) in `forms`, and the spin lift of
ad y on h_perp, y in h, which `dirac` reads off it as -1/2 delta(y).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Iterable, Sequence

from .errors import ContractViolation
from .linalg import ZERO, as_scalar, vector
from .sparse import LinearCombination, _integer_terms

ONE = Fraction(1)
# the signs of the orderings of three indices, in the order permutations() lists them
_ORDERING_SIGNS = (1, -1, -1, 1, 1, -1)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CliffordSpace:
    """An orthogonal basis with nonzero diagonal Gram entries.

    A product of blades e_A e_B is +-(the product of d_i over A & B) times
    e_{A ^ B}.  The blade-pair loop `_overlap_sums`, which every product
    runs on, adds integer numerators into one sum per overlap A & B, and
    `_scale_overlaps` multiplies each sum by its
    overlap's Gram product, each key over the lcm of the denominators that
    reach it, so no coefficient is ever put over the product or the lcm of
    all Gram denominators.
    """

    __slots__ = ("dim", "gram", "_overlap_grams")

    def __init__(self, gram: Sequence):
        self.gram = vector(gram)
        self.dim = len(self.gram)
        if any(d == 0 for d in self.gram):
            raise ContractViolation("Gram entries must be nonzero")
        self._overlap_grams: dict[int, Fraction] = {}

    def _gram_product(self, mask: int) -> Fraction:
        """The product of d_i over the bits of mask, kept per mask on first use;
        numerators and denominators are multiplied as integers, and reduced once."""
        prod = self._overlap_grams.get(mask)
        if prod is None:
            num = den = 1
            for i in _bits(mask):
                num *= self.gram[i].numerator
                den *= self.gram[i].denominator
            prod = self._overlap_grams[mask] = Fraction(num, den)
        return prod

    def _scale_overlaps(self, by_overlap: dict, den: int) -> dict:
        """{key: c} from {overlap: {key: n}} over den: each n times the Gram product of its overlap.

        Each key is kept as an integer numerator over the lcm of the Gram
        denominators that have reached it so far, so its contributions are
        integer adds, lifted only when a new denominator raises that lcm,
        and it gets one Fraction at the end; no key is put over the lcm of
        all the overlaps' denominators.  A key whose contributions cancel is
        left out.  Integer Gram entries take the same path: each denominator
        is then 1, and every contribution is one integer add.
        """
        # key -> [lcm of the denominators that reached it, numerator over it]
        acc: dict = {}
        for overlap, sums in by_overlap.items():
            g = self._gram_product(overlap)
            num, d = g.numerator, g.denominator
            for key, n in sums.items():
                if not n:
                    continue
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [d, n * num]
                    continue
                common = slot[0]
                if common % d:
                    wider = lcm(common, d)
                    slot[1] *= wider // common
                    slot[0] = common = wider
                slot[1] += n * num * (common // d)
        return {key: Fraction(n, common * den) for key, (common, n) in acc.items() if n}

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def scalar(self, c) -> "Multivector":
        return Multivector(self, {0: as_scalar(c)})

    def one(self) -> "Multivector":
        return self.scalar(1)

    def generator(self, i: int) -> "Multivector":
        if not 0 <= i < self.dim:
            raise ContractViolation("generator index out of range")
        return Multivector(self, {1 << i: ONE})

    def vector(self, coords: Sequence) -> "Multivector":
        coords = vector(coords)
        if len(coords) != self.dim:
            raise ContractViolation("coordinate length does not match the space")
        return Multivector(self, {1 << i: c for i, c in enumerate(coords) if c})

    def blade(self, indices: Iterable[int], coeff=1) -> "Multivector":
        mask = 0
        for i in indices:
            bit = 1 << i
            if not 0 <= i < self.dim:
                raise ContractViolation("blade index out of range")
            if mask & bit:
                raise ContractViolation("blade indices must be distinct")
            mask |= bit
        return Multivector(self, {mask: as_scalar(coeff)})

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"CliffordSpace(gram={[str(d) for d in self.gram]})"


def _swap_prefix(ma: int) -> int:
    """p with bit j the parity of the bits of ma above j, so that the sign of
    e_A e_B is the parity of popcount(p & mb).

    popcount(p & mb) has the parity of the pairs (i in ma, j in mb) with
    i > j: that count, sum over s >= 1 of popcount((ma >> s) & mb), is the
    number of transpositions that sort e_A e_B into ascending order.  p is
    the xor of ma >> s over s >= 1, built by doubling.
    """
    p = ma >> 1
    s = 1
    top = ma.bit_length()
    while s < top:
        p ^= p >> s
        s <<= 1
    return p


class Multivector(LinearCombination):
    """Element of the Clifford algebra on ordered-blade coordinates."""

    __slots__ = ("space",)
    carrier_fields = ("space",)

    def __init__(self, space: CliffordSpace, terms: dict):
        self.space = space
        self.terms = {m: c for m, c in terms.items() if c}

    def __mul__(self, other):
        """Clifford product, `_product` untwisted; scalars multiply coefficientwise."""
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        return _product(self, other, False)

    def __xor__(self, other: "Multivector") -> "Multivector":
        """Exterior product (use parentheses: ^ binds loosely in Python): the
        blade pairs of the Clifford product with no overlap."""
        self._check(other)
        den_a, left = _integer_terms(self.terms)
        den_b, right = _integer_terms(other.terms)
        disjoint = _overlap_sums(left, right, False, {}, 1).get(0, {})
        return Multivector._from_terms((self.space,), self.space._scale_overlaps({0: disjoint}, den_a * den_b))

    # -- grading -----------------------------------------------------------

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[m]
            if m == 0:
                bits.append(str(c))
            else:
                blade = "^".join(f"e{i + 1}" for i in _bits(m))
                bits.append(blade if c == 1 else f"{c}*{blade}")
        return " + ".join(bits)


def scalar_part(a: Multivector) -> Fraction:
    return a.terms.get(0, ZERO)


def is_scalar(a: Multivector) -> bool:
    return all(m == 0 for m in a.terms)


def _multivector_from_numerators(
    space: CliffordSpace, numerators: dict[tuple[int, int, int], int], den: int, weights: Sequence[Fraction]
) -> Multivector:
    """The unique degree-3 multivector v with <v, x^y^z> = t(x, y, z), for
    t(e_i, e_j, e_k) = w_i n_ijk / den.

    <.,.> is the extended pairing, B extended to blades by Gram
    determinants.  numerators holds the nonzero n_ijk, keyed by three
    indices below the space's dimension, and w = weights has one nonzero
    entry per index, so that the fundamental form t(X_i, X_j, X_k) = -d_i c_jk^i / 2 is passed
    as its structure-constant numerators with w = d.  t must be alternating,
    which is verified on its support: a nonzero entry has three distinct
    indices, and each of its six orderings carries it with the ordering's
    sign, which is compared on integers, w_a n_abc against sign w_i n_ijk
    with each w cross-multiplied by the other's denominator.  An absent
    triple has no nonzero ordering, so this is the check on all m^3
    triples.  The six orderings are compared for the first key of each
    orbit in sorted order only: once they carry that key's value with their
    signs, every other key of the orbit passes too, so the first failure is
    the same as when every key is checked.  The blade e_i^e_j^e_k pairs with
    itself to d_i d_j d_k, so v has t(i, j, k) / (d_i d_j d_k) =
    (w_i / d_i) n_ijk / (den d_j d_k) on it: one Fraction per orbit.
    """
    gram = space.gram
    w = [(x.numerator, x.denominator) for x in weights]
    ratios = [x / d for x, d in zip(weights, gram)]
    terms = {}
    checked = set()
    for key, n in sorted(numerators.items()):
        mask = (1 << key[0]) | (1 << key[1]) | (1 << key[2])
        if mask in checked:
            continue
        if mask.bit_count() != 3:
            raise ContractViolation(f"trilinear map not alternating at {key}")
        i, j, k = key  # the first key of its orbit in sorted order is increasing
        wi, qi = w[i]
        for order, sign in zip(permutations(key), _ORDERING_SIGNS):
            wa, qa = w[order[0]]
            if wa * numerators.get(order, 0) * qi != sign * wi * n * qa:
                raise ContractViolation(f"trilinear map not alternating at {order}")
        checked.add(mask)
        r, dj, dk = ratios[i], gram[j], gram[k]
        terms[mask] = Fraction(
            n * r.numerator * dj.denominator * dk.denominator, den * r.denominator * dj.numerator * dk.numerator
        )
    return Multivector._from_terms((space,), terms)


def twisted_commutator(v: Multivector, a: Multivector) -> Multivector:
    """v a - kappa(a) v, the odd-twisted bracket with v (kappa = grade involution).

    For odd v this operator is an odd derivation of the Clifford algebra and
    its square is the plain commutator with v*v.  It is `_product` with the
    twist, the blade-pair pass of `Multivector.__mul__`: one pass over the
    pairs of v and a, each adding twice one signed product or nothing.  The
    dv-* laws run the same twisted form on integer numerators, so d_v in
    them is this code.
    """
    v._check(a)
    return _product(v, a, True)


def _product(a: Multivector, b: Multivector, twisted: bool) -> Multivector:
    """a b, or a b - kappa(b) a with twisted, for `Multivector.__mul__` and
    `twisted_commutator`: the blade pairs add integer numerators over
    D_a D_b per overlap in `_overlap_sums`, and each sum is scaled by its
    overlap's Gram product."""
    den_a, left = _integer_terms(a.terms)
    den_b, right = _integer_terms(b.terms)
    by_overlap = _overlap_sums(left, right, twisted, {}, 1)
    return Multivector._from_terms((a.space,), a.space._scale_overlaps(by_overlap, den_a * den_b))


def _overlap_sums(left, right, twisted: bool, by_overlap: dict, scale: int) -> dict[int, dict[int, int]]:
    """Add the blade pairs of a product, on integer numerators and times scale, into by_overlap.

    left and right are (mask, n) pairs, and by_overlap is a table
    {overlap: {mask: n}}, returned.  The pair e_A e_B adds +-scale n_a n_b
    to the sum of blade A ^ B kept under the overlap A & B, with the sign
    of `_swap_prefix`; the table still lacks the Gram product of each
    overlap.  A sum that cancels stays in it as 0.  A product is the call
    with an empty table and scale 1; products over different denominators
    add into one table over a common one, each with its own integer scale,
    and so a signed sum of products is compared with 0 by one
    `CliffordSpace._scale_overlaps` of the table.

    With twisted, the result is that of v a - kappa(a) v for left = v and
    right = a.  e_V e_A and kappa(e_A) e_V land on the same blade V ^ A with
    the same overlap, with signs (-1)^sw(V,A) and (-1)^(|A| + sw(A,V)),
    where sw(V,A) + sw(A,V) = |V||A| - |V & A|.  So a pair adds
    2 (-1)^sw(V,A) n_v n_a when |A|(|V| + 1) + |V & A| is odd and nothing
    otherwise: for odd V when |A & V| is odd, for even V when |A & ~V| is
    odd.
    """
    for ma, na in left:
        p = _swap_prefix(ma)
        na *= scale
        if twisted:
            t = ma if ma.bit_count() & 1 else ~ma
            na *= 2
        for mb, nb in right:
            if twisted and not (t & mb).bit_count() & 1:
                continue
            overlap = ma & mb
            sums = by_overlap.get(overlap)
            if sums is None:
                sums = by_overlap[overlap] = {}
            mask = ma ^ mb
            if (p & mb).bit_count() & 1:
                sums[mask] = sums.get(mask, 0) - na * nb
            else:
                sums[mask] = sums.get(mask, 0) + na * nb
    return by_overlap
