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
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation
from .linalg import Matrix, ZERO, as_scalar, vector
from .sparse import LinearCombination, _fractions_over, _integer_terms

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

    Q, the product of the Gram entries' denominators, makes every Gram
    product an integer after scaling: Q * prod_{i in mask} d_i is the
    product of the numerators in mask and the denominators outside it.
    """

    __slots__ = ("dim", "gram", "_overlap_grams", "_gram_den", "_overlap_integers")

    def __init__(self, gram: Sequence):
        self.gram = vector(gram)
        self.dim = len(self.gram)
        if any(d == 0 for d in self.gram):
            raise ContractViolation("Gram entries must be nonzero")
        self._overlap_grams: dict[int, Fraction] = {}
        self._gram_den = math.prod(d.denominator for d in self.gram)
        self._overlap_integers: dict[int, int] = {0: self._gram_den}

    def _gram_product(self, mask: int) -> Fraction:
        """The product of d_i over the bits of mask, kept per mask on first use."""
        prod = self._overlap_grams.get(mask)
        if prod is None:
            prod = ONE
            for i in _bits(mask):
                prod *= self.gram[i]
            self._overlap_grams[mask] = prod
        return prod

    def _gram_integer(self, mask: int) -> int:
        """Q times the product of d_i over the bits of mask, kept per mask on first use.

        That is the product of the numerators in mask and the denominators
        outside it, so no Fraction is built.
        """
        scaled = self._overlap_integers.get(mask)
        if scaled is None:
            scaled = 1
            for i, d in enumerate(self.gram):
                scaled *= d.numerator if mask >> i & 1 else d.denominator
            self._overlap_integers[mask] = scaled
        return scaled

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


def _blade_wedge(ma: int, mb: int) -> tuple[int, int] | None:
    if ma & mb:
        return None
    return (-1 if (_swap_prefix(ma) & mb).bit_count() & 1 else 1), ma | mb


class Multivector(LinearCombination):
    """Element of the Clifford algebra on ordered-blade coordinates."""

    __slots__ = ("space",)
    carrier_fields = ("space",)

    def __init__(self, space: CliffordSpace, terms: dict):
        self.space = space
        self.terms = {m: c for m, c in terms.items() if c}

    def __mul__(self, other):
        """Clifford product; scalars multiply coefficientwise.

        The blade pairs multiply integer numerators in `_product_numerators`,
        so every sum is over D_a D_b Q and becomes one Fraction per blade.
        """
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        space = self.space
        den_a, left = _integer_terms(self.terms)
        den_b, right = _integer_terms(other.terms)
        out = _product_numerators(space, left, right)
        return Multivector._from_terms((space,), _fractions_over(out, den_a * den_b * space._gram_den))

    def __xor__(self, other: "Multivector") -> "Multivector":
        """Exterior product (use parentheses: ^ binds loosely in Python)."""
        self._check(other)
        out: dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                hit = _blade_wedge(ma, mb)
                if hit is None:
                    continue
                sign, mask = hit
                acc = out.get(mask, ZERO) + sign * ca * cb
                if acc:
                    out[mask] = acc
                elif mask in out:
                    del out[mask]
        return Multivector(self.space, out)

    # -- grading -----------------------------------------------------------

    def degree_part(self, k: int) -> "Multivector":
        return Multivector(self.space, {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def grade_involution(self) -> "Multivector":
        """The automorphism acting by (-1)^k on degree k."""
        return Multivector(
            self.space,
            {m: (-c if m.bit_count() & 1 else c) for m, c in self.terms.items()},
        )

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return self.terms.get(mask, ZERO)

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


def multivector_from_trilinear(space: CliffordSpace, table: Mapping[tuple[int, int, int], object]) -> Multivector:
    """The unique degree-3 multivector v with <v, x^y^z> = t(x,y,z).

    <.,.> is the extended pairing, B extended to blades by Gram determinants.

    t is the table {(i, j, k): t(e_i, e_j, e_k)}; absent triples read as
    zero.  t must be alternating, which is verified on its support: a nonzero
    entry has three distinct indices, and each of its six orderings carries
    it with the ordering's sign.  An absent triple has no nonzero ordering,
    so this is the check on all m^3 triples.  The six orderings are compared
    for the first key of each orbit in sorted order only: once they carry
    that key's value with their signs, every other key of the orbit passes
    too, so the first failure is the same as when every key is checked.
    The blade e_i^e_j^e_k pairs with itself to d_i d_j d_k, so v has
    t(i, j, k) / (d_i d_j d_k) on it.
    """
    m = space.dim
    values = {}
    for key, raw in table.items():
        if not (isinstance(key, tuple) and len(key) == 3 and all(isinstance(i, int) and 0 <= i < m for i in key)):
            raise ContractViolation(f"trilinear key {key!r} is not three indices below {m}")
        val = as_scalar(raw)
        if val:
            values[key] = val
    terms = {}
    checked = set()
    for key, val in sorted(values.items()):
        mask = (1 << key[0]) | (1 << key[1]) | (1 << key[2])
        if mask in checked:
            continue
        if mask.bit_count() != 3:
            raise ContractViolation(f"trilinear map not alternating at {key}")
        for order, sign in zip(permutations(key), _ORDERING_SIGNS):
            if values.get(order, ZERO) != sign * val:
                raise ContractViolation(f"trilinear map not alternating at {order}")
        checked.add(mask)
        i, j, k = key  # the first key of its orbit in sorted order is increasing
        terms[mask] = val / (space.gram[i] * space.gram[j] * space.gram[k])
    return Multivector(space, terms)


def twisted_commutator(v: Multivector, a: Multivector) -> Multivector:
    """v a - kappa(a) v, the odd-twisted bracket with v (kappa = grade involution).

    For odd v this operator is an odd derivation of the Clifford algebra and
    its square is the plain commutator with v*v.  The blade pairs run in
    `_twisted_numerators`, over D_v D_a Q as in `Multivector.__mul__`.
    """
    v._check(a)
    space = v.space
    den_v, left = _integer_terms(v.terms)
    den_a, right = _integer_terms(a.terms)
    out = _twisted_numerators(space, left, right)
    return Multivector._from_terms((space,), _fractions_over(out, den_v * den_a * space._gram_den))


def _product_numerators(space: CliffordSpace, left, right) -> dict[int, int]:
    """The Clifford product on integer numerators.

    left and right are (mask, n) pairs with numerators over D_a and D_b;
    each blade pair adds n_a n_b times Q times the Gram product of its
    overlap, with the sign of `_swap_prefix`, so the sums {mask: n} are over
    D_a D_b Q.  A sum that cancels stays in the result as 0.
    """
    grams = space._overlap_integers
    out: dict[int, int] = {}
    for ma, na in left:
        p = _swap_prefix(ma)
        for mb, nb in right:
            overlap = ma & mb
            g = grams.get(overlap)
            if g is None:
                g = space._gram_integer(overlap)
            c = na * nb * g
            mask = ma ^ mb
            if (p & mb).bit_count() & 1:
                out[mask] = out.get(mask, 0) - c
            else:
                out[mask] = out.get(mask, 0) + c
    return out


def _twisted_numerators(space: CliffordSpace, left, right) -> dict[int, int]:
    """v a - kappa(a) v on integer numerators, in one pass over the blade pairs.

    e_V e_A and kappa(e_A) e_V land on the same blade V ^ A with the same
    Gram product g over V & A, with signs (-1)^sw(V,A) and
    (-1)^(|A| + sw(A,V)), where sw(V,A) + sw(A,V) = |V||A| - |V & A|.  So a
    pair adds 2 (-1)^sw(V,A) g when |A|(|V| + 1) + |V & A| is odd and
    nothing otherwise: for odd V when |A & V| is odd, for even V when
    |A & ~V| is odd.  The sums are over D_v D_a Q, as in
    `_product_numerators`.
    """
    grams = space._overlap_integers
    out: dict[int, int] = {}
    for mv, nv in left:
        p = _swap_prefix(mv)
        t = mv if mv.bit_count() & 1 else ~mv
        nv2 = 2 * nv
        for ma, na in right:
            if not (t & ma).bit_count() & 1:
                continue
            overlap = mv & ma
            g = grams.get(overlap)
            if g is None:
                g = space._gram_integer(overlap)
            c = nv2 * na * g
            mask = mv ^ ma
            if (p & ma).bit_count() & 1:
                out[mask] = out.get(mask, 0) - c
            else:
                out[mask] = out.get(mask, 0) + c
    return out


def spin_lift(space: CliffordSpace, a: Matrix) -> Multivector:
    """The degree-2 Clifford element alpha with [alpha, x] = A x on degree 1.

    A must be in so of the Gram (Gram * A antisymmetric).  Since
    [e_i e_j, e_l] = 2 d_l (delta_jl e_i - delta_il e_j), the element is
    alpha = sum_{i<j} A_ij / (2 d_j) e_i e_j: its commutator with e_l has
    A_il on e_i for i < l, and -2 d_l A_li / (2 d_i) = A_il for i > l by
    the so condition.  alpha is re-verified on every generator.
    """
    m = space.dim
    if a.rows != m or a.cols != m:
        raise ContractViolation("matrix shape does not match the space")
    for i in range(m):
        for j in range(m):
            if space.gram[i] * a.entry(i, j) != -space.gram[j] * a.entry(j, i):
                raise ContractViolation("matrix is not in so of the Gram")
    alpha = Multivector(
        space,
        {(1 << i) | (1 << j): a.entry(i, j) / (2 * space.gram[j]) for i in range(m) for j in range(i + 1, m)},
    )
    for l in range(m):
        gen = space.generator(l)
        if alpha * gen - gen * alpha != space.vector(a.column(l)):
            raise ContractViolation("internal: spin lift failed re-verification")
    return alpha
