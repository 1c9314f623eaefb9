"""The Chevalley-Eilenberg kernels and the bracket coproduct.

A multilinear map of arity k on a Lie algebra is a table over the n^k basis
index tuples; the kernels take its nonzero entries only, as (key, n) pairs
over one common denominator.  The Chevalley-Eilenberg operators are the
coordinate formulas

  (d w)(x_0..x_k)     = sum_{s<t} (-1)^s w(x_0.. x_s-hat .. [x_s,x_t]@t .. x_k)
  (theta_X w)(x_1..x_k) = sum_s w(x_1 .. [X, x_s] .. x_k)

read backwards: each walks the nonzero entries of w and scatters every
entry into the output tuples it contributes to, so the work grows with the
support of w, not with n^k.  d finds the pairs (x_s, x_t) whose bracket
reaches a slot's index through the algebra's preimage index, and theta_X
reads the rows of ad X off ad e_a for the a in the support of X, so on a
basis vector it costs O(n + nnz(ad e_a)).  Both indexes are read from the
algebra's integer structure, which its constructor builds once and
validates (`QuadraticLieAlgebra._integer_structure`), and hold the
structure constants over one common denominator; the kernels add integer
numerators and return numerator dicts, which may hold zeros: `_d_scatter`
for d, `_ad_rows` and `_theta_scatter` for theta_X.  On alternating maps d
is the usual Lie-algebra-cohomology differential with trivial
coefficients; d of a 0-form is zero.

The cohomology items in `dirac` are the kernels' callers, and the package
has no public map type and no public operator on maps: dB-equals-2v runs
`_d_scatter` on the form's entries, theta-B-vanishes runs `_ad_rows` and
`_theta_scatter` on them, cartan-formula runs `_d_scatter` and `_ad_rows`
on point masses and reads iota of a point mass off its key, and the d
items read d of the alternating point masses off the cartan check's
columns and test them with `_canonical_part`, the alternation test, which
knows the orderings of up to four slots, the most d of a 3-form reaches.
`_d_scatter` is the one scatter of d, for the form's entries and for
point masses alike; on a point mass it reads the preimage rows as they
are, with no copy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from operator import itemgetter
from typing import Mapping, Sequence

from .clifford import CliffordSpace, Multivector
from .errors import ContractViolation
from .lie import QuadraticLieAlgebra
from .sparse import _integer_terms


def _orderings(k: int) -> list:
    """(itemgetter, sign) for each ordering of k slots but the identity: the
    getter reorders a k-tuple, the sign is that of the permutation."""
    return [
        (itemgetter(*p), (-1) ** sum(a > b for a, b in combinations(p, 2)))
        for p in list(permutations(range(k)))[1:]
    ]


_ORDERINGS = [_orderings(k) for k in range(5)]


# the nonzero entries of a table on increasing keys, by the chained comparison
# of the k - 1 adjacent slots of a key of arity k
_INCREASING_PART = (
    lambda terms: {key: val for key, val in terms.items() if val},
    lambda terms: {key: val for key, val in terms.items() if val},
    lambda terms: {key: val for key, val in terms.items() if val and key[0] < key[1]},
    lambda terms: {key: val for key, val in terms.items() if val and key[0] < key[1] < key[2]},
    lambda terms: {key: val for key, val in terms.items() if val and key[0] < key[1] < key[2] < key[3]},
)


def _canonical_part(terms: Mapping) -> dict | None:
    """The nonzero entries of a table {key: value} on increasing keys, or None
    when the table is not alternating.

    The keys are of one arity k, at most 4, and `_INCREASING_PART` takes
    the entries on increasing keys with the comparison of that arity.  The
    table is alternating when its nonzero entries number k! times those
    keys and each of them has its k! - 1 other orderings holding its value
    times the sign of the ordering.  A stored zero on a repeated index
    fails the test, and one on distinct indices does not, unless an
    ordering of its key holds a nonzero value; so a table that may hold
    zeros (the kernels' numerator dicts) drops them first.
    """
    if not terms:
        return {}
    arity = len(next(iter(terms)))
    orderings = _ORDERINGS[arity]
    canonical = _INCREASING_PART[arity](terms)
    nonzero = len(terms)
    if 0 in terms.values():
        for key, val in terms.items():
            if not val:
                if len(set(key)) != arity:
                    return None
                nonzero -= 1
    if nonzero != len(canonical) * (len(orderings) + 1):
        return None
    for key, val in canonical.items():
        for get, sign in orderings:
            if terms.get(get(key)) != sign * val:
                return None
    return canonical


def _d_scatter(entries, preimage) -> dict:
    """Numerators of d w from the (key, n) entries of w and the preimage index.

    The result is over the entries' denominator times P; it may hold zeros.
    Slot s of position pos adds row key[pos] of the index at even s and
    subtracts it at odd s, so an entry of value 1, a point mass, reads the
    rows as they are, and only an entry of another value scales a copy.
    """
    out: dict = {}
    get = out.get
    for key, val in entries:
        for pos, r in enumerate(key):
            row = preimage[r]
            if not row:
                continue
            if val != 1:
                row = [(a, b, c * val) for a, b, c in row]
            tail = key[pos + 1 :]
            for s in range(pos + 1):
                head, mid = key[:s], key[s:pos]
                if s & 1:
                    for a, b, c in row:
                        idx = (*head, a, *mid, b, *tail)
                        out[idx] = get(idx, 0) - c
                else:
                    for a, b, c in row:
                        idx = (*head, a, *mid, b, *tail)
                        out[idx] = get(idx, 0) + c
    return out


def _ad_rows(support, ad) -> dict[int, dict[int, int]]:
    """Row r of ad X as {s: n}, [X, e_s] = ... + n e_r + ..., from X's (a, n) support.

    The rows are over X's denominator times P.
    """
    rows: dict[int, dict[int, int]] = {}
    for a, xa in support:
        for s, terms in ad[a].items():
            for r, c in terms:
                row = rows.setdefault(r, {})
                row[s] = row.get(s, 0) + xa * c
    return rows


def _theta_scatter(entries, rows) -> dict:
    """Numerators of theta_X w from the (key, n) entries of w and the rows of ad X."""
    out: dict = {}
    for key, val in entries:
        for pos, r in enumerate(key):
            row = rows.get(r)
            if row:
                head, tail = key[:pos], key[pos + 1 :]
                for s, c in row.items():
                    idx = head + (s,) + tail
                    out[idx] = out.get(idx, 0) + c * val
    return out


def bracket_coproduct(space: CliffordSpace, algebra: QuadraticLieAlgebra, x: Sequence) -> Multivector:
    """The degree-2 multivector delta(x) with <delta(x), y^z> = B(x,[y,z]), <.,.> the extended pairing.

    The space must consist of the first space.dim basis directions of the
    algebra with matching diagonal Gram; with a diagonal Gram the defining
    equations decouple and the blade coefficient at {i,j} is
    B(x, [e_i, e_j]) / (d_i d_j) = sum_k (Bx)_k c_ij^k / (d_i d_j).  The sum
    reads, for each k with (Bx)_k != 0, the pairs (i, j), i < j, in the
    preimage index of e_k, on integer numerators, and builds one Fraction
    per blade.
    """
    if space.dim > algebra.dim:
        raise ContractViolation("space does not embed in the algebra")
    for i in range(space.dim):
        if algebra.form.entry(i, i) != space.gram[i]:
            raise ContractViolation("space Gram does not match the algebra form")
    (x,) = algebra._coordinates(x)
    bx = algebra.form.mat_vec(x)  # B(x, e_k) = (Bx)_k, B being symmetric
    den_x, support = _integer_terms({k: b for k, b in enumerate(bx) if b})
    den_g, _, preimage = algebra._integer_structure
    m = space.dim
    sums: dict = {}
    for k, b in support:
        for i, j, c in preimage[k]:
            if i < j < m:
                sums[i, j] = sums.get((i, j), 0) + b * c
    den = den_x * den_g
    terms = {}
    for (i, j), total in sorted(sums.items()):
        if total:
            dd = space.gram[i] * space.gram[j]
            terms[(1 << i) | (1 << j)] = Fraction(total * dd.denominator, den * dd.numerator)
    return Multivector._from_terms((space,), terms)

