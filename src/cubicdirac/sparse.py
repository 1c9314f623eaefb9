"""Sparse Q-linear combinations: the ring plumbing of every element type.

An element is a dict `terms` from basis keys to nonzero Fractions, together
with a carrier: the tuple of objects that fixes the space it lives in
(algebras, Clifford spaces, an arity).  Two elements mix only when their
carriers are equal.  QuadraticLieAlgebra defines no equality, so algebras
compare by identity; Clifford spaces compare by their Gram entries.

A subclass names its carrier fields and supplies its product and repr.

The product kernels run on integers: `_integer_terms` writes an operand's
coefficients over one common denominator, and the kernel multiplies and adds
the numerators.  The Chevalley-Eilenberg kernels and `pbw_normalize` turn
their sums back into Fractions with `_fractions_over`, once per output key.  The
Clifford product, the twisted commutator and the tensor product share one
blade-pair loop, `clifford._overlap_sums`, which keeps one sum per blade
overlap; each sum is scaled by its overlap's Gram product at
the end, each key over the lcm of the Gram denominators that reach it, so
no product goes over the product or the lcm of all Gram denominators.  The
arithmetic stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ContractViolation
from .linalg import ZERO, as_scalar


class LinearCombination:
    """Addition, negation, scaling, equality and hashing over a fixed carrier."""

    __slots__ = ("terms",)
    carrier_fields: tuple[str, ...] = ()

    @classmethod
    def _from_terms(cls, carrier: tuple, terms: dict):
        """An element from terms already in normal form, with no zero coefficient."""
        out = object.__new__(cls)
        for name, value in zip(cls.carrier_fields, carrier):
            setattr(out, name, value)
        out.terms = terms
        return out

    @property
    def carrier(self) -> tuple:
        return tuple(getattr(self, name) for name in self.carrier_fields)

    def _same_carrier(self, other) -> bool:
        """Whether other has this type and carrier, compared field by field
        with no tuple built; a field that is the same object is equal at once."""
        if type(other) is not type(self):
            return False
        for name in self.carrier_fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                return False
        return True

    def _check(self, other: "LinearCombination"):
        if not self._same_carrier(other):
            raise ContractViolation(f"{type(self).__name__} operands live on different carriers")

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, subtract: bool):
        """self + other, or self - other with subtract; a key that cancels is dropped."""
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, ZERO) - c if subtract else out.get(key, ZERO) + c
            if acc:
                out[key] = acc
            else:
                del out[key]
        return self._from_terms(self.carrier, out)

    def __neg__(self):
        return self._from_terms(self.carrier, {key: -c for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        s = as_scalar(scalar)
        terms = {key: s * c for key, c in self.terms.items()} if s else {}
        return self._from_terms(self.carrier, terms)

    def __eq__(self, other) -> bool:
        return self._same_carrier(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self.carrier, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms


def _integer_terms(terms: dict) -> tuple[int, list]:
    """(D, [(key, n), ...]) with each coefficient c of terms equal to n / D."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = lcm(den, d)
    return den, [(key, c.numerator * (den // c.denominator)) for key, c in terms.items()]


def _fractions_over(numerators: dict, den: int) -> dict:
    """{key: n / den} in lowest terms, leaving out the keys whose n is 0."""
    return {key: Fraction(n, den) for key, n in numerators.items() if n}
