"""Shared fixtures: session-scoped caches for contexts and suite runs.

The larger algebras (dimension 8, Clifford dimension 256) are expensive
enough that reconstructing them per test would dominate the run; the caches
hand out the same immutable objects everywhere.
"""

from fractions import Fraction

import pytest

from cubicdirac import DiracContext, QuadraticLieAlgebra, catalog_entry
from cubicdirac.linalg import Matrix
from cubicdirac.suite import run_suite


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(s == i)) for s in range(n))


def abelian_named_sl2() -> QuadraticLieAlgebra:
    """A 3-dimensional abelian algebra that borrows catalog sl(2)'s name.

    Carriers are compared by identity, so its elements must never mix with
    sl(2)'s even though the names agree.
    """
    return QuadraticLieAlgebra("sl2-killing", ("a", "b", "c"), {}, Matrix.identity(3))


def tstar_heisenberg() -> QuadraticLieAlgebra:
    """T*-extension of the Heisenberg algebra: g = heis + heis* with the dual pairing.

    [x, y] = z, [x, z*] = -y*, [y, z*] = x*, and B pairs each basis vector
    with its dual.  The form is split, so its adapted basis has Grams 2 and
    -1/2 and non-integer structure constants.
    """
    n = 6
    brackets = {(0, 1): (0, 0, 1, 0, 0, 0), (0, 5): (0, 0, 0, 0, -1, 0), (1, 5): (0, 0, 0, 1, 0, 0)}
    form = Matrix([[int(abs(i - j) == 3) for j in range(n)] for i in range(n)], cols=n)
    return QuadraticLieAlgebra("tstar-heisenberg", ("x", "y", "z", "x*", "y*", "z*"), brackets, form)


@pytest.fixture(scope="session")
def contexts():
    cache: dict = {}

    def get(name: str, with_subalgebra: bool = False, variant: int = 0) -> DiracContext:
        key = (name, with_subalgebra, variant)
        if key not in cache:
            entry = catalog_entry(name)
            sub = entry.subalgebra if with_subalgebra else ()
            cache[key] = DiracContext(entry.algebra, sub, p_variant=variant)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def suite_reports():
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            entry = catalog_entry(name)
            cache[name] = run_suite(entry.algebra, entry.subalgebra)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def sl3_triple_context():
    """sl(3) split along an sl(2) triple: the non-symmetric relative case."""
    entry = catalog_entry("sl3-killing")
    sub = (unit_vector(8, 0), unit_vector(8, 3), unit_vector(8, 5))
    return DiracContext(entry.algebra, sub)
