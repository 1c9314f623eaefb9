"""Built-in example algebras.

Small abelian algebras with the identity form, sl(2) with its Killing form
and two rescalings, the double sl(2) x sl(2) with the diagonal subalgebra,
and sl(3) with its Killing form (dimension 8, Clifford dimension 256).

sl(2) is entered by its textbook structure constants; sl(3) brackets are
computed from 3x3 matrix representatives so no constant is typed by hand.
Killing forms always come from the brute-force trace computation in the lie
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ContractViolation
from .lie import QuadraticLieAlgebra, killing_form, normalize_brackets
from .linalg import Matrix, ZERO, solve_linear

ONE = Fraction(1)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    algebra: QuadraticLieAlgebra
    subalgebra: tuple[tuple[Fraction, ...], ...] = ()


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size))
        for i in range(size)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _flatten(m):
    return tuple(x for row in m for x in row)


def matrix_brackets(reps) -> dict:
    """Structure constants of a matrix Lie algebra spanned by `reps`.

    Each commutator is re-expressed in the given basis by an exact linear
    solve; a commutator outside the span is rejected.
    """
    dim = len(reps)
    span = Matrix.from_columns([_flatten(r) for r in reps], rows=len(_flatten(reps[0])))
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            com = _mat_sub(_mat_mul(reps[i], reps[j]), _mat_mul(reps[j], reps[i]))
            sol = solve_linear(span, _flatten(com))
            if sol is None:
                raise ContractViolation(f"commutator of basis {i},{j} leaves the span")
            table[(i, j)] = sol.vector
    return table


def _unit_matrix(size: int, r: int, c: int):
    return tuple(
        tuple(ONE if (i, j) == (r, c) else ZERO for j in range(size)) for i in range(size)
    )


def sl2_brackets() -> dict:
    """Basis e, h, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return {
        (0, 1): (-2, 0, 0),
        (0, 2): (0, 1, 0),
        (1, 2): (0, 0, -2),
    }


def heisenberg_brackets() -> dict:
    """Basis x, y, z with [x,y] = z; Killing form identically zero."""
    return {(0, 1): (0, 0, 1)}


def _double_sl2_brackets() -> dict:
    single = sl2_brackets()
    table = {}
    for (i, j), coeffs in single.items():
        pad = tuple(coeffs) + (0,) * 3
        table[(i, j)] = pad
        table[(i + 3, j + 3)] = (0,) * 3 + tuple(coeffs)
    return table


def _sl3_brackets() -> dict:
    """Basis e12, e13, e23, h1, h2, f12, f13, f23, from 3x3 matrix representatives."""
    e12 = _unit_matrix(3, 0, 1)
    e13 = _unit_matrix(3, 0, 2)
    e23 = _unit_matrix(3, 1, 2)
    h1 = _mat_sub(_unit_matrix(3, 0, 0), _unit_matrix(3, 1, 1))
    h2 = _mat_sub(_unit_matrix(3, 1, 1), _unit_matrix(3, 2, 2))
    f12 = _unit_matrix(3, 1, 0)
    f13 = _unit_matrix(3, 2, 0)
    f23 = _unit_matrix(3, 2, 1)
    return matrix_brackets((e12, e13, e23, h1, h2, f12, f13, f23))


_SL2_LABELS = ("e", "h", "f")

# name -> (description, labels, bracket builder, form, subalgebra); the form
# is None for the identity, or the scale of the Killing form
_ENTRIES = {
    **{
        f"abelian{n}": (
            f"abelian algebra of dimension {n} with the identity form",
            tuple(f"x{i + 1}" for i in range(n)),
            dict,
            None,
            (),
        )
        for n in (1, 2, 3)
    },
    "sl2-killing": ("sl(2) with its Killing form", _SL2_LABELS, sl2_brackets, 1, ()),
    "sl2-killing-neg": ("sl(2) with the Killing form negated", _SL2_LABELS, sl2_brackets, -1, ()),
    "sl2-killing-half": ("sl(2) with half the Killing form", _SL2_LABELS, sl2_brackets, Fraction(1, 2), ()),
    "sl2xsl2-diagonal": (
        "sl(2) x sl(2) with the Killing form and the diagonal sl(2) subalgebra",
        ("e1", "h1", "f1", "e2", "h2", "f2"),
        _double_sl2_brackets,
        1,
        ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)),
    ),
    "sl3-killing": (
        "sl(3) with its Killing form (dimension 8)",
        ("e12", "e13", "e23", "h1", "h2", "f12", "f13", "f23"),
        _sl3_brackets,
        1,
        (),
    ),
}
CATALOG_NAMES = tuple(_ENTRIES)


@lru_cache(maxsize=None)
def catalog_entry(name: str) -> CatalogEntry:
    description, labels, brackets, scale, subalgebra = _ENTRIES[name]
    n = len(labels)
    table = brackets()
    form = Matrix.identity(n) if scale is None else killing_form(n, normalize_brackets(n, table)).scaled(scale)
    algebra = QuadraticLieAlgebra(name, labels, table, form)
    return CatalogEntry(name, description, algebra, tuple(tuple(Fraction(c) for c in v) for v in subalgebra))


def catalog_names() -> tuple[str, ...]:
    return CATALOG_NAMES
