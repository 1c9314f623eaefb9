"""Exact-arithmetic engine for Kostant's cubic Dirac operator.

Everything is computed over the rationals: quadratic Lie algebras given by
structure constants, Clifford algebras of orthogonal (not orthonormal)
bases, the universal enveloping algebra in PBW normal form, and the tensor
algebras housing the Dirac element D and its square.  Check methods verify
the defining identities exactly, with zero tolerance.
"""

from .algfile import emit_algebra_text, parse_algebra_text
from .catalog import CatalogEntry, catalog_entry, catalog_names
from .clifford import CliffordSpace, Multivector, is_scalar, scalar_part, twisted_commutator
from .dirac import CheckItem, CheckOutcome, DiracContext
from .envelope import PBWElement
from .errors import (
    AlgebraFileError,
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
)
from .forms import bracket_coproduct
from .lie import OrthogonalSplit, QuadraticLieAlgebra, killing_form, orthogonal_split
from .linalg import Matrix, diagonalize_form, nullspace, solve_linear
from .suite import SuiteReport, render_machine, render_text, run_suite
from .tensor import TensorElement, TripleTensorElement

__version__ = "0.1.0"

__all__ = [
    "AlgebraFileError",
    "CatalogEntry",
    "CheckItem",
    "CheckOutcome",
    "CliffordSpace",
    "ContractViolation",
    "DegenerateFormError",
    "DiracContext",
    "Matrix",
    "Multivector",
    "NotASubalgebraError",
    "OrthogonalSplit",
    "PBWElement",
    "QuadraticLieAlgebra",
    "SuiteReport",
    "TensorElement",
    "TripleTensorElement",
    "ValidationError",
    "bracket_coproduct",
    "catalog_entry",
    "catalog_names",
    "diagonalize_form",
    "emit_algebra_text",
    "is_scalar",
    "killing_form",
    "nullspace",
    "orthogonal_split",
    "parse_algebra_text",
    "render_machine",
    "render_text",
    "run_suite",
    "scalar_part",
    "solve_linear",
    "twisted_commutator",
    "__version__",
]
