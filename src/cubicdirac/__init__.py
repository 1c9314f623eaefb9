"""Exact-arithmetic engine for Kostant's cubic Dirac operator.

Everything is computed over the rationals: quadratic Lie algebras given by
structure constants, Clifford algebras of orthogonal (not orthonormal)
bases, the universal enveloping algebra in PBW normal form, and the tensor
algebras housing the Dirac element D and its square.  Check methods verify
the defining identities exactly, with zero tolerance.
"""

from .algfile import emit_algebra_text, parse_algebra_text
from .catalog import CatalogEntry, catalog_entry, catalog_names
from .clifford import (
    CliffordSpace,
    Multivector,
    is_scalar,
    multivector_from_trilinear,
    scalar_part,
    twisted_commutator,
)
from .dirac import CheckItem, CheckOutcome, DiracContext
from .envelope import PBWElement
from .errors import (
    AlgebraFileError,
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    UnsupportedArityError,
    ValidationError,
)
from .forms import (
    MultilinearMap,
    bracket_coproduct,
    ce_differential,
    form_of_trivector,
)
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
    "MultilinearMap",
    "Multivector",
    "NotASubalgebraError",
    "OrthogonalSplit",
    "PBWElement",
    "QuadraticLieAlgebra",
    "SuiteReport",
    "TensorElement",
    "TripleTensorElement",
    "UnsupportedArityError",
    "ValidationError",
    "bracket_coproduct",
    "catalog_entry",
    "catalog_names",
    "ce_differential",
    "diagonalize_form",
    "emit_algebra_text",
    "form_of_trivector",
    "is_scalar",
    "killing_form",
    "multivector_from_trilinear",
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
