"""The package's public surface: the names it exports and the errors the CLI reports.

A name leaves `__all__` only on purpose, and this list changes with it.  An
error class that the package no longer defines leaves no handler behind in
the CLI, and one it defines is reported as an input error, not a traceback.
"""

import inspect

import cubicdirac
from cubicdirac import cli, errors

PUBLIC = {
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
}


def test_all_lists_the_public_names():
    assert len(cubicdirac.__all__) == len(set(cubicdirac.__all__))
    assert set(cubicdirac.__all__) == PUBLIC
    assert all(hasattr(cubicdirac, name) for name in PUBLIC)


def test_the_cli_reports_every_error_class_and_no_other_package_error():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    handled = {cls for cls in cli._INPUT_ERRORS if cls.__module__.startswith("cubicdirac")}
    assert defined == handled
