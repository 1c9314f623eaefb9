"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


def _format_witness(witness) -> str:
    """Render index/label tuples and rational vectors compactly."""
    if isinstance(witness, tuple):
        return "(" + ", ".join(str(part) for part in witness) + ")"
    if isinstance(witness, Fraction):
        return str(witness)
    return repr(witness)


class ContractViolation(ValueError):
    """An operation was invoked outside its documented domain."""


class DegenerateFormError(ValueError):
    """A bilinear form that must be non-degenerate is degenerate.

    `witness`, when present, is a nonzero kernel vector (tuple of Fractions).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotASubalgebraError(ValueError):
    """The given vectors do not span a Lie subalgebra."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(ValueError):
    """Structured validation failure: the first violated condition plus a witness."""

    def __init__(self, condition: str, witness=None, detail: str = ""):
        self.condition = condition
        self.witness = witness
        msg = f"validation failed: {condition}"
        if witness is not None:
            msg += f" (witness: {_format_witness(witness)})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class AlgebraFileError(ValueError):
    """Malformed algebra document (syntax or schema)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
