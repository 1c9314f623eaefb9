"""Reading and writing quadratic Lie algebras as JSON documents.

Every coefficient travels as an exact rational string "p" or "p/q" (q > 0);
floats are rejected outright, both as JSON numbers and as strings like
"1.5".  The document shape:

    {
      "format": "quadratic-lie-algebra",
      "version": 1,
      "name": "sl2-killing",
      "dimension": 3,                       at most MAX_DIMENSION
      "basis_labels": ["e", "h", "f"],
      "brackets": [{"i": 0, "j": 1, "terms": [[0, "-2"]]}, ...],
                                            at most MAX_BRACKET_TERMS terms in all
      "form": ["8", "0", ...],              row-major, dimension^2 entries
      "subalgebra": [["1", "0", "0"], ...], optional spanning vectors
      "field": "rational"                   optional, reserved
    }

Brackets are listed for i < j only.  Parsing validates the document shape
here and then hands off to the lie module, so a parsed algebra always
satisfies Jacobi, symmetry, non-degeneracy and ad-invariance; emission is
canonical (sorted brackets, lowest-terms coefficients), which makes
parse -> emit a fixed point.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import AlgebraFileError
from .lie import QuadraticLieAlgebra
from .linalg import ZERO, Matrix

FORMAT_NAME = "quadratic-lie-algebra"
FORMAT_VERSION = 1
# validation follows the nonzero brackets; the cap bounds what grows with the
# dimension alone: the dimension^2 form entries and ordered bracket pairs, and
# the exact elimination that orthogonalizes the form
MAX_DIMENSION = 64
# the Jacobi check visits up to dimension triples per nonzero bracket, each
# summing over bracket terms, so a dense table is refused before any
# coefficient is parsed
MAX_BRACKET_TERMS = MAX_DIMENSION * MAX_DIMENSION
RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")

_REQUIRED_KEYS = ("format", "version", "name", "dimension", "basis_labels", "brackets", "form")
_OPTIONAL_KEYS = ("subalgebra", "field")


def _place(where: tuple) -> str:
    """The location (template, *indices) of a value, formatted; only an error needs it."""
    template, *indices = where
    return template.format(*indices)


def _coefficient(raw, where: tuple) -> Fraction:
    """The Fraction of a coefficient string, built from the parts its one regex match found."""
    if not isinstance(raw, str):
        raise AlgebraFileError(f"{_place(where)}: coefficient must be a rational string, got {raw!r}")
    if raw == "0":
        return ZERO
    match = RATIONAL_RE.fullmatch(raw)
    if not match:
        raise AlgebraFileError(f"{_place(where)}: {raw!r} is not an exact rational 'p' or 'p/q'")
    p, q = match.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except ValueError as exc:  # Python's limit on the digits of an int read from a string
        raise AlgebraFileError(
            f"{_place(where)}: coefficient of {len(raw)} characters exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits per integer"
        ) from exc


def _expect_int(raw, where: tuple) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise AlgebraFileError(f"{_place(where)}: expected an integer, got {raw!r}")
    return raw


def parse_algebra_text(text: str):
    """Parse and validate; returns (algebra, subalgebra vector tuple)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"syntax error: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except (RecursionError, ValueError) as exc:  # nesting depth; digits of an integer literal
        raise AlgebraFileError(f"syntax error: {exc}") from exc
    if not isinstance(doc, dict):
        raise AlgebraFileError("document root must be an object")

    unknown = sorted(set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise AlgebraFileError(f"unknown keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise AlgebraFileError(f"missing keys: {', '.join(missing)}")

    if doc["format"] != FORMAT_NAME:
        raise AlgebraFileError(f"format must be {FORMAT_NAME!r}")
    if doc["version"] != FORMAT_VERSION:
        raise AlgebraFileError(f"unsupported version {doc['version']!r}")
    if "field" in doc and doc["field"] != "rational":
        raise AlgebraFileError(f"unsupported field {doc['field']!r}")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise AlgebraFileError("name must be a non-empty string")
    dim = _expect_int(doc["dimension"], ("dimension",))
    if dim < 1:
        raise AlgebraFileError("dimension must be positive")

    labels = doc["basis_labels"]
    if (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(s, str) and s for s in labels)
    ):
        raise AlgebraFileError("basis_labels must list one non-empty string per dimension")

    # checked before the brackets, which cost O(dimension) each
    raw_form = doc["form"]
    if not isinstance(raw_form, list) or len(raw_form) != dim * dim:
        raise AlgebraFileError(f"form must list dimension^2 = {dim * dim} entries row-major")
    if dim > MAX_DIMENSION:
        raise AlgebraFileError(f"dimension {dim} exceeds the maximum {MAX_DIMENSION}")
    # more vectors than the dimension are dependent, refused before any coefficient is parsed
    raw_sub = doc.get("subalgebra", [])
    if not isinstance(raw_sub, list):
        raise AlgebraFileError("subalgebra must be a list of coordinate vectors")
    if len(raw_sub) > dim:
        raise AlgebraFileError(f"subalgebra lists {len(raw_sub)} vectors, more than the dimension {dim}")

    raw_brackets = doc["brackets"]
    if not isinstance(raw_brackets, list):
        raise AlgebraFileError("brackets must be a list")
    term_count = sum(
        len(record["terms"])
        for record in raw_brackets
        if isinstance(record, dict) and isinstance(record.get("terms"), list)
    )
    if term_count > MAX_BRACKET_TERMS:
        raise AlgebraFileError(f"{term_count} bracket terms exceed the maximum {MAX_BRACKET_TERMS}")
    table = {}
    for pos, record in enumerate(raw_brackets):
        if not isinstance(record, dict) or set(record) != {"i", "j", "terms"}:
            raise AlgebraFileError(f"brackets[{pos}]: expected keys i, j, terms")
        i = _expect_int(record["i"], ("brackets[{}].i", pos))
        j = _expect_int(record["j"], ("brackets[{}].j", pos))
        if not (0 <= i < j < dim):
            raise AlgebraFileError(f"brackets[{pos}]: need 0 <= i < j < dimension, got ({i},{j})")
        if (i, j) in table:
            raise AlgebraFileError(f"brackets[{pos}]: duplicate bracket ({i},{j})")
        terms = record["terms"]
        if not isinstance(terms, list):
            raise AlgebraFileError(f"brackets[{pos}].terms must be a list")
        coeffs = [ZERO] * dim
        seen = set()
        for tpos, term in enumerate(terms):
            if not isinstance(term, list) or len(term) != 2:
                raise AlgebraFileError(f"brackets[{pos}].terms[{tpos}]: expected [index, coefficient]")
            k = _expect_int(term[0], ("brackets[{}].terms[{}][0]", pos, tpos))
            if not 0 <= k < dim:
                raise AlgebraFileError(f"brackets[{pos}].terms[{tpos}]: index {k} out of range")
            if k in seen:
                raise AlgebraFileError(f"brackets[{pos}].terms[{tpos}]: duplicate index {k}")
            seen.add(k)
            coeffs[k] = _coefficient(term[1], ("brackets[{}].terms[{}]", pos, tpos))
        table[(i, j)] = tuple(coeffs)

    entries = [_coefficient(x, ("form[{}]", pos)) for pos, x in enumerate(raw_form)]
    form = Matrix([entries[r * dim : (r + 1) * dim] for r in range(dim)], cols=dim)

    vectors = []
    for pos, vec in enumerate(raw_sub):
        if not isinstance(vec, list) or len(vec) != dim:
            raise AlgebraFileError(f"subalgebra[{pos}]: expected {dim} coordinates")
        vectors.append(tuple(_coefficient(x, ("subalgebra[{}][{}]", pos, i)) for i, x in enumerate(vec)))
    subalgebra = tuple(vectors)

    algebra = QuadraticLieAlgebra(name, labels, table, form)
    return algebra, subalgebra


def emit_algebra_text(algebra: QuadraticLieAlgebra, subalgebra=()) -> str:
    """Canonical document for an algebra (sorted, lowest-terms, trailing newline)."""
    brackets = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            terms = algebra.bracket_sparse(i, j)
            if terms:
                brackets.append({"i": i, "j": j, "terms": [[k, str(c)] for k, c in terms]})
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": algebra.name,
        "dimension": algebra.dim,
        "basis_labels": list(algebra.labels),
        "brackets": brackets,
        "form": [
            str(algebra.form.entry(i, j))
            for i in range(algebra.dim)
            for j in range(algebra.dim)
        ],
    }
    if subalgebra:
        doc["subalgebra"] = [[str(c) for c in vec] for vec in subalgebra]
    return json.dumps(doc, indent=2) + "\n"
