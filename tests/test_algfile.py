"""The JSON interchange format: canonical emission, strict parsing, rejection."""

import json
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from cubicdirac import algfile
from cubicdirac.algfile import MAX_BRACKET_TERMS, MAX_DIMENSION, emit_algebra_text, parse_algebra_text
from cubicdirac.catalog import CATALOG_NAMES, catalog_entry
from cubicdirac.errors import AlgebraFileError, ContractViolation, ValidationError
from cubicdirac.linalg import Matrix


def base_doc():
    """A valid 2-dimensional abelian document to mutate in rejection tests."""
    return {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "ab2",
        "dimension": 2,
        "basis_labels": ["x1", "x2"],
        "brackets": [],
        "form": ["1", "0", "0", "1"],
    }


def parse_doc(doc):
    return parse_algebra_text(json.dumps(doc))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_entries_round_trip(name):
    entry = catalog_entry(name)
    text = emit_algebra_text(entry.algebra, entry.subalgebra)
    algebra, subalgebra = parse_algebra_text(text)
    assert algebra.name == entry.algebra.name
    assert algebra.labels == entry.algebra.labels
    assert algebra.bracket_table() == entry.algebra.bracket_table()
    assert algebra.form == entry.algebra.form
    assert subalgebra == tuple(entry.subalgebra)
    assert emit_algebra_text(algebra, subalgebra) == text


def test_emission_is_bit_stable():
    entry = catalog_entry("sl3-killing")
    assert emit_algebra_text(entry.algebra) == emit_algebra_text(entry.algebra)


def test_coefficients_survive_exactly():
    doc = base_doc()
    doc["form"] = ["22/7", "0", "0", "-13/9"]
    algebra, _ = parse_doc(doc)
    assert algebra.form.entry(0, 0) == Fraction(22, 7)
    assert algebra.form.entry(1, 1) == Fraction(-13, 9)


def test_optional_field_key():
    doc = base_doc()
    doc["field"] = "rational"
    parse_doc(doc)
    doc["field"] = "real"
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_syntax_error_reports_position():
    with pytest.raises(AlgebraFileError) as info:
        parse_algebra_text('{"format": "quadratic-lie-algebra",\n  "version": }')
    assert info.value.line == 2
    assert info.value.column is not None
    assert "line 2" in str(info.value)


def test_root_must_be_object():
    with pytest.raises(AlgebraFileError):
        parse_algebra_text("[1, 2, 3]")


def test_unknown_key_is_rejected():
    doc = base_doc()
    doc["extra"] = True
    with pytest.raises(AlgebraFileError) as info:
        parse_doc(doc)
    assert "extra" in str(info.value)


def test_missing_key_is_rejected():
    doc = base_doc()
    del doc["form"]
    with pytest.raises(AlgebraFileError) as info:
        parse_doc(doc)
    assert "form" in str(info.value)


def test_wrong_format_or_version():
    doc = base_doc()
    doc["format"] = "other"
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)
    doc = base_doc()
    doc["version"] = 2
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_dimension_must_be_a_positive_integer():
    doc = base_doc()
    doc["dimension"] = 0
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)
    doc = base_doc()
    doc["dimension"] = True
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_label_count_must_match_dimension():
    doc = base_doc()
    doc["basis_labels"] = ["x1"]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_float_coefficients_are_rejected():
    doc = base_doc()
    doc["form"] = ["1.5", "0", "0", "1"]
    with pytest.raises(AlgebraFileError, match=r"^form\[0\]: '1\.5' is not an exact rational 'p' or 'p/q'$"):
        parse_doc(doc)
    doc["form"] = [1.5, "0", "0", "1"]
    with pytest.raises(AlgebraFileError, match=r"^form\[0\]: coefficient must be a rational string, got 1\.5$"):
        parse_doc(doc)
    doc["form"] = ["1", "0", "0", 2.0]
    with pytest.raises(AlgebraFileError, match=r"^form\[3\]: coefficient must be a rational string, got 2\.0$"):
        parse_doc(doc)
    doc["form"] = ["1", "0", "0", "1"]
    doc["subalgebra"] = [[0.5, "0"]]
    with pytest.raises(AlgebraFileError, match=r"^subalgebra\[0\]\[0\]: coefficient must be a rational string"):
        parse_doc(doc)


def test_the_public_matrix_constructor_still_refuses_floats():
    """Only matrices the linalg module builds itself skip the entry check."""
    with pytest.raises(ContractViolation):
        Matrix([[1.5, 0], [0, 1]])
    with pytest.raises(ContractViolation):
        Matrix.from_columns([(1, 0), (0, 0.5)])


def test_zero_denominator_is_rejected():
    doc = base_doc()
    doc["form"] = ["1/0", "0", "0", "1"]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_negative_denominator_is_rejected():
    doc = base_doc()
    doc["form"] = ["1/-2", "0", "0", "1"]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_coefficient_with_too_many_digits_is_rejected_with_its_position():
    """Python reads at most 4,300 digits into one int by default; a longer
    coefficient is an input error naming where it sits, not a bare ValueError."""
    doc = base_doc()
    doc["form"] = ["0", "0", "0", "1" * 5001]
    with pytest.raises(AlgebraFileError, match=r"^form\[3\]: coefficient of 5001 characters"):
        parse_doc(doc)
    doc = base_doc()
    doc["brackets"] = [{"i": 0, "j": 1, "terms": [[0, "1/" + "7" * 5001]]}]
    with pytest.raises(AlgebraFileError, match=r"^brackets\[0\]\.terms\[0\]: coefficient of 5003 characters"):
        parse_doc(doc)


@pytest.mark.parametrize(
    "text",
    ['{"form": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"dimension": ' + "1" * 5001 + "}"],
    ids=("nested-100000-deep", "5001-digit-integer-literal"),
)
def test_json_the_decoder_cannot_hold_is_a_syntax_error(text):
    with pytest.raises(AlgebraFileError, match="^syntax error: "):
        parse_algebra_text(text)


def sl2_doc(form_entries):
    return {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "sl2-variant",
        "dimension": 3,
        "basis_labels": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [[0, "-2"]]},
            {"i": 0, "j": 2, "terms": [[1, "1"]]},
            {"i": 1, "j": 2, "terms": [[2, "-2"]]},
        ],
        "form": form_entries,
    }


def test_bracket_index_rules():
    doc = sl2_doc(["8" if i == j == 1 else ("4" if {i, j} == {0, 2} else "0") for i in range(3) for j in range(3)])
    doc["brackets"][0] = {"i": 1, "j": 0, "terms": [[0, "2"]]}
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_duplicate_bracket_pair_is_rejected():
    doc = base_doc()
    doc["brackets"] = [
        {"i": 0, "j": 1, "terms": [[0, "1"]]},
        {"i": 0, "j": 1, "terms": [[1, "1"]]},
    ]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_duplicate_term_index_is_rejected():
    doc = base_doc()
    doc["brackets"] = [{"i": 0, "j": 1, "terms": [[0, "1"], [0, "2"]]}]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


@pytest.mark.parametrize(
    "brackets, message",
    [
        ([{"i": "0", "j": 1, "terms": []}], "brackets[0].i: expected an integer, got '0'"),
        (
            [{"i": 0, "j": 1, "terms": []}, {"i": 0, "j": True, "terms": []}],
            "brackets[1].j: expected an integer, got True",
        ),
        ([{"i": 0, "j": 1, "terms": [[0, "1"], [1.0, "1"]]}], "brackets[0].terms[1][0]: expected an integer, got 1.0"),
        ([{"i": 0, "j": 1, "terms": [[0, "1"], [0, "2"]]}], "brackets[0].terms[1]: duplicate index 0"),
        ([{"i": 0, "j": 1, "terms": [[2, "1"]]}], "brackets[0].terms[0]: index 2 out of range"),
        ([{"i": 0, "j": 1, "terms": [[0]]}], "brackets[0].terms[0]: expected [index, coefficient]"),
        (
            [{"i": 0, "j": 1, "terms": [[1, "1.5"]]}],
            "brackets[0].terms[0]: '1.5' is not an exact rational 'p' or 'p/q'",
        ),
        ([{"i": 0, "j": 1, "terms": []}, {"i": 0, "j": 1, "terms": []}], "brackets[1]: duplicate bracket (0,1)"),
    ],
)
def test_bracket_errors_name_their_place(brackets, message):
    """Every bracket error names the record and term it is in, formatted only when it is raised."""
    doc = base_doc()
    doc["brackets"] = brackets
    with pytest.raises(AlgebraFileError) as info:
        parse_doc(doc)
    assert str(info.value) == message


def test_subalgebra_vectors_must_have_full_length():
    doc = base_doc()
    doc["subalgebra"] = [["1"]]
    with pytest.raises(AlgebraFileError):
        parse_doc(doc)


def test_degenerate_form_is_rejected_with_witness():
    """The 3-dimensional nilpotent algebra has an identically zero Killing
    form, so pairing it with that form must fail non-degeneracy."""
    doc = {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "heisenberg",
        "dimension": 3,
        "basis_labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "terms": [[2, "1"]]}],
        "form": ["0"] * 9,
    }
    with pytest.raises(ValidationError) as info:
        parse_doc(doc)
    assert info.value.condition == "form-non-degenerate"
    assert info.value.witness is not None


def test_non_invariant_form_is_rejected_with_witness():
    doc = sl2_doc(["1" if i == j else "0" for i in range(3) for j in range(3)])
    with pytest.raises(ValidationError) as info:
        parse_doc(doc)
    assert info.value.condition == "ad-invariance"
    witness = info.value.witness
    assert witness is not None and len(witness) == 3
    assert all(label in ("e", "h", "f") for label in witness)


def test_jacobi_failure_is_rejected_with_witness():
    doc = sl2_doc(["8" if i == j == 1 else ("4" if {i, j} == {0, 2} else "0") for i in range(3) for j in range(3)])
    doc["brackets"][1] = {"i": 0, "j": 2, "terms": [[0, "1"]]}
    with pytest.raises(ValidationError) as info:
        parse_doc(doc)
    assert info.value.condition == "jacobi"
    assert info.value.witness is not None


def test_short_form_is_rejected_before_the_brackets_are_expanded():
    """A large dimension with many brackets and a 1-entry form fails on the
    form, without first spending O(dimension) memory on every bracket."""
    dim = 5000
    doc = {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "oversized",
        "dimension": dim,
        "basis_labels": [f"x{i}" for i in range(dim)],
        "brackets": [{"i": 0, "j": j, "terms": [[j, "1"]]} for j in range(1, 401)],
        "form": ["1"],
    }
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(AlgebraFileError) as info:
            parse_algebra_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "form must list dimension^2" in str(info.value)
    assert peak < 4 * 2**20


def identity_doc(dim):
    return {
        "format": "quadratic-lie-algebra",
        "version": 1,
        "name": "wide",
        "dimension": dim,
        "basis_labels": [f"x{i}" for i in range(dim)],
        "brackets": [],
        "form": [str(int(r == c)) for r in range(dim) for c in range(dim)],
    }


def test_dimension_above_the_cap_is_rejected_before_any_algebra_is_built(monkeypatch):
    """A complete form does not get a dimension past the cap into validation."""
    built = []
    monkeypatch.setattr(algfile, "QuadraticLieAlgebra", lambda *args: built.append(args[3].rows))
    with pytest.raises(AlgebraFileError, match=f"dimension 65 exceeds the maximum {MAX_DIMENSION}"):
        parse_doc(identity_doc(65))
    assert built == []
    parse_doc(identity_doc(MAX_DIMENSION))
    assert built == [MAX_DIMENSION]


def bracket_doc(term_count):
    """A 64-dimensional abelian document whose brackets list term_count zero terms."""
    doc = identity_doc(MAX_DIMENSION)
    pairs = ((i, j) for i in range(MAX_DIMENSION) for j in range(i + 1, MAX_DIMENSION))
    while term_count:
        i, j = next(pairs)
        size = min(term_count, MAX_DIMENSION)
        doc["brackets"].append({"i": i, "j": j, "terms": [[k, "0"] for k in range(size)]})
        term_count -= size
    return doc


def test_bracket_terms_above_the_cap_are_rejected_before_any_coefficient_is_parsed(monkeypatch):
    assert MAX_BRACKET_TERMS == MAX_DIMENSION**2
    parsed = []
    coefficient = algfile._coefficient

    def recording(raw, where):
        parsed.append(where)
        return coefficient(raw, where)

    monkeypatch.setattr(algfile, "_coefficient", recording)
    with pytest.raises(AlgebraFileError, match=f"4097 bracket terms exceed the maximum {MAX_BRACKET_TERMS}"):
        parse_doc(bracket_doc(MAX_BRACKET_TERMS + 1))
    assert parsed == []
    algebra, _ = parse_doc(bracket_doc(MAX_BRACKET_TERMS))
    assert algebra.dim == MAX_DIMENSION
    assert len(parsed) == MAX_BRACKET_TERMS + MAX_DIMENSION**2


def test_subalgebra_with_more_vectors_than_the_dimension_is_rejected_before_any_coefficient_is_parsed(monkeypatch):
    """Such vectors are dependent; the dimension bounds them, with no cap of its own."""
    parsed = []
    coefficient = algfile._coefficient

    def recording(raw, where):
        parsed.append(where)
        return coefficient(raw, where)

    monkeypatch.setattr(algfile, "_coefficient", recording)
    doc = identity_doc(4)
    doc["subalgebra"] = [[str(int(r % 4 == c)) for c in range(4)] for r in range(5)]
    with pytest.raises(AlgebraFileError, match="subalgebra lists 5 vectors, more than the dimension 4"):
        parse_doc(doc)
    assert parsed == []
    doc["subalgebra"] = doc["subalgebra"][:4]
    _, subalgebra = parse_doc(doc)
    assert len(subalgebra) == 4
    assert len(parsed) == 4 * 4 + 4 * 4


def test_catalog_and_benchmark_documents_are_under_the_bracket_cap(monkeypatch):
    """The documents bench/workloads.py builds for each workload, seed 1.

    The oracle's values only label the calls, so they are stubbed out, and
    the algebras beyond the catalog are built once for the three workloads.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen
    import workloads

    monkeypatch.setattr(gen, "oracle_values", lambda spec, use_subalgebra: defaultdict(Fraction))
    extra = workloads.extra_specs(workloads.catalog_spec("sl3-killing"))
    monkeypatch.setattr(workloads, "extra_specs", lambda sl3: extra)
    texts = [emit_algebra_text(catalog_entry(name).algebra, catalog_entry(name).subalgebra) for name in CATALOG_NAMES]
    for workload in ("operator", "cohomology", "generated"):
        docs, _ = workloads.build(workload, 1)
        texts += [gen.document(spec) for spec in docs.values()]
    assert len(texts) == 8 + 13 + 3 + 22
    for text in texts:
        terms = sum(len(record["terms"]) for record in json.loads(text)["brackets"])
        assert terms <= MAX_BRACKET_TERMS
        parse_algebra_text(text)
