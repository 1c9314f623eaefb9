"""End-to-end acceptance: one test (and one printed line) per criterion.

Run with `pytest -v` so each criterion reports as its own pass/fail line;
with `-s` the `acceptance ...` summary lines are printed as well.

  1 absolute case     residual is scalar and equals v^2 on every built-in
                      algebra without a subalgebra, within the time budget
  2 relative case     residual is scalar for the diagonal pair and the
                      constant satisfies c_rel = c_g - c_h
  3 proof chain       every supporting identity (differential, Cartan,
                      coproduct, twisted differential) holds exhaustively,
                      the twisted-differential laws on the generators
  4 lemma suite       subalgebra invariance and the two-component
                      decomposition of the full operator
  5 robustness        basis independence, the bracket middle term, and
                      loud rejection of degenerate or non-invariant forms
  6 cli               verify exits 0 on every built-in algebra, machine
                      reports are deterministic and match the checked-in
                      catalog_reports.json, documents round-trip
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from cubicdirac import cli, envelope
from cubicdirac.algfile import emit_algebra_text, parse_algebra_text
from cubicdirac.catalog import CATALOG_NAMES, catalog_entry, heisenberg_brackets, sl2_brackets
from cubicdirac.dirac import DiracContext
from cubicdirac.errors import ValidationError
from cubicdirac.lie import QuadraticLieAlgebra, killing_form, normalize_brackets
from cubicdirac.linalg import Matrix

ABSOLUTE_NAMES = (
    "abelian1",
    "abelian2",
    "abelian3",
    "sl2-killing",
    "sl2-killing-neg",
    "sl2-killing-half",
    "sl3-killing",
)


@contextmanager
def reported(name):
    try:
        yield
    except BaseException:
        print(f"acceptance {name}: FAIL", flush=True)
        raise
    print(f"acceptance {name}: PASS", flush=True)


def outcome_of(report, check_id):
    for outcome, _ in report.outcomes:
        if outcome.check_id == check_id:
            return outcome
    raise AssertionError(f"check {check_id} missing from report")


def items_of(outcome):
    return {item.item_id: item for item in outcome.items}


def test_criterion_1_absolute_case(suite_reports):
    with reported("absolute case"):
        for name in ABSOLUTE_NAMES:
            kostant = outcome_of(suite_reports(name), "kostant")
            assert kostant.passed, (name, kostant.failing())
            items = items_of(kostant)
            assert items["residual-scalar"].ok, name
            assert items["v-square-equals-c"].ok, name
            assert kostant.values["c"] == kostant.values["v_square"], name
            if name.startswith("abelian"):
                assert kostant.values["c"] == 0, name
        start = time.perf_counter()
        fresh = DiracContext(catalog_entry("sl3-killing").algebra)
        assert fresh.kostant_check().passed
        assert time.perf_counter() - start < 300.0


def test_criterion_2_relative_case(suite_reports):
    with reported("relative case"):
        report = suite_reports("sl2xsl2-diagonal")
        kostant = outcome_of(report, "kostant")
        assert kostant.passed, kostant.failing()
        assert items_of(kostant)["residual-scalar"].ok
        decomposition = outcome_of(report, "decomposition")
        assert decomposition.passed, decomposition.failing()
        values = decomposition.values
        assert values["c_rel"] == values["c_g"] - values["c_h"]
        assert values["c_rel"] == Fraction(3, 16)


def test_criterion_3_proof_chain(suite_reports):
    with reported("proof chain"):
        required = (
            "dB-equals-2v",
            "theta-B-vanishes",
            "cartan-formula",
            "d-squared-zero",
            "d-preserves-alternating",
            "delta-plus-dv-vanishes",
            "dv-derivation-law",
            "dv-square-is-v2-bracket",
        )
        for name in CATALOG_NAMES:
            cohomology = outcome_of(suite_reports(name), "cohomology")
            assert cohomology.passed, (name, cohomology.failing())
            items = items_of(cohomology)
            for item_id in required:
                assert item_id in items, (name, item_id)
                assert items[item_id].ok, (name, item_id)


def test_criterion_4_lemma_suite(suite_reports):
    with reported("lemma suite"):
        report = suite_reports("sl2xsl2-diagonal")
        invariance = outcome_of(report, "invariance")
        assert invariance.passed, invariance.failing()
        assert len(invariance.items) == 3
        decomposition = outcome_of(report, "decomposition")
        items = items_of(decomposition)
        for item_id in ("decomposition-identity", "components-anticommute", "squared-consequence"):
            assert items[item_id].ok, item_id
        for name in ABSOLUTE_NAMES:
            invariance = outcome_of(suite_reports(name), "invariance")
            assert invariance.passed, name


def test_criterion_5_robustness(suite_reports):
    with reported("robustness"):
        for name in CATALOG_NAMES:
            items = items_of(outcome_of(suite_reports(name), "kostant"))
            assert items["c-basis-invariant"].ok, name
            if not name.startswith("sl2xsl2"):
                assert items["middle-term-identity"].ok, name

        nilpotent = heisenberg_brackets()
        degenerate = killing_form(3, normalize_brackets(3, nilpotent))
        with pytest.raises(ValidationError) as info:
            QuadraticLieAlgebra("heisenberg", ("x", "y", "z"), nilpotent, degenerate)
        assert info.value.condition == "form-non-degenerate"
        assert info.value.witness is not None

        with pytest.raises(ValidationError) as info:
            QuadraticLieAlgebra("sl2-id", ("e", "h", "f"), sl2_brackets(), Matrix.identity(3))
        assert info.value.condition == "ad-invariance"
        assert info.value.witness is not None
        assert len(info.value.witness) == 3


CATALOG_REPORTS = Path(__file__).with_name("catalog_reports.json")


def test_criterion_6_cli(tmp_path, capsys):
    """`verify --checks all --report machine` on each catalog entry, twice.

    With `time_ms` removed, the two reports must be equal, and the first must
    equal the entry's report in catalog_reports.json.  A change that alters
    a report updates that file (the machine reports, time_ms removed, as
    json.dump(..., indent=1) writes them) and says why.
    """
    expected = json.loads(CATALOG_REPORTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(CATALOG_NAMES)
    with reported("cli"):
        for name in CATALOG_NAMES:
            entry = catalog_entry(name)
            text = emit_algebra_text(entry.algebra, entry.subalgebra)
            algebra, subalgebra = parse_algebra_text(text)
            assert emit_algebra_text(algebra, subalgebra) == text, name

            path = tmp_path / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            first = machine_report(path, entry.subalgebra, capsys)
            second = machine_report(path, entry.subalgebra, capsys)
            assert first["all_passed"] is True, name
            assert first == second, name
            assert first == expected[name], name


def machine_report(path, subalgebra, capsys) -> dict:
    """`verify --report machine` on the document at path, which must exit 0, with time_ms removed."""
    argv = ["verify", "--input", str(path), "--report", "machine"]
    if subalgebra:
        argv.append("--subalgebra-from-file")
    assert cli.main(argv) == 0, path.name
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        check.pop("time_ms")
    return report


def test_no_check_reaches_the_general_pbw_layer(tmp_path, capsys, monkeypatch):
    """Every bundle on every catalog entry reports as in catalog_reports.json
    with the general PBW rewriter and the PBWElement constructor made to
    raise: each product of the checks takes at most one bracket, read off
    the bracket table, and the Casimir is a term table, so the check path
    needs no code from `envelope`.
    """

    def unreachable(*args, **kwargs):
        raise AssertionError("a check reached the general PBW layer")

    monkeypatch.setattr(envelope, "_pbw_rewrite", unreachable)
    monkeypatch.setattr(envelope.PBWElement, "__init__", unreachable)
    expected = json.loads(CATALOG_REPORTS.read_text(encoding="utf-8"))
    for name in CATALOG_NAMES:
        entry = catalog_entry(name)
        path = tmp_path / f"{name}.json"
        path.write_text(emit_algebra_text(entry.algebra, entry.subalgebra), encoding="utf-8")
        assert machine_report(path, entry.subalgebra, capsys) == expected[name], name
