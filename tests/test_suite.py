"""Suite orchestration and both report renderers."""

import ast
import inspect
import json
from pathlib import Path

import pytest

import cubicdirac
from cubicdirac.catalog import catalog_entry
from cubicdirac.dirac import DiracContext
from cubicdirac.errors import ContractViolation
from cubicdirac.suite import render_machine, render_text, run_suite


@pytest.fixture(scope="module")
def pair_report():
    entry = catalog_entry("sl2xsl2-diagonal")
    return run_suite(entry.algebra, entry.subalgebra)


def test_all_checks_run_in_fixed_order(pair_report):
    ids = [outcome.check_id for outcome, _ in pair_report.outcomes]
    assert ids == ["kostant", "cohomology", "decomposition", "invariance"]
    assert pair_report.all_passed


def test_absolute_case_skips_decomposition():
    entry = catalog_entry("abelian2")
    report = run_suite(entry.algebra, ())
    ids = [outcome.check_id for outcome, _ in report.outcomes]
    assert ids == ["kostant", "cohomology", "invariance"]


def test_single_check_runs_alone():
    entry = catalog_entry("abelian2")
    report = run_suite(entry.algebra, (), checks="kostant")
    assert [outcome.check_id for outcome, _ in report.outcomes] == ["kostant"]


def test_unknown_check_name_is_rejected():
    entry = catalog_entry("abelian2")
    with pytest.raises(ContractViolation):
        run_suite(entry.algebra, (), checks="everything")


def test_decomposition_without_subalgebra_is_rejected():
    entry = catalog_entry("abelian2")
    with pytest.raises(ContractViolation):
        run_suite(entry.algebra, (), checks="decomposition")


def test_text_report_shape(pair_report):
    text = render_text(pair_report)
    lines = text.splitlines()
    assert lines[0].startswith("algebra ")
    assert "(dimension 6, subalgebra dimension 3)" in lines[0]
    assert any(line.startswith("check kostant: pass") for line in lines)
    assert any("c_rel = 3/16" in line for line in lines)
    assert lines[-1] == "result: all checks passed"


def test_machine_report_shape(pair_report):
    doc = json.loads(render_machine(pair_report))
    assert doc["algebra"] == "sl2xsl2-diagonal"
    assert doc["dimension"] == 6
    assert doc["subalgebra_dimension"] == 3
    assert doc["all_passed"] is True
    for check in doc["checks"]:
        assert set(check) == {"id", "status", "time_ms", "items", "values"}
        assert check["status"] == "pass"
        for item in check["items"]:
            assert item["status"] == "pass"
    values = {c["id"]: c["values"] for c in doc["checks"]}
    assert values["kostant"]["c"] == "3/16"
    assert values["decomposition"] == {"c_g": "1/4", "c_h": "1/16", "c_rel": "3/16"}


def test_no_module_samples_and_no_check_takes_a_seed():
    """verify is deterministic by construction: no module of the package
    imports random, and neither the cohomology check nor the suite takes a
    seed or a sample count."""
    modules = sorted(Path(cubicdirac.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "random" for name in names), path.name
    for func in (DiracContext.cohomology_check, run_suite):
        params = inspect.signature(func).parameters
        assert not {"seed", "samples"} & set(params), func.__name__
