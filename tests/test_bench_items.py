"""The item ids the benchmark requires are the ids the bundles report.

`bench/run.py` counts a call as failed unless its report lists the ids of
`bench/workloads.py` in order (later additions are allowed).  So dropping or
renaming an item fails every benchmark call of its bundle; this test says so
in the test suite.  It imports `bench/workloads.py` without writing anything
under `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cubicdirac.catalog import CATALOG_NAMES

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return module


def required_ids(workloads, check_id, subalgebra_dimension):
    if check_id == "kostant":
        return workloads.KOSTANT_PAIR_ITEMS if subalgebra_dimension else workloads.KOSTANT_ITEMS
    if check_id == "cohomology":
        return workloads.COHOMOLOGY_ITEMS
    if check_id == "decomposition":
        return workloads.DECOMPOSITION_ITEMS
    return tuple(f"delta-commutes-with-dirac:h{j + 1}" for j in range(subalgebra_dimension))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_bundle_lists_the_ids_the_benchmark_requires(workloads, suite_reports, name):
    report = suite_reports(name)
    for outcome, _ in report.outcomes:
        required = required_ids(workloads, outcome.check_id, report.subalgebra_dimension)
        ids = [item.item_id for item in outcome.items]
        assert [i for i in ids if i in required] == list(required), (name, outcome.check_id)
