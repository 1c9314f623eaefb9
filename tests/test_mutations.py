"""Faults put into the operator's construction, and what the reports say under them.

Each fault is injected with monkeypatch, and the whole suite runs on
sl2-killing, sl2-killing-half and sl2xsl2-diagonal, the last both as the pair
and with no subalgebra.  Every fault must fail some item; every failing item
must carry a non-empty witness, and both renderers must show it.  The
witnesses of two faults are pinned.
"""

import json
from fractions import Fraction

import pytest

from conftest import grade_involution
from cubicdirac import dirac
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import multivector_from_trilinear
from cubicdirac.dirac import DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.suite import render_machine, render_text, run_suite
from cubicdirac.tensor import TensorElement

CASES = {
    "sl2-killing": ("sl2-killing", False),
    "sl2-killing-half": ("sl2-killing-half", False),
    "sl2xsl2-diagonal-pair": ("sl2xsl2-diagonal", True),
    "sl2xsl2-diagonal": ("sl2xsl2-diagonal", False),
}


def dirac_with_lower_indices(self):
    """D = sum_i X_i (x) e_i + 1 (x) v: X_i where the dual basis X^i = X_i / d_i belongs."""
    d = TensorElement.from_parts(PBWElement.one(self.adapted), self.v)
    for i in range(self.m):
        d = d + TensorElement.from_parts(PBWElement.generator(self.adapted, i), self.space.generator(i))
    return d


def doubled_v(space, table):
    return 2 * multivector_from_trilinear(space, table)


# fault -> the (owner, attribute, replacement) patches that put it in
FAULTS = {
    "v-doubled": [(dirac, "multivector_from_trilinear", doubled_v)],
    "v-zero": [(dirac, "multivector_from_trilinear", lambda space, t: space.zero())],
    "spin-lift-dropped": [(dirac, "spin_lift", lambda space, nu: space.zero())],
    "twist-sign-dropped": [(dirac, "twisted_commutator", lambda v, a: v * a + grade_involution(a) * v)],
    "lower-index-in-D": [(DiracContext, "_build_dirac", dirac_with_lower_indices)],
}


def faulted_report(monkeypatch, fault, case):
    name, pair = CASES[case]
    entry = catalog_entry(name)
    with monkeypatch.context() as patch:
        for owner, attr, replacement in FAULTS[fault]:
            patch.setattr(owner, attr, replacement)
        return run_suite(entry.algebra, entry.subalgebra if pair else ())


def failing_items(report):
    return [(outcome.check_id, item) for outcome, _ in report.outcomes for item in outcome.items if not item.ok]


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_fails_an_item_and_every_failing_item_shows_its_witness(monkeypatch, fault):
    failed = []
    for case in CASES:
        report = faulted_report(monkeypatch, fault, case)
        failing = failing_items(report)
        failed += failing
        text = render_text(report).splitlines()
        machine = {
            (check["id"], item["id"]): item
            for check in json.loads(render_machine(report))["checks"]
            for item in check["items"]
        }
        for check_id, item in failing:
            assert isinstance(item.witness, str) and item.witness, (case, item)
            assert f"  {item.item_id}: FAIL  <- {item.witness}" in text, (case, item)
            assert machine[check_id, item.item_id]["witness"] == item.witness, (case, item)
        passing = [key for key, item in machine.items() if item["status"] == "pass"]
        assert all("witness" not in machine[key] for key in passing), case
    assert failed, fault


# (fault, case) -> the failing items (check, item, witness) in report order,
# and each check's values
PINNED = {
    ("spin-lift-dropped", "sl2xsl2-diagonal-pair"): (
        [
            ("kostant", "residual-linear-terms-vanish", "h1 (x) p2^p3: -1/64 vs 0"),
            ("kostant", "residual-scalar", "h1 (x) p2^p3: -1/64 vs 0"),
            ("decomposition", "decomposition-identity", "1 (x) p2^p3^h1: 1/128 vs 0"),
            ("decomposition", "components-anticommute", "p1 (x) p3^h2: 1/64 vs 0"),
            ("decomposition", "squared-consequence", "1 (x) 1: 0 vs 3/16"),
            ("decomposition", "c-additivity", "c_rel=None c_g=1/4 c_h=1/16"),
            ("invariance", "delta-commutes-with-dirac:h1", "p2 (x) p3: 1/4 vs 0"),
            ("invariance", "delta-commutes-with-dirac:h2", "p1 (x) p3: -1/4 vs 0"),
            ("invariance", "delta-commutes-with-dirac:h3", "p1 (x) p2: -1/16 vs 0"),
        ],
        {
            "kostant": {},
            "cohomology": {},
            "decomposition": {"c_g": Fraction(1, 4), "c_h": Fraction(1, 16)},
            "invariance": {},
        },
    ),
    ("v-doubled", "sl2-killing"): (
        [
            ("kostant", "first-order-cancellation", "p1"),
            ("kostant", "residual-linear-terms-vanish", "p1 (x) p2^p3: 1/16 vs 0"),
            ("kostant", "residual-scalar", "p1 (x) p2^p3: 1/16 vs 0"),
            ("kostant", "v-square-equals-c", "v^2 = 1/2, c = not scalar"),
            ("cohomology", "dB-equals-2v", "p1,p2,p3: -8 vs -16"),
            ("cohomology", "delta-plus-dv-vanishes", "p1"),
        ],
        {"kostant": {"v_square": Fraction(1, 2)}, "cohomology": {}, "invariance": {}},
    ),
}


@pytest.mark.parametrize("fault, case", PINNED, ids=[fault for fault, _ in PINNED])
def test_failing_witnesses_are_pinned(monkeypatch, fault, case):
    """The spin lift dropped breaks the pair's residual, its decomposition and
    its invariance, and leaves the cohomology of g, which has no h; v doubled
    breaks the items that read v, and dB against 2v shows the factor 2."""
    report = faulted_report(monkeypatch, fault, case)
    items, values = PINNED[fault, case]
    assert [(check_id, item.item_id, item.witness) for check_id, item in failing_items(report)] == items
    assert {outcome.check_id: outcome.values for outcome, _ in report.outcomes} == values
