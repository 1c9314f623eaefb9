"""Run a selected set of checks on one algebra and render the results.

The four checks are independent; "all" runs kostant, cohomology,
decomposition (only when a subalgebra is present) and invariance, in that
order.  Reports are deterministic apart from the timing fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Sequence

from .dirac import CheckOutcome, DiracContext
from .errors import ContractViolation
from .lie import QuadraticLieAlgebra

# each check id, in the order "all" runs them, and the DiracContext method that runs it
_CHECK_METHODS = {
    "kostant": "kostant_check",
    "cohomology": "cohomology_check",
    "decomposition": "decomposition_check",
    "invariance": "h_invariance_check",
}
CHECK_IDS = tuple(_CHECK_METHODS)


@dataclass(frozen=True)
class SuiteReport:
    algebra_name: str
    dimension: int
    subalgebra_dimension: int
    outcomes: tuple[tuple[CheckOutcome, int], ...]  # (outcome, elapsed ms)

    @property
    def all_passed(self) -> bool:
        return all(outcome.passed for outcome, _ in self.outcomes)


def run_suite(
    algebra: QuadraticLieAlgebra,
    subalgebra: Sequence[Sequence] = (),
    checks: str = "all",
) -> SuiteReport:
    ctx = DiracContext(algebra, subalgebra)
    if checks == "all":
        selected = [check for check in CHECK_IDS if ctx.k or check != "decomposition"]
    elif checks in CHECK_IDS:
        selected = [checks]
    else:
        raise ContractViolation(f"unknown check set {checks!r}")

    outcomes = []
    for check_id in selected:
        start = time.perf_counter()
        outcome = getattr(ctx, _CHECK_METHODS[check_id])()
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        outcomes.append((outcome, elapsed_ms))
    return SuiteReport(algebra.name, algebra.dim, ctx.k, tuple(outcomes))


def render_text(report: SuiteReport) -> str:
    lines = [
        f"algebra {report.algebra_name}"
        f" (dimension {report.dimension}, subalgebra dimension {report.subalgebra_dimension})"
    ]
    for outcome, ms in report.outcomes:
        status = "pass" if outcome.passed else "FAIL"
        lines.append(f"check {outcome.check_id}: {status} [{ms} ms]")
        for item in outcome.items:
            lines.append(f"  {item.item_id}: " + ("pass" if item.witness is None else f"FAIL  <- {item.witness}"))
        if outcome.values:
            pairs = ", ".join(f"{k} = {v}" for k, v in outcome.values.items())
            lines.append(f"  values: {pairs}")
    lines.append(
        "result: all checks passed"
        if report.all_passed
        else "result: "
        + str(sum(1 for outcome, _ in report.outcomes if not outcome.passed))
        + " check(s) failed"
    )
    return "\n".join(lines) + "\n"


def render_machine(report: SuiteReport) -> str:
    doc = {
        "algebra": report.algebra_name,
        "dimension": report.dimension,
        "subalgebra_dimension": report.subalgebra_dimension,
        "all_passed": report.all_passed,
        "checks": [],
    }
    for outcome, ms in report.outcomes:
        record = {
            "id": outcome.check_id,
            "status": "pass" if outcome.passed else "fail",
            "time_ms": ms,
            "items": [
                {"id": item.item_id, "status": "pass"}
                if item.witness is None
                else {"id": item.item_id, "status": "fail", "witness": item.witness}
                for item in outcome.items
            ],
            "values": {key: str(val) for key, val in outcome.values.items()},
        }
        doc["checks"].append(record)
    return json.dumps(doc, indent=2) + "\n"
