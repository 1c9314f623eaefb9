"""Faults put into the operator's construction, and what the reports say under them.

Each fault is injected with monkeypatch, and the whole suite runs on
sl2-killing, sl2-killing-half and sl2xsl2-diagonal, the last both as the pair
and with no subalgebra.  Every fault must fail some item, unless a guard
refuses it first; every failing item must carry a non-empty witness, and
both renderers must show it.  The witnesses of two faults are pinned, and so
is one fault that reaches each of the items that only v's perturbations and
a doubled bracket coproduct make fail.
"""

import json
from fractions import Fraction

import pytest

from conftest import grade_involution
from cubicdirac import dirac, lie
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import CliffordSpace, _multivector_from_numerators
from cubicdirac.dirac import DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import bracket_coproduct
from cubicdirac.lie import QuadraticLieAlgebra
from cubicdirac.suite import render_machine, render_text, run_suite
from cubicdirac.tensor import TensorElement

CASES = {
    "sl2-killing": ("sl2-killing", False),
    "sl2-killing-half": ("sl2-killing-half", False),
    "sl2xsl2-diagonal-pair": ("sl2xsl2-diagonal", True),
    "sl2xsl2-diagonal": ("sl2xsl2-diagonal", False),
}


def dirac_with_lower_indices(self):
    """D = sum_i X_i (x) e_i + 1 (x) v: X_i where the dual basis X^i = X_i / d_i belongs.

    X_i is the generator of the context's block, lo + i, so that the fault
    also reaches D_h, whose p indices are the adapted indices of h.
    """
    d = TensorElement.from_parts(PBWElement.one(self.adapted), self.v)
    for i in range(self.m):
        x = PBWElement.generator(self.adapted, self._lo + i)
        d = d + TensorElement.from_parts(x, self.space.generator(i))
    return d


def doubled_v(space, numerators, den, weights):
    return 2 * _multivector_from_numerators(space, numerators, den, weights)


def negated_v(space, numerators, den, weights):
    return -_multivector_from_numerators(space, numerators, den, weights)


def v_plus_blade(*indices):
    """v plus the blade on indices: e1^e2 makes v neither odd nor even, and
    e1^e2^e3 keeps it a 3-vector, one that is not a multiple of v once the
    third exterior power has more than one dimension."""

    def fault(space, numerators, den, weights):
        return _multivector_from_numerators(space, numerators, den, weights) + space.blade(indices)

    return fault


def doubled_coproduct(space, algebra, x):
    return 2 * bracket_coproduct(space, algebra, x)


def first_gram_doubled(gram):
    """The Clifford space of h_perp with its first Gram entry doubled; the
    adapted form's Gram entries, which D and the weights of t read, stay as
    they are."""
    return CliffordSpace((2 * gram[0], *gram[1:]))


VALIDATED_INIT = QuadraticLieAlgebra.__init__


def init_with_one_constant_doubled(self, *args):
    """Validate the algebra, then double the first nonzero structure constant
    of its integer structure, which v and the cohomology kernels read; the
    Fraction store, which PBW rewriting and so D^2 read, stays as it is."""
    VALIDATED_INIT(self, *args)
    sparse = dict(self._sparse)
    pair = next((pair for pair, terms in sparse.items() if terms), None)
    if pair is not None:
        (k, c), *rest = sparse[pair]
        sparse[pair] = ((k, 2 * c), *rest)
        sparse[pair[::-1]] = tuple((t, -x) for t, x in sparse[pair])
        self._integer_structure = lie._bracket_structure(self.dim, sparse)


# fault -> the (owner, attribute, replacement) patches that put it in
FAULTS = {
    "v-doubled": [(dirac, "_multivector_from_numerators", doubled_v)],
    "v-zero": [(dirac, "_multivector_from_numerators", lambda space, *table: space.zero())],
    "v-negated": [(dirac, "_multivector_from_numerators", negated_v)],
    "v-plus-e1e2e3": [(dirac, "_multivector_from_numerators", v_plus_blade(0, 1, 2))],
    "v-plus-e1e2": [(dirac, "_multivector_from_numerators", v_plus_blade(0, 1))],
    "coproduct-doubled": [(dirac, "bracket_coproduct", doubled_coproduct)],
    "spin-lift-dropped": [(dirac, "spin_lift", lambda space, nu: space.zero())],
    "twist-sign-dropped": [(dirac, "twisted_commutator", lambda v, a: v * a + grade_involution(a) * v)],
    "lower-index-in-D": [(DiracContext, "_build_dirac", dirac_with_lower_indices)],
    "gram-entry-scaled": [(dirac, "CliffordSpace", first_gram_doubled)],
    "structure-constant-changed": [(QuadraticLieAlgebra, "__init__", init_with_one_constant_doubled)],
}


# faults that a guard refuses with ContractViolation on every case, so that no
# item fails under them, and the start of the guard's message:
#   - bracket_coproduct compares the space's Gram entries with the adapted
#     form before first-order-cancellation can compare anything;
#   - v's alternation check sees t(X_k, X_i, X_j) doubled and t(X_i, X_j, X_k)
#     not, since t is read off the integer structure and a single changed
#     constant breaks ad-invariance.
REFUSED = {
    "gram-entry-scaled": "space Gram does not match the algebra form",
    "structure-constant-changed": "trilinear map not alternating at",
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


@pytest.mark.parametrize("fault", [fault for fault in FAULTS if fault not in REFUSED])
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


@pytest.mark.parametrize("fault", REFUSED)
def test_guarded_faults_are_refused_on_every_case(monkeypatch, fault):
    for case in CASES:
        with pytest.raises(ContractViolation, match=REFUSED[fault]):
            faulted_report(monkeypatch, fault, case)


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


# item -> a (fault, case) under which it fails, and its witness there
REACHED = {
    "v-square-scalar": ("v-plus-e1e2e3", "sl2xsl2-diagonal", "degrees [0, 4]"),
    "v-square-central": ("v-plus-e1e2e3", "sl2xsl2-diagonal", "p1"),
    "dv-square-is-v2-bracket": ("v-plus-e1e2", "sl2-killing", "p3"),
    "middle-term-identity": ("coproduct-doubled", "sl2-killing", "p1 (x) p2^p3: -1/16 vs -1/8"),
}


@pytest.mark.parametrize("item_id", REACHED)
def test_the_v_square_and_middle_term_items_fail_under_a_fault(monkeypatch, item_id):
    """A 3-vector added to v that is not a multiple of it makes v^2 neither
    scalar nor central on sl2 + sl2; on sl(2), whose third exterior power is
    a line, it only rescales v.  An even blade added to v breaks the square
    law of d_v.  delta doubled breaks the middle term, which reads the Gram
    entries and delta, not v or D."""
    fault, case, witness = REACHED[item_id]
    report = faulted_report(monkeypatch, fault, case)
    assert {item.item_id: item.witness for _, item in failing_items(report)}[item_id] == witness
