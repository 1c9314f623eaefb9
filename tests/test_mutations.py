"""Faults put into the operator's construction, and what the reports say under them.

Each fault is injected with monkeypatch, and the whole suite runs on
sl2-killing, sl2-killing-half and sl2xsl2-diagonal, the last both as the pair
and with no subalgebra.  Every fault must fail some item, unless a guard
refuses it first; every failing item must carry a non-empty witness, and
both renderers must show it.  The witnesses of three faults are pinned, and so
is one fault that reaches each of the items that only v's perturbations and
a doubled bracket coproduct make fail, and dB-equals-2v's witness under each
odd fault of v on every case.  Every item the bundles emit on the cases
fails under some fault, or is named with the reason it cannot.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import overlap_sums_with_twist_sign_dropped, tensor_from_parts
from cubicdirac import clifford, dirac, tensor
from cubicdirac.catalog import catalog_entry
from cubicdirac.clifford import CliffordSpace, _multivector_from_numerators
from cubicdirac.dirac import DiracContext
from cubicdirac.envelope import PBWElement
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import bracket_coproduct
from cubicdirac.lie import OrthogonalSplit, QuadraticLieAlgebra
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

    X_i is the context's own generator i; D_h is built by the same method
    on h's algebra, so the fault reaches it too.
    """
    d = tensor_from_parts(PBWElement.one(self.adapted), self.v)
    for i in range(self.m):
        x = PBWElement.generator(self.adapted, i)
        d = d + tensor_from_parts(x, self.space.generator(i))
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


DIAGONAL_EMBEDDING = DiracContext.diagonal_embedding


def embedding_without_lift(self, j):
    """Delta(Y_j) with its spin lift, the part in 1 (x) C(h_perp), dropped: Y_j (x) 1."""
    terms = DIAGONAL_EMBEDDING(self, j).terms
    return TensorElement._from_terms((self.adapted, self.space), {key: c for key, c in terms.items() if key[0]})


def first_gram_doubled(gram):
    """The Clifford space of h_perp with its first Gram entry doubled; the
    adapted form's Gram entries, which D and the weights of t read, stay as
    they are."""
    return CliffordSpace((2 * gram[0], *gram[1:]))


FROM_STRUCTURE = QuadraticLieAlgebra._from_structure.__func__


def adapted_with_one_constant_doubled(cls, *args):
    """Build the adapted algebra from its certified structure, then double
    the first nonzero structure constant [e_a, e_s] of its one table, the
    integer structure, which v, PBW rewriting and the cohomology kernels all
    read, and negate the constant of [e_s, e_a] with it, so that the table
    stays antisymmetric."""
    adapted = FROM_STRUCTURE(cls, *args)
    den, ad, preimage = adapted._integer_structure
    a, s = next(((a, s) for a, row in enumerate(ad) for s in row), (None, None))
    if a is not None:
        ad = [dict(row) for row in ad]
        (r, c), *rest = ad[a][s]
        ad[a][s] = ((r, 2 * c), *rest)
        ad[s][a] = tuple((t, -x) for t, x in ad[a][s])
        adapted._integer_structure = den, tuple(ad), preimage
    return adapted


NORMAL_FORM = tensor._normal_form


def normal_form_with_bracket_negated(structure, ma, mb):
    """The normal form of a pair of monomials, with the bracket term of
    X_j X_i = X_i X_j + [X_j, X_i] negated when both are degree 1."""
    depth, terms = NORMAL_FORM(structure, ma, mb)
    if len(ma) == len(mb) == 1:
        terms = tuple((mono, -n if len(mono) == 1 else n) for mono, n in terms)
    return depth, terms


# fault -> the (owner, attribute, replacement) patches that put it in
FAULTS = {
    "v-doubled": [(dirac, "_multivector_from_numerators", doubled_v)],
    "v-zero": [(dirac, "_multivector_from_numerators", lambda space, *table: space.zero())],
    "v-negated": [(dirac, "_multivector_from_numerators", negated_v)],
    "v-plus-e1e2e3": [(dirac, "_multivector_from_numerators", v_plus_blade(0, 1, 2))],
    "v-plus-e1e2": [(dirac, "_multivector_from_numerators", v_plus_blade(0, 1))],
    "coproduct-doubled": [(dirac, "bracket_coproduct", doubled_coproduct)],
    "spin-lift-dropped": [(DiracContext, "diagonal_embedding", embedding_without_lift)],
    "twist-sign-dropped": [
        (clifford, "_overlap_sums", overlap_sums_with_twist_sign_dropped),
        (dirac, "_overlap_sums", overlap_sums_with_twist_sign_dropped),
        (tensor, "_overlap_sums", overlap_sums_with_twist_sign_dropped),
    ],
    "lower-index-in-D": [(DiracContext, "_build_dirac", dirac_with_lower_indices)],
    "gram-entry-scaled": [(dirac, "CliffordSpace", first_gram_doubled)],
    "structure-constant-changed": [
        (QuadraticLieAlgebra, "_from_structure", classmethod(adapted_with_one_constant_doubled))
    ],
    "normal-form-bracket-negated": [(tensor, "_normal_form", normal_form_with_bracket_negated)],
}


# faults that a guard refuses with ContractViolation on every case, so that no
# item fails under them, and the start of the guard's message:
#   - bracket_coproduct compares the space's Gram entries with the adapted
#     form before first-order-cancellation can compare anything;
#   - v's alternation check sees t(X_k, X_i, X_j) doubled and t(X_i, X_j, X_k)
#     not, since t is read off the integer structure and a single changed
#     constant breaks ad-invariance; v is built before D, whose square
#     rewrites on the same table.
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


def test_a_changed_structure_constant_is_refused_before_any_context_of_h(monkeypatch):
    """`_from_structure` builds h's algebra as well as the adapted one, and
    the fault is refused on every case before any algebra of h is made.
    With h = 0 the root context refuses it.  On the pair the doubled
    constant is [p1, p2], which lies in h, so v of g/h does not read it;
    the absolute context of the cohomology check refuses it, before the
    decomposition check would build the context of h."""
    fault = "structure-constant-changed"
    made = []
    restrict = OrthogonalSplit.subalgebra_as_algebra
    monkeypatch.setattr(OrthogonalSplit, "subalgebra_as_algebra", lambda split: made.append(split) or restrict(split))
    for case, (name, pair) in CASES.items():
        if not pair:
            with monkeypatch.context() as patch:
                for owner, attr, replacement in FAULTS[fault]:
                    patch.setattr(owner, attr, replacement)
                with pytest.raises(ContractViolation, match=REFUSED[fault]):
                    DiracContext(catalog_entry(name).algebra)
        with pytest.raises(ContractViolation, match=REFUSED[fault]):
            faulted_report(monkeypatch, fault, case)
    assert made == []
    entry = catalog_entry("sl2xsl2-diagonal")
    assert DiracContext(entry.algebra, entry.subalgebra).decomposition_check().passed
    assert len(made) == 1


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
    ("coproduct-doubled", "sl2xsl2-diagonal-pair"): (
        [
            ("kostant", "residual-linear-terms-vanish", "h1 (x) p2^p3: 1/64 vs 0"),
            ("kostant", "residual-scalar", "h1 (x) p2^p3: 1/64 vs 0"),
            ("cohomology", "delta-plus-dv-vanishes", "p1"),
            ("decomposition", "decomposition-identity", "1 (x) p2^p3^h1: 1/128 vs 1/64"),
            ("decomposition", "components-anticommute", "p1 (x) p3^h2: -1/64 vs 0"),
            ("decomposition", "squared-consequence", "1 (x) 1: 0 vs -9/16"),
            ("decomposition", "c-additivity", "c_rel=None c_g=1/4 c_h=1/16"),
            ("invariance", "delta-commutes-with-dirac:h1", "p2 (x) p3: -1/4 vs 0"),
            ("invariance", "delta-commutes-with-dirac:h2", "p1 (x) p3: 1/4 vs 0"),
            ("invariance", "delta-commutes-with-dirac:h3", "p1 (x) p2: 1/16 vs 0"),
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
    its invariance, and leaves the cohomology of g, which has no h.  delta
    doubled doubles the lift, which is -1/2 delta(y), so it breaks the same
    items, and delta-plus-dv-vanishes on g; on this symmetric pair
    [h_perp, h_perp] lies in h, so delta(X_a) is 0 in C(h_perp) and
    first-order-cancellation holds.  v doubled breaks
    the items that read v, and dB against 2v shows the factor 2."""
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


@pytest.mark.parametrize("case", CASES)
def test_a_negated_bracket_in_a_degree_one_normal_form_breaks_the_residual(monkeypatch, case):
    """X_j X_i = X_i X_j - [X_j, X_i] in the products of degree-1 monomials,
    which is every PBW rewrite D^2 takes, leaves first-order terms in the
    residual on every case."""
    report = faulted_report(monkeypatch, "normal-form-bracket-negated", case)
    failing = {item.item_id for check_id, item in failing_items(report) if check_id == "kostant"}
    assert failing & {"residual-scalar", "residual-linear-terms-vanish"}, failing


# (fault, case) -> dB-equals-2v's witness: d B against 2<v, .^.^.> at the
# least differing index triple of the absolute context's adapted basis
DB_WITNESSES = {
    ("v-doubled", "sl2-killing"): "p1,p2,p3: -8 vs -16",
    ("v-doubled", "sl2-killing-half"): "p1,p2,p3: -4 vs -8",
    ("v-doubled", "sl2xsl2-diagonal-pair"): "p1,p2,h3: -16 vs -32",
    ("v-doubled", "sl2xsl2-diagonal"): "p1,p3,p4: 8 vs 16",
    ("v-negated", "sl2-killing"): "p1,p2,p3: -8 vs 8",
    ("v-negated", "sl2-killing-half"): "p1,p2,p3: -4 vs 4",
    ("v-negated", "sl2xsl2-diagonal-pair"): "p1,p2,h3: -16 vs 16",
    ("v-negated", "sl2xsl2-diagonal"): "p1,p3,p4: 8 vs -8",
    ("v-zero", "sl2-killing"): "p1,p2,p3: -8 vs 0",
    ("v-zero", "sl2-killing-half"): "p1,p2,p3: -4 vs 0",
    ("v-zero", "sl2xsl2-diagonal-pair"): "p1,p2,h3: -16 vs 0",
    ("v-zero", "sl2xsl2-diagonal"): "p1,p3,p4: 8 vs 0",
    ("v-plus-e1e2e3", "sl2-killing"): "p1,p2,p3: -8 vs -264",
    ("v-plus-e1e2e3", "sl2-killing-half"): "p1,p2,p3: -4 vs -36",
    ("v-plus-e1e2e3", "sl2xsl2-diagonal-pair"): "p1,p2,p3: 0 vs -2048",
    ("v-plus-e1e2e3", "sl2xsl2-diagonal"): "p1,p2,p3: 0 vs 1024",
}


@pytest.mark.parametrize("fault, case", DB_WITNESSES, ids=[f"{fault}-{case}" for fault, case in DB_WITNESSES])
def test_db_witness_is_pinned_under_each_odd_fault_of_v(monkeypatch, fault, case):
    """The item reads v as the context built it, so each of these faults
    reaches it: 2v, -v and 0 rescale the right side, and e1^e2^e3 added to
    v moves it off the line of v on sl2 + sl2."""
    report = faulted_report(monkeypatch, fault, case)
    witnesses = {item.item_id: item.witness for _, item in failing_items(report)}
    assert witnesses["dB-equals-2v"] == DB_WITNESSES[fault, case]


V_FREE = "reads no v and runs on the input algebra's own structure constants, so it fails only under a fault of the "

# item -> why no fault of FAULTS fails it on any case
NEVER_FAILS = {
    "theta-B-vanishes": V_FREE + "theta kernel (test_dirac.test_theta_b_item_matches_lie_action)",
    "cartan-formula": V_FREE + "d and ad kernels (test_dirac.KERNEL_FAULTS)",
    "d-squared-zero": V_FREE + "d kernel (test_dirac.test_d_items_match_the_references_on_a_d_that_fails_past_an_arity)",
    "d-preserves-alternating": V_FREE
    + "d kernel (test_dirac.test_d_items_match_the_references_on_a_d_that_fails_past_an_arity)",
    "h-invariance-vacuous": "emitted only when h = 0, where there is nothing to compare: it cannot fail",
    "c-basis-invariant": "every fault acts in the variant basis as in the first, so both give the same constant",
}


@pytest.fixture(scope="module")
def mutation_matrix():
    """The mutation matrix, run once for the module: the item ids the cases
    emit in report order, and {(item, fault): the cases on which the fault
    fails the item} for each fault that no guard refuses."""
    emitted: dict = {}
    for name, pair in CASES.values():
        entry = catalog_entry(name)
        report = run_suite(entry.algebra, entry.subalgebra if pair else ())
        emitted.update((item.item_id, None) for outcome, _ in report.outcomes for item in outcome.items)
    cells: dict = {}
    for fault in FAULTS:
        if fault in REFUSED:
            continue
        for case in CASES:
            for _, item in failing_items(faulted_report(pytest.MonkeyPatch, fault, case)):
                cells.setdefault((item.item_id, fault), []).append(case)
    return list(emitted), cells


def test_every_item_fails_under_some_fault_or_is_named(mutation_matrix):
    """The item side of the mutation matrix: an item the cases emit that no
    fault fails is named in NEVER_FAILS with its reason, and a named item
    that some fault fails must leave the list, so it can only shrink."""
    emitted, cells = mutation_matrix
    failed_by: dict = {}
    for item_id, fault in cells:
        failed_by.setdefault(item_id, fault)
    assert {item_id: failed_by[item_id] for item_id in NEVER_FAILS if item_id in failed_by} == {}
    assert set(emitted) - failed_by.keys() == NEVER_FAILS.keys()


README = Path(__file__).resolve().parent.parent / "README.md"
# the letters by which the README's table names the cases
CASE_LETTERS = dict(zip(CASES, "abcd"))


def readme_matrix_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Items against faults")
    end = text.find("\n#", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_the_readme_matrix_is_the_mutation_run(mutation_matrix):
    """README's item x fault table is the matrix this module runs: one row
    per emitted item in report order, one column per fault, each cell the
    letters of the cases on which the fault fails the item, `refused` for
    the guarded faults; and README gives each item of NEVER_FAILS its
    reason."""
    emitted, cells = mutation_matrix
    section = readme_matrix_section()
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    assert header == ["item", *(f"`{fault}`" for fault in FAULTS)]
    table = {}
    for line in rows[2:]:
        item, *row = (cell.strip() for cell in line.strip("|").split("|"))
        table[item.strip("`")] = dict(zip(FAULTS, row))
    assert list(table) == emitted
    expected = {
        item: {
            fault: "refused" if fault in REFUSED else "".join(CASE_LETTERS[case] for case in cells.get((item, fault), ()))
            for fault in FAULTS
        }
        for item in emitted
    }
    assert table == expected
    # the list after the table, one bullet per item, wrapped
    listing = section.split("with its reason:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = (" ".join(bullet.split()) for bullet in listing.split("\n- "))
    reasons = dict(bullet.removeprefix("- ").removeprefix("`").split("`: ", 1) for bullet in bullets)
    assert reasons == NEVER_FAILS
