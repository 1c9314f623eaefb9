"""The Chevalley-Eilenberg kernels, the dB-equals-2v item and the bracket coproduct.

d, theta_X and iota_X are applied through the conftest oracles that run the
package's kernels on `conftest.MultilinearMap`, and compared with the
gather forms kept here.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    MultilinearMap,
    abelian_named_sl2,
    changed_algebra,
    form_of_trivector,
    form_value,
    insert_first,
    is_alternating,
    kernel_differential,
    lie_action,
    pairing,
    tstar_heisenberg,
    unit_vector,
)
from cubicdirac import dirac, forms
from cubicdirac.catalog import catalog_entry, catalog_names
from cubicdirac.clifford import Multivector
from cubicdirac.dirac import CheckItem, DiracContext
from cubicdirac.errors import ContractViolation
from cubicdirac.forms import bracket_coproduct
from cubicdirac.lie import orthogonal_split, unit
from cubicdirac.sparse import LinearCombination


@pytest.fixture(scope="module")
def sl2():
    return catalog_entry("sl2-killing").algebra


@pytest.fixture(scope="module")
def sl2_ctx(sl2):
    return DiracContext(sl2)


def basis(n):
    return [unit_vector(n, i) for i in range(n)]


def covector(algebra, x):
    """x* = B(x, .) as an arity-1 map."""
    return MultilinearMap(algebra, 1, {(i,): form_value(algebra, x, unit_vector(algebra.dim, i)) for i in range(algebra.dim)})


def value(w, key):
    """The entry of w on the index tuple key; absent entries read as zero."""
    return w.terms.get(tuple(key), Fraction(0))


def all_keys(n, arity):
    if arity == 0:
        return [()]
    keys = [()]
    for _ in range(arity):
        keys = [k + (i,) for k in keys for i in range(n)]
    return keys


def test_covector_values(sl2):
    e_star = covector(sl2, unit_vector(3, 0))
    assert value(e_star, (0,)) == 0
    assert value(e_star, (1,)) == 0
    assert value(e_star, (2,)) == 4


def test_from_matrix_roundtrip(sl2):
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    for i in range(3):
        for j in range(3):
            assert value(b, (i, j)) == sl2.form.entry(i, j)


def test_differential_of_invariant_form(sl2):
    """dB(x,y,z) collapses to -B(x,[y,z]) when B is invariant."""
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    db = kernel_differential(b)
    assert db.arity == 3
    es = basis(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = -form_value(sl2, es[i], sl2.bracket(es[j], es[k]))
                assert value(db, (i, j, k)) == expected
    assert is_alternating(db)


def test_invariant_form_is_killed_by_every_lie_action(sl2):
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    for x in basis(3):
        assert lie_action(x, b).is_zero()


def test_lie_action_on_a_covector(sl2):
    """theta_h e* = -2 e* because e* pairs only against f and [h,f] = -2f."""
    e_star = covector(sl2, unit_vector(3, 0))
    acted = lie_action(unit_vector(3, 1), e_star)
    assert acted == Fraction(-2) * e_star


def test_lie_action_on_abelian_algebra_vanishes():
    g = catalog_entry("abelian3").algebra
    w = MultilinearMap(g, 2, {(0, 1): Fraction(5), (1, 0): Fraction(-5)})
    for x in basis(3):
        assert lie_action(x, w).is_zero()


def test_insert_first_on_covector_gives_form_value(sl2):
    es = basis(3)
    for x in es:
        x_star = covector(sl2, x)
        for y in es:
            contracted = insert_first(y, x_star)
            assert contracted.arity == 0
            assert value(contracted, ()) == form_value(sl2, x, y)


def test_insert_first_on_form_gives_covector(sl2):
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    for i in range(3):
        assert insert_first(unit_vector(3, i), b) == covector(sl2, unit_vector(3, i))


def test_insert_first_rejects_arity_zero(sl2):
    w = MultilinearMap(sl2, 0, {(): Fraction(1)})
    with pytest.raises(ContractViolation):
        insert_first(unit_vector(3, 0), w)


def test_cartan_formula_on_point_masses(sl2):
    """iota_X d + d iota_X = theta_X, spot-checked over random point masses."""
    rng = random.Random(43)
    for arity in (1, 2, 3):
        for _ in range(8):
            key = tuple(rng.randrange(3) for _ in range(arity))
            w = MultilinearMap(sl2, arity, {key: Fraction(rng.randint(1, 5))})
            x = basis(3)[rng.randrange(3)]
            lhs = insert_first(x, kernel_differential(w)) + kernel_differential(insert_first(x, w))
            assert lhs == lie_action(x, w)


def test_differential_squares_to_zero(sl2):
    for i in range(3):
        w = MultilinearMap(sl2, 1, {(i,): Fraction(1)})
        assert kernel_differential(kernel_differential(w)).is_zero()
    pair = MultilinearMap(sl2, 2, {(0, 2): Fraction(3), (2, 0): Fraction(-3)})
    assert kernel_differential(kernel_differential(pair)).is_zero()


def test_differential_preserves_alternating_maps(sl2):
    w = MultilinearMap(sl2, 2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    assert is_alternating(w)
    assert is_alternating(kernel_differential(w))


def test_maps_over_different_algebras_do_not_mix(sl2):
    namesake = abelian_named_sl2()
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    b_namesake = MultilinearMap.from_matrix(namesake, sl2.form)
    with pytest.raises(ContractViolation):
        b + b_namesake
    with pytest.raises(ContractViolation):
        b_namesake - b
    assert b != b_namesake
    with pytest.raises(ContractViolation):
        b + covector(sl2, unit_vector(3, 0))


def test_is_alternating_detects_symmetry(sl2):
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    assert not is_alternating(b)
    w = MultilinearMap(sl2, 2, {(0, 1): Fraction(2), (1, 0): Fraction(-2)})
    assert is_alternating(w)
    diag = MultilinearMap(sl2, 2, {(1, 1): Fraction(1)})
    assert not is_alternating(diag)


# -- the alternation test against its adjacent-swap body -------------------------
#
# `forms._canonical_part` compares the orderings of each increasing key and
# counts the nonzero entries.  The earlier alternation test swapped adjacent
# slots of every stored key; it is kept here as the reference.


def adjacent_swap_is_alternating(terms):
    for key, val in terms.items():
        if len(set(key)) != len(key):
            return False
        for s in range(len(key) - 1):
            swapped = key[:s] + (key[s + 1], key[s]) + key[s + 2 :]
            if terms.get(swapped, 0) != -val:
                return False
    return True


SCALARS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
NONZERO = SCALARS.filter(bool)


@st.composite
def tables(draw):
    """A table of arity 1..4 over n <= 5 indices: an alternating one, then up
    to three edits, each one entry perturbed, set to a stored zero, dropped
    (a missing ordering) or added on any key, repeated indices included."""
    arity, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    signed = [(p, (-1) ** sum(a > b for a, b in combinations(p, 2))) for p in permutations(range(arity))]
    table = {}
    for key in draw(st.lists(st.sampled_from(list(combinations(range(n), arity)) or [None]), unique=True)):
        if key is not None:
            val = draw(NONZERO)
            table.update({tuple(key[s] for s in p): sign * val for p, sign in signed})
    for edit in draw(st.lists(st.sampled_from(("perturb", "zero", "drop", "add")), max_size=3)):
        if edit == "add" or not table:
            key = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity)))
            table[key] = draw(SCALARS)
        else:
            key = draw(st.sampled_from(sorted(table)))
            if edit == "drop":
                del table[key]
            else:
                table[key] = 0 if edit == "zero" else table[key] + draw(NONZERO)
    return table


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(tables())
def test_canonical_part_agrees_with_the_adjacent_swap_test(table):
    canonical = forms._canonical_part(table)
    assert (canonical is not None) == adjacent_swap_is_alternating(table)
    if canonical is not None:
        assert canonical == {key: val for key, val in table.items() if val and list(key) == sorted(set(key))}


def test_bracket_coproduct_defining_property(sl2_ctx):
    """pairing(delta(x), e_i ^ e_j) recovers B(x, [e_i, e_j]) exhaustively."""
    g = sl2_ctx.adapted
    space = sl2_ctx.space
    es = basis(3)
    for x in es:
        delta = bracket_coproduct(space, g, x)
        assert delta.degrees() <= {2}
        for i in range(3):
            for j in range(i + 1, 3):
                wedge = space.blade((i, j))
                assert pairing(delta, wedge) == form_value(g, x, g.bracket(es[i], es[j]))


def test_bracket_coproduct_is_linear(sl2_ctx):
    g = sl2_ctx.adapted
    space = sl2_ctx.space
    x = (Fraction(2), Fraction(-1), Fraction(3))
    combo = bracket_coproduct(space, g, x)
    parts = [bracket_coproduct(space, g, unit_vector(3, i)) for i in range(3)]
    assert combo == 2 * parts[0] + (-1) * parts[1] + 3 * parts[2]


def reference_bracket_coproduct(space, algebra, x):
    """delta(x) by the m(m-1)/2 loop: the blade {i,j} takes B(x, [e_i, e_j]) / (d_i d_j)."""
    bx = algebra.form.mat_vec(x)
    terms = {}
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            val = sum((c * bx[k] for k, c in algebra.bracket_sparse(i, j)), Fraction(0))
            if val:
                terms[(1 << i) | (1 << j)] = val / (space.gram[i] * space.gram[j])
    return Multivector(space, terms)


@pytest.mark.parametrize(
    "name, with_subalgebra",
    [(name, False) for name in catalog_names()]
    + [(name, True) for name in catalog_names() if catalog_entry(name).subalgebra]
    + [("tstar-heisenberg", False)],
)
def test_bracket_coproduct_matches_the_reference(name, with_subalgebra, contexts):
    """Unit and non-unit rational x, the relative case (m < n) included; the
    blades come out in the reference's order, as lowest-terms Fractions."""
    if name == "tstar-heisenberg":
        ctx = DiracContext(tstar_heisenberg())
    else:
        ctx = contexts(name, with_subalgebra)
    g, space = ctx.adapted, ctx.space
    rng = random.Random(f"delta-{name}-{with_subalgebra}")
    xs = [unit(g.dim, a) for a in range(g.dim)]
    xs += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(g.dim)) for _ in range(4)]
    for x in xs:
        got = bracket_coproduct(space, g, x)
        want = reference_bracket_coproduct(space, g, x)
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction and c for c in got.terms.values())


# -- coordinate length ------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda b: insert_first((1,), b),
        lambda b: insert_first((0, 0, 1, 5), b),
        lambda b: lie_action((0, 1), b),
        lambda b: lie_action((0, 0, 0, 1), b),
    ],
    ids=["iota-short", "iota-long", "theta-short", "theta-long"],
)
def test_operators_reject_a_wrong_coordinate_length(sl2, call):
    b = MultilinearMap.from_matrix(sl2, sl2.form)
    with pytest.raises(ContractViolation, match="coordinate length does not match the algebra"):
        call(b)


# -- dense reference ----------------------------------------------------------
#
# The gather form of d, theta_X and iota_X: every output tuple is evaluated
# from the coordinate formula.  It costs n^(k+1) tuples whatever the input,
# so it lives here as an oracle for the scatter kernels, run through the
# conftest oracles.
# d is gathered once per algebra and arity as a matrix, so the sweep over the
# 584 point masses of sl3 evaluates each output tuple once, not 584 times.


@functools.lru_cache(maxsize=None)
def dense_differential_rows(g, k):
    """{output tuple: {input key: coefficient}}: the matrix of d on arity-k maps."""
    rows = {}
    for idx in product(range(g.dim), repeat=k + 1):
        row = {}
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                base = idx[:s] + idx[s + 1 :]
                pos = t - 1
                for r, c in g.bracket_sparse(idx[s], idx[t]):
                    key = base[:pos] + (r,) + base[pos + 1 :]
                    row[key] = row.get(key, Fraction(0)) + (-c if s & 1 else c)
        rows[idx] = {key: c for key, c in row.items() if c}
    return rows


def dense_differential(w):
    out = {}
    for idx, row in dense_differential_rows(w.algebra, w.arity).items():
        total = sum((c * value(w, key) for key, c in row.items()), Fraction(0))
        if total:
            out[idx] = total
    return MultilinearMap(w.algebra, w.arity + 1, out)


def dense_lie_action(x, w):
    g, n, k = w.algebra, w.algebra.dim, w.arity
    adx = []
    for s in range(n):
        col = {}
        for i, xi in enumerate(x):
            for r, c in g.bracket_sparse(i, s):
                col[r] = col.get(r, Fraction(0)) + xi * c
        adx.append(col)
    out = {}
    for idx in product(range(n), repeat=k):
        total = Fraction(0)
        for s in range(k):
            for r, c in adx[idx[s]].items():
                total += c * value(w, idx[:s] + (r,) + idx[s + 1 :])
        if total:
            out[idx] = total
    return MultilinearMap(g, k, out)


def dense_insert_first(x, w):
    g = w.algebra
    out = {}
    for idx in product(range(g.dim), repeat=w.arity - 1):
        total = sum((xa * value(w, (a,) + idx) for a, xa in enumerate(x)), Fraction(0))
        if total:
            out[idx] = total
    return MultilinearMap(g, w.arity - 1, out)


def random_map(rng, g, arity, entries):
    keys = [tuple(rng.randrange(g.dim) for _ in range(arity)) for _ in range(entries)]
    return MultilinearMap(g, arity, {key: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for key in keys})


def reference_algebra(name):
    if name == "sl2xsl2-diagonal#adapted":
        entry = catalog_entry("sl2xsl2-diagonal")
        return orthogonal_split(entry.algebra, entry.subalgebra).adapted
    if name == "tstar-heisenberg#adapted":
        # structure constants with denominators 2, 4 and 8, Grams 2 and -1/2
        return orthogonal_split(tstar_heisenberg()).adapted
    return catalog_entry(name).algebra


@pytest.mark.parametrize("name", [*catalog_names(), "sl2xsl2-diagonal#adapted", "tstar-heisenberg#adapted"])
def test_scatter_operators_match_the_dense_reference(name):
    """Every result is also checked to store only nonzero Fractions."""
    g = reference_algebra(name)
    rng = random.Random(f"ce-{name}")
    for arity in range(4):
        for entries in (1, 3, g.dim**arity):
            w = random_map(rng, g, arity, entries)
            results = [(kernel_differential(w), dense_differential(w))]
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.dim))
            y = tuple(Fraction(rng.randint(-5, 5), rng.choice((2, 3, 7))) for _ in range(g.dim))
            for z in (x, y, *(unit(g.dim, i) for i in range(g.dim))):
                results.append((lie_action(z, w), dense_lie_action(z, w)))
            if arity:
                for z in (x, y):
                    results.append((insert_first(z, w), dense_insert_first(z, w)))
            for got, want in results:
                assert got.terms == want.terms
                assert all(type(c) is Fraction and c for c in got.terms.values())


def iota_keeping_the_first_index(original):
    """The iota kernel with each bucket keyed by the whole key instead of key[1:]."""
    return lambda entries: {
        a: {(a, *rest): n for rest, n in bucket.items()} for a, bucket in original(entries).items()
    }


@pytest.mark.parametrize("name", ["sl2xsl2-diagonal", "sl3-killing"])
def test_insert_first_fails_under_the_iota_kernel_fault(monkeypatch, name):
    """`insert_first` is the one reader of `_iota_buckets`, both kept in
    conftest as oracles: with the fault bound there, iota_{e_i} of every
    point mass of arity 1 or 2 with first index i disagrees with the dense
    reference, which it matches without."""
    g = catalog_entry(name).algebra
    cases = [
        (unit(g.dim, key[0]), MultilinearMap(g, arity, {key: 1}))
        for arity in (1, 2)
        for key in product(range(g.dim), repeat=arity)
    ]
    assert all(insert_first(x, w).terms == dense_insert_first(x, w).terms for x, w in cases)
    monkeypatch.setattr(conftest, "_iota_buckets", iota_keeping_the_first_index(conftest._iota_buckets))
    assert all(insert_first(x, w).terms != dense_insert_first(x, w).terms for x, w in cases)


def test_differential_matches_the_dense_reference_on_every_sl3_point_mass():
    g = catalog_entry("sl3-killing").algebra
    for arity in (1, 2, 3):
        columns = {}
        for idx, row in dense_differential_rows(g, arity).items():
            for key, c in row.items():
                columns.setdefault(key, {})[idx] = c
        for key in product(range(g.dim), repeat=arity):
            w = MultilinearMap(g, arity, {key: 1})
            assert kernel_differential(w).terms == columns.get(key, {})


# -- dB-equals-2v against the dense reference -----------------------------------
#
# The item scatters d on the form's integer entries and reads 2<v, .^.^.> off
# v's degree-3 blades.  The reference applies the gather form of d to the form
# as a map, and pairs v with every blade (`conftest.form_of_trivector`).


def reference_db_item(ctx):
    g = ctx.adapted
    lhs = dense_differential(MultilinearMap.from_matrix(g, g.form)).terms
    rhs = (2 * form_of_trivector(g, ctx.v)).terms
    return CheckItem("dB-equals-2v", dirac._first_difference(lhs, rhs, g.labels))


# faults put into v where the context builds it, each as a wrapper of the kernel
V_FAULTS = {
    "exact": lambda build: build,
    "v-doubled": lambda build: lambda *args: 2 * build(*args),
    "v-plus-e1e2e3": lambda build: lambda space, *args: build(space, *args) + space.blade((0, 1, 2)),
    "v-plus-e1e2": lambda build: lambda space, *args: build(space, *args) + space.blade((0, 1)),
}


def db_context(name):
    if name == "tstar-heisenberg":
        return DiracContext(tstar_heisenberg())
    if name == "sl3-killing-basis-5":
        return DiracContext(changed_algebra("sl3-killing", 5))
    entry = catalog_entry(name)
    return DiracContext(entry.algebra, entry.subalgebra).absolute


DB_CASES = [
    (name, fault)
    for name in (*catalog_names(), "tstar-heisenberg", "sl3-killing-basis-5")
    for fault in V_FAULTS
    if "plus" not in fault or name not in ("abelian1", "abelian2")
]


@pytest.mark.parametrize("name, fault", DB_CASES)
def test_db_item_matches_the_dense_reference(monkeypatch, name, fault):
    """The same item and witness as the reference, on the catalog (a pair on
    its absolute context, in the h-adapted basis), a split form and a
    rational basis, with v exact and faulted.  A degree-2 blade added to v
    pairs with no triple, and an abelian algebra has v = 0 = dB, so those
    leave the item passing."""
    faulty = V_FAULTS[fault](dirac._multivector_from_numerators)
    monkeypatch.setattr(dirac, "_multivector_from_numerators", faulty)
    ctx = db_context(name)
    item = ctx._db_item()
    assert item == reference_db_item(ctx)
    passes = fault in ("exact", "v-plus-e1e2") or (fault == "v-doubled" and name.startswith("abelian"))
    assert item.ok == passes


def test_db_item_builds_no_map(monkeypatch):
    """dB and 2<v, .> are term tables: no element is added, scaled or negated."""
    ctx = db_context("sl2xsl2-diagonal")

    def forbidden(*args, **kwargs):
        raise AssertionError("dB-equals-2v built an element")

    for name in ("__add__", "__sub__", "__neg__", "__rmul__"):
        monkeypatch.setattr(LinearCombination, name, forbidden)
    item = ctx._db_item()
    monkeypatch.undo()
    assert item == CheckItem("dB-equals-2v")
