"""Exact linear algebra: solving, inversion, and congruence diagonalization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    changed_algebra,
    hostile_changed_algebra,
    hostile_form,
    invert,
    reference_diagonalize_form,
)
from cubicdirac import catalog_entry, catalog_names
from cubicdirac.errors import ContractViolation, DegenerateFormError
from cubicdirac.linalg import (
    Matrix,
    as_scalar,
    diagonalize_form,
    nullspace,
    rank,
    solve_linear,
    vector,
)


def test_as_scalar_accepts_ints_and_fractions():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(Fraction(2, 7)) == Fraction(2, 7)


def test_as_scalar_rejects_floats():
    with pytest.raises(ContractViolation):
        as_scalar(0.5)


def test_rational_arithmetic_is_exact():
    """Two textbook routes to a/b + c/d must agree bit for bit."""
    rng = random.Random(11)
    for _ in range(200):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        via_common = Fraction(a * d + c * b, b * d)
        via_sum = Fraction(a, b) + Fraction(c, d)
        assert via_common == via_sum


def test_solve_swap_system():
    a = Matrix([[0, 1], [1, 0]])
    sol = solve_linear(a, vector([5, 7]))
    assert sol is not None
    assert sol.vector == vector([7, 5])
    assert a.mat_vec(sol.vector) == vector([5, 7])
    assert sol.unique


def test_solve_inconsistent_returns_none():
    a = Matrix([[1, 1], [1, 1]])
    assert solve_linear(a, vector([1, 2])) is None


def test_solve_underdetermined_flags_non_unique():
    a = Matrix([[1, 0], [0, 0]])
    sol = solve_linear(a, vector([3, 0]))
    assert sol is not None
    assert not sol.unique
    assert a.mat_vec(sol.vector) == vector([3, 0])


def test_nullspace_of_rank_one_matrix():
    a = Matrix([[1, 2], [2, 4]])
    basis = nullspace(a)
    assert len(basis) == 1
    assert a.mat_vec(basis[0]) == vector([0, 0])
    assert rank(a) == 1


def test_invert_roundtrip():
    a = Matrix([[2, 1], [1, 1]])
    inv = invert(a)
    assert a @ inv == Matrix.identity(2)
    assert inv @ a == Matrix.identity(2)


def test_diagonalize_already_diagonal_form():
    b = Matrix([[8, 0, 0], [0, 4, 0], [0, 0, 4]])
    p, diag = diagonalize_form(b)
    assert p == Matrix.identity(3)
    assert diag == (Fraction(8), Fraction(4), Fraction(4))


def test_diagonalize_identity():
    b = Matrix.identity(3)
    p, diag = diagonalize_form(b)
    assert p == Matrix.identity(3)
    assert diag == (Fraction(1),) * 3


def test_diagonalize_hyperbolic_plane():
    """A form with an isotropic basis vector forces the pivot repair step."""
    b = Matrix([[0, 1], [1, 0]])
    p, diag = diagonalize_form(b)
    result = p.transpose() @ b @ p
    assert result.is_diagonal()
    assert result.diagonal() == diag
    assert all(d != 0 for d in diag)
    det = p.entry(0, 0) * p.entry(1, 1) - p.entry(0, 1) * p.entry(1, 0)
    assert det != 0


def test_diagonalize_random_symmetric_forms():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                val = Fraction(rng.randint(-4, 4))
                entries[i][j] = val
                entries[j][i] = val
        b = Matrix(entries)
        try:
            p, diag = diagonalize_form(b)
        except DegenerateFormError as exc:
            w = exc.witness
            assert w is not None
            assert any(c != 0 for c in w)
            assert b.mat_vec(w) == vector([0] * n)
            continue
        result = p.transpose() @ b @ p
        assert result.is_diagonal()
        assert result.diagonal() == diag
        assert all(d != 0 for d in diag)


def test_degenerate_form_reports_kernel_witness():
    b = Matrix([[1, 0], [0, 0]])
    with pytest.raises(DegenerateFormError) as info:
        diagonalize_form(b)
    w = info.value.witness
    assert w is not None
    assert b.mat_vec(w) == vector([0, 0])
    assert any(c != 0 for c in w)


def same_diagonalization(b: Matrix):
    """diagonalize_form and the Fraction reference give the same (P, d), or
    refuse with the same kernel witness; the entries are Fractions."""
    try:
        expected = reference_diagonalize_form(b)
    except DegenerateFormError as exc:
        with pytest.raises(DegenerateFormError) as info:
            diagonalize_form(b)
        assert info.value.witness == exc.witness
        return None
    p, d = diagonalize_form(b)
    assert (p, d) == expected
    assert all(type(x) is Fraction for x in d)
    assert all(type(x) is Fraction for i in range(p.rows) for x in p.row(i))
    return p, d


@st.composite
def symmetric_forms(draw):
    """Symmetric forms of size 1..6 with mixed denominators, drawn from four shapes:
    any entries, an all-zero diagonal (the isotropic repair), a sum of
    hyperbolic planes and a rank-deficient Gram S^T S."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("any", "zero-diagonal", "hyperbolic", "rank-deficient")))
    rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 7, 12, 35)))
    entries = [[Fraction(0)] * n for _ in range(n)]
    if shape == "rank-deficient":
        k = draw(st.integers(0, n - 1))
        s = [[draw(rational) for _ in range(n)] for _ in range(k)]
        for i in range(n):
            for j in range(n):
                entries[i][j] = sum((s[r][i] * s[r][j] for r in range(k)), Fraction(0))
        return Matrix(entries, cols=n)
    for i in range(n):
        for j in range(i, n):
            if shape == "any" or (i != j and shape == "zero-diagonal"):
                entries[i][j] = entries[j][i] = draw(rational)
    if shape == "hyperbolic":
        for i in range(0, n - 1, 2):
            entries[i][i + 1] = entries[i + 1][i] = draw(rational.filter(bool))
    return Matrix(entries, cols=n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(symmetric_forms())
def test_diagonalize_matches_the_fraction_reference_on_random_forms(b):
    same_diagonalization(b)


def test_diagonalize_matches_the_fraction_reference_on_catalog_and_hostile_forms():
    """Every catalog form, each in three changed bases, the hostile diagonal
    form and the hostile sl(3) form give the reference's (P, d) exactly."""
    forms = [catalog_entry(name).algebra.form for name in catalog_names()]
    forms += [changed_algebra(name, seed).form for name in catalog_names() for seed in range(3)]
    forms += [hostile_form(), hostile_changed_algebra("sl3-killing", 5).form]
    for b in forms:
        assert same_diagonalization(b) is not None


def test_untouched_pivots_hand_back_the_form_entries(monkeypatch):
    """On hostile_form() (16 x 16 diagonal, 4,000-digit denominators) no row
    is eliminated or repaired, so each d_i is the form's own entry and no
    row is rewritten over an lcm: the only Fractions built are the 16
    nonzero entries of P.  Rebuilding each d_i as a Fraction takes a gcd of
    4,000-digit numbers and made the elimination 2-4x slower than the
    Fraction reference here.  Forms with eliminations still give the
    reference's (P, d)."""
    form = hostile_form()
    original_new = Fraction.__new__
    built = []

    def new(cls, *args, **kwargs):
        built.append(args)
        return original_new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", new)
        p, d = diagonalize_form(form)
    assert all(d[i] is form.entry(i, i) for i in range(form.rows))
    assert len(built) == form.rows and p == Matrix.identity(form.rows)
    touched = (Matrix([[2, 1, 0], [1, 0, 3], [0, 3, 5]]), Matrix([[0, 1], [1, 0]]), Matrix([[0, 0, 1], [0, 4, 0], [1, 0, 0]]))
    for b in touched:
        assert same_diagonalization(b) is not None
