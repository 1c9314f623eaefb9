"""Exact linear algebra: solving, inversion, and congruence diagonalization."""

import random
from fractions import Fraction

import pytest

from conftest import invert
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
