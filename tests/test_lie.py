"""Lie algebra layer: structure validation, Killing form, orthogonal splits."""

from fractions import Fraction

import pytest

from conftest import tstar_heisenberg, unit_vector
from cubicdirac.catalog import catalog_entry, catalog_names, heisenberg_brackets, sl2_brackets
from cubicdirac.errors import (
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
)
from cubicdirac.lie import (
    QuadraticLieAlgebra,
    check_ad_invariance,
    check_jacobi,
    killing_form,
    normalize_brackets,
    orthogonal_split,
    subalgebra_action,
)
from cubicdirac.linalg import Matrix, vector


@pytest.fixture(scope="module")
def sl2():
    return catalog_entry("sl2-killing").algebra


def test_sl2_bracket_relations(sl2):
    e = unit_vector(3, 0)
    h = unit_vector(3, 1)
    f = unit_vector(3, 2)
    assert sl2.bracket(h, e) == vector([2, 0, 0])
    assert sl2.bracket(h, f) == vector([0, 0, -2])
    assert sl2.bracket(e, f) == vector([0, 1, 0])
    assert sl2.bracket(e, e) == vector([0, 0, 0])
    assert sl2.bracket(f, e) == vector([0, -1, 0])


def test_killing_form_of_sl2():
    k = killing_form(3, normalize_brackets(3, sl2_brackets()))
    assert k.entry(1, 1) == Fraction(8)
    assert k.entry(0, 2) == Fraction(4)
    assert k.entry(2, 0) == Fraction(4)
    assert k.entry(0, 0) == 0
    assert k.entry(0, 1) == 0
    assert k.entry(2, 2) == 0


def test_killing_form_of_abelian_is_zero():
    k = killing_form(2, normalize_brackets(2, {}))
    assert k == Matrix.zero(2, 2)


def test_heisenberg_killing_form_is_degenerate():
    table = normalize_brackets(3, heisenberg_brackets())
    k = killing_form(3, table)
    assert k == Matrix.zero(3, 3)
    with pytest.raises(ValidationError) as info:
        QuadraticLieAlgebra("heis", ("x", "y", "z"), heisenberg_brackets(), k)
    assert info.value.condition == "form-non-degenerate"
    assert info.value.witness is not None


def test_jacobi_check_passes_on_sl2():
    assert check_jacobi(3, normalize_brackets(3, sl2_brackets())) is None


def test_jacobi_check_reports_witness_on_corrupted_table():
    bad = dict(sl2_brackets())
    bad[(0, 2)] = (1, 0, 0)
    witness = check_jacobi(3, normalize_brackets(3, bad))
    assert witness is not None
    i, j, k = witness
    assert 0 <= i < j < k < 3


def test_constructor_rejects_corrupted_jacobi():
    bad = dict(sl2_brackets())
    bad[(0, 2)] = (1, 0, 0)
    k = killing_form(3, normalize_brackets(3, sl2_brackets()))
    with pytest.raises(ValidationError) as info:
        QuadraticLieAlgebra("bad", ("e", "h", "f"), bad, k)
    assert info.value.condition == "jacobi"


def test_ad_invariance_check_accepts_killing(sl2):
    table = sl2.bracket_table()
    assert check_ad_invariance(3, table, sl2.form) is None


def test_ad_invariance_rejects_identity_form_on_sl2():
    """The identity matrix is symmetric and invertible but not invariant."""
    with pytest.raises(ValidationError) as info:
        QuadraticLieAlgebra("sl2-id", ("e", "h", "f"), sl2_brackets(), Matrix.identity(3))
    assert info.value.condition == "ad-invariance"
    witness = info.value.witness
    assert witness is not None
    assert len(witness) == 3
    assert all(w in ("e", "h", "f") for w in witness)


def test_ad_invariance_witness_is_a_real_failure():
    table = normalize_brackets(3, sl2_brackets())
    witness = check_ad_invariance(3, table, Matrix.identity(3))
    assert witness is not None
    i, j, k = witness
    b = Matrix.identity(3)
    x, y, z = unit_vector(3, i), unit_vector(3, j), unit_vector(3, k)
    algebra = catalog_entry("sl2-killing").algebra
    lhs = sum(b.mat_vec(algebra.bracket(x, y))[s] * z[s] for s in range(3))
    rhs = sum(y[s] * b.mat_vec(algebra.bracket(x, z))[s] for s in range(3))
    assert lhs + rhs != 0


def test_form_symmetry_is_enforced():
    asym = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(ValidationError) as info:
        QuadraticLieAlgebra("asym", ("a", "b", "c"), {}, asym)
    assert info.value.condition == "form-symmetric"


def test_trivial_split_covers_everything(sl2):
    split = orthogonal_split(sl2)
    assert split.p_dim == 3
    assert split.h_dim == 0
    assert split.adapted.form.is_diagonal()


def test_split_of_double_sl2_along_diagonal():
    entry = catalog_entry("sl2xsl2-diagonal")
    split = orthogonal_split(entry.algebra, entry.subalgebra)
    assert split.p_dim == 3
    assert split.h_dim == 3
    g = entry.algebra
    for h in split.h_vectors:
        for p in split.p_vectors:
            assert g.b(h, p) == 0
    assert all(d != 0 for d in split.p_gram)
    assert all(d != 0 for d in split.h_gram)


def test_split_keeps_complement_bracket_closed_into_itself():
    """[h, p] must land back in the complement: no h-component survives."""
    entry = catalog_entry("sl2xsl2-diagonal")
    split = orthogonal_split(entry.algebra, entry.subalgebra)
    m = split.p_dim
    adapted = split.adapted
    for j in range(split.h_dim):
        for i in range(m):
            out = adapted.bracket_basis(m + j, i)
            assert all(out[m + s] == 0 for s in range(split.h_dim))


def test_split_rejects_degenerate_restriction():
    sl2 = catalog_entry("sl2-killing").algebra
    with pytest.raises(DegenerateFormError):
        orthogonal_split(sl2, (unit_vector(3, 0),))


def test_split_rejects_non_subalgebra():
    sl2 = catalog_entry("sl2-killing").algebra
    span = (unit_vector(3, 0), unit_vector(3, 2))
    with pytest.raises(NotASubalgebraError):
        orthogonal_split(sl2, span)


def test_subalgebra_action_is_form_antisymmetric():
    entry = catalog_entry("sl2xsl2-diagonal")
    split = orthogonal_split(entry.algebra, entry.subalgebra)
    gram = Matrix([[split.p_gram[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)])
    for y in split.h_vectors:
        a = subalgebra_action(split, y)
        product = gram @ a
        assert product.transpose() == product.scaled(Fraction(-1))


def test_subalgebra_action_rejects_vectors_outside_h():
    entry = catalog_entry("sl2xsl2-diagonal")
    split = orthogonal_split(entry.algebra, entry.subalgebra)
    with pytest.raises(ContractViolation):
        subalgebra_action(split, unit_vector(6, 0))


def test_p_variant_produces_a_genuinely_different_basis():
    sl2 = catalog_entry("sl2-killing").algebra
    base = orthogonal_split(sl2)
    variant = orthogonal_split(sl2, (), p_variant=1)
    assert base.p_vectors != variant.p_vectors
    assert variant.adapted.form.is_diagonal()


# -- dense reference for validation -------------------------------------------
#
# The structure-constant walks above read a sparse store; these are the dense
# originals, one coordinate vector per bracket and every inner sum over the
# whole basis, kept here as the oracle they must agree with.


def dense_bracket(dim, table, i, j):
    if i == j:
        return (Fraction(0),) * dim
    if i < j:
        return table.get((i, j), (Fraction(0),) * dim)
    flipped = table.get((j, i))
    if flipped is None:
        return (Fraction(0),) * dim
    return tuple(-c for c in flipped)


def dense_jacobi(dim, table):
    for i in range(dim):
        for j in range(i + 1, dim):
            vij = dense_bracket(dim, table, i, j)
            for k in range(j + 1, dim):
                vjk = dense_bracket(dim, table, j, k)
                vki = dense_bracket(dim, table, k, i)
                total = [Fraction(0)] * dim
                for a in range(dim):
                    if vij[a]:
                        for t, c in enumerate(dense_bracket(dim, table, a, k)):
                            total[t] += vij[a] * c
                    if vjk[a]:
                        for t, c in enumerate(dense_bracket(dim, table, a, i)):
                            total[t] += vjk[a] * c
                    if vki[a]:
                        for t, c in enumerate(dense_bracket(dim, table, a, j)):
                            total[t] += vki[a] * c
                if any(total):
                    return (i, j, k)
    return None


def dense_ad_invariance(dim, table, form):
    for i in range(dim):
        for j in range(dim):
            vij = dense_bracket(dim, table, i, j)
            for k in range(dim):
                vik = dense_bracket(dim, table, i, k)
                s = sum((vij[a] * form.entry(a, k) for a in range(dim)), Fraction(0))
                s += sum((form.entry(j, a) * vik[a] for a in range(dim)), Fraction(0))
                if s != 0:
                    return (i, j, k)
    return None


def dense_killing(dim, table):
    ads = [
        [[dense_bracket(dim, table, i, s)[k] for s in range(dim)] for k in range(dim)]
        for i in range(dim)
    ]
    return Matrix(
        [
            [
                sum((ads[i][a][b] * ads[j][b][a] for a in range(dim) for b in range(dim)), Fraction(0))
                for j in range(dim)
            ]
            for i in range(dim)
        ],
        cols=dim,
    )


def assert_matches_dense(dim, table, form):
    assert check_jacobi(dim, table) == dense_jacobi(dim, table)
    assert check_ad_invariance(dim, table, form) == dense_ad_invariance(dim, table, form)
    assert killing_form(dim, table) == dense_killing(dim, table)


@pytest.mark.parametrize("name", catalog_names())
def test_validation_matches_dense_reference_on_catalog(name):
    g = catalog_entry(name).algebra
    assert_matches_dense(g.dim, g.bracket_table(), g.form)
    assert g.killing() == dense_killing(g.dim, g.bracket_table())


@pytest.mark.parametrize("name", ["sl2-killing", "sl2xsl2-diagonal"])
def test_validation_matches_dense_reference_on_corrupted_tables(name):
    """Every single-coefficient change, including ones that create a bracket."""
    g = catalog_entry(name).algebra
    n = g.dim
    clean = g.bracket_table()
    failures = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                table = dict(clean)
                coeffs = list(table.get((i, j), (Fraction(0),) * n))
                coeffs[k] += 1
                table[(i, j)] = tuple(coeffs)
                table = normalize_brackets(n, table)
                assert_matches_dense(n, table, g.form)
                failures += check_jacobi(n, table) is not None
    assert failures > 0


def test_ad_invariance_matches_dense_reference_on_a_non_symmetric_form():
    """The second term reads row j of the form, so the witness is (0, 0, 2), not (0, 1, 1)."""
    g = catalog_entry("sl2-killing").algebra
    rows = [list(g.form.row(r)) for r in range(3)]
    rows[0][1] += 1
    form = Matrix(rows)
    table = g.bracket_table()
    assert check_ad_invariance(3, table, form) == dense_ad_invariance(3, table, form) == (0, 0, 2)


def test_sparse_store_agrees_with_the_dense_table():
    g = catalog_entry("sl2xsl2-diagonal").algebra
    table = g.bracket_table()
    for i in range(g.dim):
        for j in range(g.dim):
            dense = dense_bracket(g.dim, table, i, j)
            assert g.bracket_basis(i, j) == dense
            assert g.bracket_sparse(i, j) == tuple((k, c) for k, c in enumerate(dense) if c)
            assert g.bracket(unit_vector(g.dim, i), unit_vector(g.dim, j)) == dense
    assert not g.is_abelian()
    assert catalog_entry("abelian3").algebra.is_abelian()


def test_bracket_preimage_lists_every_pair_reaching_a_basis_vector():
    """The integer preimage index over its denominator is the dense bracket.

    The adapted T*-Heisenberg algebra has structure constants over 2, 4 and
    8, so the denominator is not 1 there.
    """
    dens = []
    for g in (catalog_entry("sl2xsl2-diagonal").algebra, orthogonal_split(tstar_heisenberg()).adapted):
        table = g.bracket_table()
        den, _, preimage = g._structure_over_integers()
        dens.append(den)
        for r in range(g.dim):
            expected = tuple(
                (a, b, c)
                for a in range(g.dim)
                for b in range(g.dim)
                if (c := dense_bracket(g.dim, table, a, b)[r])
            )
            assert tuple((a, b, Fraction(c, den)) for a, b, c in preimage[r]) == expected
    assert dens[1] > 1


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.bracket((1, 0, 0, 5), (0, 1, 0)),
        lambda g: g.bracket((1, 0, 0), (0, 1)),
        lambda g: g.b((1, 0, 0, 5), (0, 0, 1)),
        lambda g: g.b((1, 0, 0), (0, 0, 1, 5)),
    ],
    ids=["bracket-long", "bracket-short", "b-long", "b-long-second"],
)
def test_bracket_and_form_reject_a_wrong_coordinate_length(sl2, call):
    with pytest.raises(ContractViolation, match="coordinate length does not match the algebra"):
        call(sl2)
