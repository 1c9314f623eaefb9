"""Lie algebra layer: structure validation, Killing form, orthogonal splits."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    SL3_TRIPLE,
    best_of_three,
    casimir_element,
    changed_algebra,
    changed_basis,
    count_fraction_arithmetic,
    form_value,
    hostile_form,
    invert,
    random_basis,
    reference_diagonalize_form,
    subalgebra_action,
    tstar_heisenberg,
    unit_vector,
)
from cubicdirac import lie
from cubicdirac.algfile import emit_algebra_text, parse_algebra_text
from cubicdirac.catalog import catalog_entry, catalog_names, heisenberg_brackets, sl2_brackets
from cubicdirac.dirac import DiracContext
from cubicdirac.errors import (
    ContractViolation,
    DegenerateFormError,
    NotASubalgebraError,
    ValidationError,
)
from cubicdirac.lie import (
    QuadraticLieAlgebra,
    _table_structure,
    check_ad_invariance,
    check_jacobi,
    killing_form,
    normalize_brackets,
    orthogonal_split,
)
from cubicdirac.linalg import Matrix, diagonalize_form, nullspace, vector
from cubicdirac.sparse import _integer_terms


@pytest.fixture(scope="module")
def sl2():
    return catalog_entry("sl2-killing").algebra


def structure(dim, table):
    """The integer structure the constructor builds, from a normalized table."""
    return _table_structure(dim, table)


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
    assert check_jacobi(structure(3, normalize_brackets(3, sl2_brackets()))) is None


def test_jacobi_check_reports_witness_on_corrupted_table():
    bad = dict(sl2_brackets())
    bad[(0, 2)] = (1, 0, 0)
    witness = check_jacobi(structure(3, normalize_brackets(3, bad)))
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
    assert check_ad_invariance(structure(3, table), sl2.form) is None


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
    witness = check_ad_invariance(structure(3, table), Matrix.identity(3))
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
            assert form_value(g, h, p) == 0
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


@pytest.mark.parametrize(
    "pair, target, message",
    [((3, 4), 0, r"\[h, h\] leaves h"), ((3, 0), 3, r"\[h, h_perp\] leaves h_perp")],
    ids=["h-h", "h-h_perp"],
)
def test_split_refuses_an_adapted_bracket_that_leaves_its_block(monkeypatch, pair, target, message):
    """[h, h] in h and [h, h_perp] in h_perp are checked where the blocks are
    made: an adapted bracket of sl2 + sl2 that gains a term outside its block
    after it is certified, [h1, h2] on p1 or [h1, p1] on h1, is refused."""
    entry = catalog_entry("sl2xsl2-diagonal")
    certified = QuadraticLieAlgebra._from_structure.__func__

    def perturbed(cls, *args):
        adapted = certified(cls, *args)
        den, ad, preimage = adapted._integer_structure
        ad = [dict(row) for row in ad]
        i, j = pair
        ad[i][j] = ad[i].get(j, ()) + ((target, den),)
        ad[j][i] = ad[j].get(i, ()) + ((target, -den),)
        adapted._integer_structure = den, tuple(ad), preimage
        return adapted

    monkeypatch.setattr(QuadraticLieAlgebra, "_from_structure", classmethod(perturbed))
    with pytest.raises(ContractViolation, match=message):
        orthogonal_split(entry.algebra, entry.subalgebra)


CERTIFIED_CASES = {
    "sl2-killing": lambda: (catalog_entry("sl2-killing").algebra, ()),
    "sl3-triple": lambda: (catalog_entry("sl3-killing").algebra, SL3_TRIPLE),
    "sl3-changed-basis": lambda: (changed_algebra("sl3-killing", 5), ()),
}


@pytest.mark.parametrize("lower", ["negated", "kept", "dropped"])
@pytest.mark.parametrize("case", CERTIFIED_CASES)
def test_split_refuses_a_changed_adapted_constant(monkeypatch, case, lower):
    """The adapted structure is certified before `_adapted_structure`
    returns: with the first constant of [X_a, X_s], a < s, doubled in the
    structure it builds and [X_s, X_a] negated with it or kept as it was,
    or with [X_a, X_s] kept and [X_s, X_a] dropped, the split is refused
    with the pair named."""
    g, subalgebra = CERTIFIED_CASES[case]()
    built = lie._bracket_structure
    changed = []

    def with_one_constant_doubled(*args):
        den, ad, preimage = built(*args)
        a, s = next((a, s) for a, row in enumerate(ad) for s in row if a < s)
        ad = [dict(row) for row in ad]
        if lower == "dropped":
            del ad[s][a]
        else:
            (r, c), *rest = ad[a][s]
            ad[a][s] = ((r, 2 * c), *rest)
        if lower == "negated":
            ad[s][a] = tuple((t, -x) for t, x in ad[a][s])
        changed.append((a, s))
        return den, tuple(ad), preimage

    monkeypatch.setattr(lie, "_bracket_structure", with_one_constant_doubled)
    with pytest.raises(ContractViolation, match="internal: the adapted constants of") as info:
        orthogonal_split(g, subalgebra)
    (a, s), = changed
    m = g.dim - len(subalgebra)
    name = [f"p{i + 1}" for i in range(m)] + [f"h{j + 1}" for j in range(len(subalgebra))]
    assert f"[{name[a]}, {name[s]}]" in str(info.value)


def test_split_refuses_a_valid_lie_table_of_another_basis(monkeypatch):
    """sl(3)'s adapted constants in the variant basis form a quadratic Lie
    algebra with the Gram entries of the root basis.  Paired with the root
    basis's columns they pass Jacobi, non-degeneracy and ad-invariance, the
    checks the adapted algebra used to be validated by, and the certificate
    refuses them: it checks that the constants give the brackets of the
    columns, which those checks do not."""
    g = catalog_entry("sl3-killing").algebra
    root, variant = orthogonal_split(g), orthogonal_split(g, p_variant=1)
    other = variant.adapted._integer_structure
    assert variant.adapted.form == root.adapted.form
    assert check_jacobi(other) is None
    assert diagonalize_form(root.adapted.form)[1] == root.p_gram
    assert check_ad_invariance(other, root.adapted.form) is None
    first = next(
        (i, j)
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
        if root.adapted.bracket_sparse(i, j) != variant.adapted.bracket_sparse(i, j)
    )
    monkeypatch.setattr(lie, "_bracket_structure", lambda *args: other)
    pair = rf"\[{root.adapted.labels[first[0]]}, {root.adapted.labels[first[1]]}\]"
    with pytest.raises(ContractViolation, match=f"internal: the adapted constants of {pair}"):
        orthogonal_split(g)


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
    for j in range(split.h_dim):
        a = subalgebra_action(split, j)
        product = gram @ a
        assert product.transpose() == product.scaled(Fraction(-1))


def test_subalgebra_action_rejects_vectors_outside_h():
    """Y_j is named by its index in the orthogonal basis of h; one out of range is rejected."""
    entry = catalog_entry("sl2xsl2-diagonal")
    split = orthogonal_split(entry.algebra, entry.subalgebra)
    for j in (-1, split.h_dim):
        with pytest.raises(ContractViolation, match="out of range"):
            subalgebra_action(split, j)
    with pytest.raises(ContractViolation, match="out of range"):
        DiracContext(entry.algebra, entry.subalgebra).diagonal_embedding(split.h_dim)


def test_p_variant_produces_a_genuinely_different_basis():
    sl2 = catalog_entry("sl2-killing").algebra
    base = orthogonal_split(sl2)
    variant = orthogonal_split(sl2, (), p_variant=1)
    assert base.p_vectors != variant.p_vectors
    assert variant.adapted.form.is_diagonal()


# -- reference for the split ---------------------------------------------------
#
# The split as it was first written: every Gram entry one call of g.b, each
# orthogonal vector a sum over the diagonalizing columns, the adapted basis
# inverted by elimination, and every adapted bracket a dense g.bracket of
# two columns mapped back by the inverse.  orthogonal_split reads its Grams
# as congruences S^T B S and reads the adapted structure constants off the
# bracket support on integers, with no inverse; the two must agree field by
# field.


def reference_orthogonal_split(g, subalgebra=(), p_variant=0):
    n = g.dim
    h_raw = [vector(v) for v in subalgebra]
    k = len(h_raw)

    def gram(vectors):
        return Matrix([[form_value(g, x, y) for y in vectors] for x in vectors], cols=len(vectors))

    def combination(coeffs, vectors):
        return tuple(sum((c * v[t] for c, v in zip(coeffs, vectors)), Fraction(0)) for t in range(n))

    p_h, h_gram = diagonalize_form(gram(h_raw))
    h_vectors = [combination(col, h_raw) for col in p_h.columns()]
    complement = nullspace(Matrix([[form_value(g, x, unit_vector(n, s)) for s in range(n)] for x in h_raw], cols=n))
    if p_variant and len(complement) >= 2:
        complement = list(reversed(complement))
        complement[0] = tuple(x + p_variant * y for x, y in zip(complement[0], complement[1]))
    p_p, p_gram = diagonalize_form(gram(complement))
    p_vectors = [combination(col, complement) for col in p_p.columns()]

    from_adapted = Matrix.from_columns(p_vectors + h_vectors, rows=n)
    to_adapted = invert(from_adapted)
    if not h_vectors and from_adapted == Matrix.identity(n):
        adapted = g
    else:
        cols = from_adapted.columns()
        table = {
            (i, j): to_adapted.mat_vec(g.bracket(cols[i], cols[j])) for i in range(n) for j in range(i + 1, n)
        }
        grams = p_gram + h_gram
        form = Matrix([[grams[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)
        labels = tuple(f"p{i + 1}" for i in range(len(p_vectors))) + tuple(f"h{j + 1}" for j in range(k))
        adapted = QuadraticLieAlgebra(f"{g.name}#adapted", labels, table, form)
    return {
        "p_vectors": tuple(p_vectors),
        "h_vectors": tuple(h_vectors),
        "p_gram": p_gram,
        "h_gram": h_gram,
        "from_adapted": from_adapted,
        "adapted": adapted,
    }


def assert_split_is_the_reference(g, subalgebra=(), p_variant=0):
    split = orthogonal_split(g, subalgebra, p_variant)
    want = reference_orthogonal_split(g, subalgebra, p_variant)
    for name, value in want.items():
        if name != "adapted":
            assert getattr(split, name) == value, name
    got, ref = split.adapted, want["adapted"]
    assert (got is g) == (ref is g)
    assert (got.name, got.labels, got.form) == (ref.name, ref.labels, ref.form)
    assert got._integer_structure == ref._integer_structure
    assert got.bracket_table() == ref.bracket_table()


@pytest.mark.parametrize(
    "name, with_subalgebra",
    [(name, False) for name in catalog_names()]
    + [(name, True) for name in catalog_names() if catalog_entry(name).subalgebra],
)
def test_split_matches_the_reference_on_the_catalog(name, with_subalgebra):
    entry = catalog_entry(name)
    for p_variant in range(3):
        assert_split_is_the_reference(entry.algebra, entry.subalgebra if with_subalgebra else (), p_variant)


@pytest.mark.parametrize(
    "name, seed, subalgebra",
    [
        ("abelian3", 1, ((0, 0, 1),)),
        ("sl2-killing", 2, ()),
        ("sl2xsl2-diagonal", 3, catalog_entry("sl2xsl2-diagonal").subalgebra),
        ("sl3-killing", 4, SL3_TRIPLE),
    ],
)
def test_split_matches_the_reference_in_a_changed_basis(name, seed, subalgebra):
    """Non-diagonal forms with denominators; the subalgebra moved into the new basis."""
    g = changed_algebra(name, seed)
    inverse = invert(random_basis(g.dim, seed))
    moved = tuple(inverse.mat_vec(v) for v in subalgebra)
    for p_variant in range(3):
        assert_split_is_the_reference(g, (), p_variant)
        assert_split_is_the_reference(g, moved, p_variant)


def test_split_matches_the_reference_on_hostile_form_entries():
    """The 16-dimensional abelian algebra with form entries 1/q, q of 4,000 digits."""
    form = hostile_form()
    g = QuadraticLieAlgebra("hostile", tuple(f"x{i}" for i in range(form.rows)), {}, form)
    for p_variant in range(3):
        assert_split_is_the_reference(g, (), p_variant)
        assert_split_is_the_reference(g, (unit_vector(16, 3),), p_variant)


def test_split_of_an_orthogonal_basis_is_the_algebra_itself():
    g = catalog_entry("abelian3").algebra
    assert orthogonal_split(g).adapted is g
    assert DiracContext(g).adapted is g


def test_split_along_a_subalgebra_relabels_an_orthogonal_basis():
    """from_adapted is the identity here too, but the adapted basis is p1, p2, h1."""
    ctx = DiracContext(catalog_entry("abelian3").algebra, [(0, 0, 1)])
    assert ctx.split.from_adapted == Matrix.identity(3)
    assert ctx.adapted.labels == ("p1", "p2", "h1")
    assert [item.item_id for item in ctx.h_invariance_check().items] == ["delta-commutes-with-dirac:h1"]


def test_split_and_casimir_take_grams_as_congruences():
    """Every Gram is a product S^T B S: the algebra has no per-entry form method,
    and the Casimir reads its Gram off the adapted algebra's diagonal form."""
    g = catalog_entry("sl3-killing").algebra
    assert not hasattr(QuadraticLieAlgebra, "b")
    for subalgebra in ((), SL3_TRIPLE):
        split = orthogonal_split(g, subalgebra)
        omega = casimir_element(split.adapted)
        grams = split.p_gram + split.h_gram
        assert omega.terms == {(i, i): 1 / d for i, d in enumerate(grams)}


@pytest.mark.parametrize(
    "subalgebra, perturbed_call",
    [((), 0), (SL3_TRIPLE, 0), (SL3_TRIPLE, 1)],
    ids=["h=0", "triple-h-basis", "triple-complement-basis"],
)
def test_split_refuses_a_basis_that_does_not_diagonalize_the_form(monkeypatch, subalgebra, perturbed_call):
    """P^T B P = diag(d) is checked on integers: a diagonalizing P with one
    entry moved, for h = 0 or for either Gram of the sl(3) triple, is refused.
    With h = 0 the split takes the diagonalization that validated g, so
    there g is built under the patch."""
    g = catalog_entry("sl3-killing").algebra
    calls = []

    def perturbed(b, _original=lie.diagonalize_form):
        p, d = _original(b)
        calls.append(b)
        if len(calls) - 1 == perturbed_call:
            rows = [list(row) for row in (p.row(i) for i in range(p.rows))]
            rows[0][0] += 1
            p = Matrix(rows)
        return p, d

    monkeypatch.setattr(lie, "diagonalize_form", perturbed)
    if not subalgebra:
        g = QuadraticLieAlgebra(g.name, g.labels, g.bracket_table(), g.form)
    with pytest.raises(ContractViolation, match="internal: adapted form mismatch"):
        orthogonal_split(g, subalgebra)
    assert len(calls) > perturbed_call


def test_split_with_no_subalgebra_takes_no_matrix_product(monkeypatch):
    """With h = 0 the complement basis is the unit vectors: the form is
    diagonalized as it stands, and the congruence check and the adapted
    brackets run on integers.  The sl(3) triple, by contrast, takes its
    Grams as matrix products."""
    algebras = [catalog_entry(name).algebra for name in catalog_names()] + [changed_algebra("sl3-killing", 5)]
    calls = []

    def counted(self, other, _original=Matrix.__matmul__):
        calls.append((self.rows, other.cols))
        return _original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for g in algebras:
        orthogonal_split(g)
    assert calls == []
    orthogonal_split(catalog_entry("sl3-killing").algebra, SL3_TRIPLE)
    assert calls


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


def dense_ad_defect(dim, table, form, i, j, k):
    """B([e_i, e_j], e_k) + B(e_j, [e_i, e_k]), reading row j of the form."""
    vij = dense_bracket(dim, table, i, j)
    vik = dense_bracket(dim, table, i, k)
    s = sum((vij[a] * form.entry(a, k) for a in range(dim)), Fraction(0))
    return s + sum((form.entry(j, a) * vik[a] for a in range(dim)), Fraction(0))


def dense_ad_invariance(dim, table, form):
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if dense_ad_defect(dim, table, form, i, j, k) != 0:
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
    st = structure(dim, table)
    assert check_jacobi(st) == dense_jacobi(dim, table)
    assert check_ad_invariance(st, form) == dense_ad_invariance(dim, table, form)
    assert killing_form(dim, table) == dense_killing(dim, table)


# structure constants over 2, 4 and 8 (T*-Heisenberg) and over a larger P
RATIONAL_ALGEBRAS = {
    "sl3-killing-basis-5": lambda: changed_algebra("sl3-killing", 5),
    "tstar-heisenberg-adapted": lambda: orthogonal_split(tstar_heisenberg()).adapted,
}


@pytest.mark.parametrize("name", [*catalog_names(), *RATIONAL_ALGEBRAS])
def test_validation_matches_dense_reference_on_catalog(name):
    """The catalog, and two algebras whose common denominator P is not 1."""
    g = RATIONAL_ALGEBRAS[name]() if name in RATIONAL_ALGEBRAS else catalog_entry(name).algebra
    assert name not in RATIONAL_ALGEBRAS or g._integer_structure[0] > 1
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
                failures += check_jacobi(structure(n, table)) is not None
    assert failures > 0


def test_ad_invariance_matches_dense_reference_on_a_non_symmetric_form():
    """The second term reads row j of the form, so the witness is (0, 0, 2), not (0, 1, 1)."""
    g = catalog_entry("sl2-killing").algebra
    rows = [list(g.form.row(r)) for r in range(3)]
    rows[0][1] += 1
    form = Matrix(rows)
    table = g.bracket_table()
    assert check_ad_invariance(structure(3, table), form) == dense_ad_invariance(3, table, form) == (0, 0, 2)


def test_ad_invariance_witness_is_the_least_failing_pair_of_its_row():
    """Killing form of sl(2) plus B(e, e) = 1: for i = e exactly (e, h) and (h, e) fail.

    The kernel meets (h, e) first, from [e, h] = -2e and row e of the form,
    and (e, h) only afterwards, from column e; the witness is still the
    least pair, as in the triple loop.
    """
    g = catalog_entry("sl2-killing").algebra
    rows = [list(g.form.row(r)) for r in range(3)]
    rows[0][0] += 1
    form = Matrix(rows)
    table = g.bracket_table()
    failing = [
        (j, k) for j in range(3) for k in range(3) if dense_ad_defect(3, table, form, 0, j, k) != 0
    ]
    assert failing == [(0, 1), (1, 0)]
    assert check_ad_invariance(structure(3, table), form) == dense_ad_invariance(3, table, form) == (0, 0, 1)


def test_validation_matches_dense_reference_with_denominators_and_non_diagonal_forms():
    """Adapted T*-Heisenberg (constants over 2, 4 and 8) and sl(2), sl(3) in a random basis.

    Each clean input passes; single coefficients are shifted by 1/3 (all of
    them below dimension 8, a seeded sample of 40 on sl(3)) and one form
    entry of sl(3), with its mirror, is shifted by 1/3; every verdict and
    witness equals the dense reference's.
    """
    rng = random.Random(10)
    adapted = orthogonal_split(tstar_heisenberg()).adapted
    cases = [(adapted.dim, adapted.bracket_table(), adapted.form)]
    for name, seed in (("sl2-killing", 1), ("sl3-killing", 2)):
        g = catalog_entry(name).algebra
        cases.append((g.dim, *changed_basis(g, seed)))
    assert all(any(c.denominator > 1 for v in table.values() for c in v) for _, table, _ in cases)
    assert not cases[2][2].is_diagonal() and any(c.denominator > 1 for c in cases[2][2].row(0))
    witnesses = []
    for n, clean, form in cases:
        assert check_jacobi(structure(n, clean)) is None
        assert check_ad_invariance(structure(n, clean), form) is None
        positions = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(n)]
        if n == 8:
            positions = rng.sample(positions, 40)
        for i, j, k in positions:
            table = dict(clean)
            coeffs = list(table.get((i, j), (Fraction(0),) * n))
            coeffs[k] += Fraction(1, 3)
            table[(i, j)] = tuple(coeffs)
            table = normalize_brackets(n, table)
            witnesses.append(check_jacobi(structure(n, table)))
            assert witnesses[-1] == dense_jacobi(n, table)
            witnesses.append(check_ad_invariance(structure(n, table), form))
            assert witnesses[-1] == dense_ad_invariance(n, table, form)
    n, clean, form = cases[2]
    rows = [list(form.row(r)) for r in range(n)]
    rows[2][5] += Fraction(1, 3)
    rows[5][2] += Fraction(1, 3)
    shifted = Matrix(rows)
    witnesses.append(check_ad_invariance(structure(n, clean), shifted))
    assert witnesses[-1] == dense_ad_invariance(n, clean, shifted) is not None
    # both verdicts occur, and the failures spread over many witnesses
    assert None in witnesses and len(set(witnesses)) > 50


def test_validation_does_no_fraction_arithmetic(monkeypatch):
    """Both checks add integer numerators only, over the nonzero brackets and form entries.

    On the 64-dimensional abelian algebra with the identity form and on
    every catalog entry, no Fraction is added, subtracted or multiplied.
    """
    cases = [(structure(64, {}), Matrix.identity(64))]
    for name in catalog_names():
        g = catalog_entry(name).algebra
        cases.append((g._integer_structure, g.form))
    calls = count_fraction_arithmetic(monkeypatch)
    for st, form in cases:
        assert check_jacobi(st) is None
        assert check_ad_invariance(st, form) is None
    assert calls == []


def test_table_pass_and_form_elimination_do_no_fraction_arithmetic(monkeypatch):
    """The constructor's table pass, `normalize_brackets` and
    `_table_structure`, and the congruence diagonalization of the form
    compute on integer numerators: on every catalog entry, in its own basis
    and a changed one, no Fraction is added, subtracted, multiplied or
    divided.  The table pass gives the structure of the Fraction reference
    below, and the elimination the (P, d) of the Fraction reference."""
    algebras = [catalog_entry(name).algebra for name in catalog_names()]
    algebras += [changed_algebra(name, 5) for name in catalog_names()]
    cases = [
        (
            g.dim,
            g.bracket_table(),
            g.form,
            reference_table_structure(g.dim, g.bracket_table()),
            reference_diagonalize_form(g.form),
        )
        for g in algebras
    ]
    calls = count_fraction_arithmetic(monkeypatch)
    for n, table, form, expected_structure, expected_diagonal in cases:
        assert _table_structure(n, normalize_brackets(n, table)) == expected_structure
        assert diagonalize_form(form) == expected_diagonal
    assert calls == []


def reference_table_structure(dim, table):
    """The integer structure of a table as it was built in Fraction arithmetic:
    both orders of every constant, -c negated as a Fraction, over their
    least common denominator."""
    constants = {}
    for (i, j), coeffs in table.items():
        for r, c in enumerate(coeffs):
            if c:
                constants[i, j, r] = c
                constants[j, i, r] = -c
    den, entries = _integer_terms(constants)
    return lie._bracket_structure(dim, den, sorted(entries))


# -- check_ad_invariance before it followed the bracket support -------------
#
# The previous body put every nonzero form entry over one common
# denominator, also the entries that no bracket reads; it is kept as the
# reference the current body must agree with.


def reference_check_ad_invariance(dim, table, form):
    _, ad, _ = structure(dim, table)
    _, entries = _integer_terms(
        {(a, k): b for a in range(dim) for k, b in enumerate(form.row(a)) if b}
    )
    rows = [[] for _ in range(dim)]
    cols = [[] for _ in range(dim)]
    for (a, k), b in entries:
        rows[a].append((k, b))
        cols[k].append((a, b))
    for i, ad_i in enumerate(ad):
        s = {}
        for j, terms in ad_i.items():
            for a, c in terms:
                for k, b in rows[a]:
                    s[j, k] = s.get((j, k), 0) + c * b
        for k, terms in ad_i.items():
            for a, c in terms:
                for j, b in cols[a]:
                    s[j, k] = s.get((j, k), 0) + b * c
        failing = [jk for jk, v in s.items() if v]
        if failing:
            return (i, *min(failing))
    return None


def test_ad_invariance_stays_cheap_on_hostile_form_entries():
    """16 dimensions, no brackets, form entries 1/q with 4,000-digit q.

    Nothing is read, so nothing is brought over the 64,000-digit lcm of
    the q that the reference builds.
    """
    form = hostile_form()
    empty = structure(16, {})
    assert check_ad_invariance(empty, form) is None
    assert reference_check_ad_invariance(16, {}, form) is None
    fast = best_of_three(lambda: check_ad_invariance(empty, form))
    assert fast <= best_of_three(lambda: reference_check_ad_invariance(16, {}, form)) / 5


def test_ad_invariance_matches_the_reference_on_perturbed_form_entries():
    """Every catalog entry and T*-Heisenberg, clean and with each form entry shifted by 1/3.

    T*-Heisenberg's z* is central and no bracket reaches it, so the shifts
    of B(z*, z*) are entries the check no longer reads.
    """
    algebras = [catalog_entry(name).algebra for name in catalog_names()] + [tstar_heisenberg()]
    witnesses = []
    for g in algebras:
        n, table = g.dim, g.bracket_table()
        st = g._integer_structure
        assert check_ad_invariance(st, g.form) is reference_check_ad_invariance(n, table, g.form) is None
        for a in range(n):
            for k in range(n):
                rows = [list(g.form.row(r)) for r in range(n)]
                rows[a][k] += Fraction(1, 3)
                form = Matrix(rows)
                witnesses.append(check_ad_invariance(st, form))
                assert witnesses[-1] == reference_check_ad_invariance(n, table, form)
    assert None in witnesses and len(set(witnesses)) > 20


def test_sparse_store_agrees_with_the_dense_table():
    g = catalog_entry("sl2xsl2-diagonal").algebra
    table = g.bracket_table()
    for i in range(g.dim):
        for j in range(g.dim):
            dense = dense_bracket(g.dim, table, i, j)
            assert g.bracket_basis(i, j) == dense
            assert g.bracket_sparse(i, j) == tuple((k, c) for k, c in enumerate(dense) if c)
            assert g.bracket(unit_vector(g.dim, i), unit_vector(g.dim, j)) == dense


def test_bracket_preimage_lists_every_pair_reaching_a_basis_vector():
    """The integer preimage index over its denominator is the dense bracket.

    The adapted T*-Heisenberg algebra has structure constants over 2, 4 and
    8, so the denominator is not 1 there.
    """
    dens = []
    for g in (catalog_entry("sl2xsl2-diagonal").algebra, orthogonal_split(tstar_heisenberg()).adapted):
        table = g.bracket_table()
        den, _, preimage = g._integer_structure
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


def test_each_bracket_table_is_built_once_per_algebra(monkeypatch):
    """Parsing sl(3) builds its one table, the integer structure, once from
    the parsed table; a split along an sl(2) triple builds the adapted
    algebra's once more, from integers, with no table.  Validation, the
    Killing form and the change of basis read what was built."""
    text = emit_algebra_text(catalog_entry("sl3-killing").algebra)
    counts = Counter()
    for name in ("_table_structure", "_bracket_structure"):

        def counted(*args, _original=getattr(lie, name), _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lie, name, counted)
    g, _ = parse_algebra_text(text)
    g.killing()
    assert counts == {"_table_structure": 1, "_bracket_structure": 1}
    split = orthogonal_split(g, SL3_TRIPLE)
    split.adapted.killing()
    assert counts == {"_table_structure": 1, "_bracket_structure": 2}


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.bracket((1, 0, 0, 5), (0, 1, 0)),
        lambda g: g.bracket((1, 0, 0), (0, 1)),
    ],
    ids=["bracket-long", "bracket-short"],
)
def test_bracket_and_form_reject_a_wrong_coordinate_length(sl2, call):
    with pytest.raises(ContractViolation, match="coordinate length does not match the algebra"):
        call(sl2)
