"""The cubic Dirac operator and the identity checks built around it.

A DiracContext fixes a quadratic Lie algebra g, an optional quadratic
subalgebra h, and one orthogonal adapted basis (h_perp vectors first, then h
vectors, all with diagonal Gram).  In that basis it constructs

  - the fundamental 3-vector v in C(h_perp), defined against the extended
    pairing by  <v, x^y^z> = -1/2 B(x, [y,z]),
  - the Dirac element  D = sum_i (1/d_i) X_i (x) e_i  +  1 (x) v
    in U(g) (x) C(h_perp), where d_i are the Gram entries (the dual basis
    X^i = X_i / d_i replaces the orthonormal basis that does not exist
    over Q),
  - the Casimir of g and the diagonal embedding
    Delta(y) = y (x) 1 + 1 (x) alpha(y) for y in h, where alpha(y), the
    spin lift of nu(y) = ad y on h_perp, is -1/2 delta(y), delta the
    bracket coproduct.

Each check method returns a CheckOutcome listing every asserted identity;
an identity passes exactly when its item carries no witness, and a failing
item always carries one that says what it saw.  An item that compares two
term tables names their least differing key, `<key>: <lhs> vs <rhs>`.
Checks never raise on a mathematical failure, only on misuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm
from typing import Sequence

from .clifford import (
    CliffordSpace,
    Multivector,
    _bits,
    _multivector_from_numerators,
    _overlap_sums,
    is_scalar,
    scalar_part,
    twisted_commutator,
)
from .errors import ContractViolation
from .forms import _ORDERINGS, _ad_rows, _canonical_part, _d_scatter, _theta_scatter, bracket_coproduct
from .lie import QuadraticLieAlgebra, orthogonal_split, unit
from .linalg import ZERO, vector
from .sparse import _fractions_over, _integer_terms
from .tensor import TensorElement, TripleTensorElement


@dataclass(frozen=True)
class CheckItem:
    """One asserted identity: an id and, when it fails, the witness of the failure.

    The item passes exactly when it has no witness, so no item can fail
    without saying what it saw.
    """

    item_id: str
    witness: str | None = None

    def __post_init__(self):
        if self.witness is not None and not (isinstance(self.witness, str) and self.witness):
            raise ContractViolation(
                f"item {self.item_id}: a witness is None or a non-empty string, not {self.witness!r}"
            )

    @property
    def ok(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    items: tuple[CheckItem, ...]
    values: dict[str, Fraction] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def failing(self) -> tuple[CheckItem, ...]:
        return tuple(item for item in self.items if not item.ok)


class DiracContext:
    """g, an optional h, one adapted basis, and the cached operator data.

    The data live on the adapted basis from index 0: m p indices, then k h
    indices.  A context of g and h splits once; its `absolute` context is
    g with h = 0 on the same adapted algebra, so their elements mix, and
    its context of h runs on h's own algebra, the restriction of the split.
    """

    def __init__(self, algebra: QuadraticLieAlgebra, subalgebra: Sequence[Sequence] = (), p_variant: int = 0):
        self.algebra = algebra
        self.subalgebra = tuple(map(vector, subalgebra))
        self.p_variant = p_variant
        self.split = orthogonal_split(algebra, self.subalgebra, p_variant)
        self._build(self.split.adapted, self.split.p_dim, self.split.h_dim)

    @classmethod
    def _block(cls, algebra: QuadraticLieAlgebra, adapted: QuadraticLieAlgebra, p_variant: int = 0):
        """The context of `algebra` with h = 0 on `adapted`, the same algebra
        in an orthogonal basis, with no split."""
        ctx = cls.__new__(cls)
        ctx.algebra, ctx.subalgebra, ctx.p_variant = algebra, (), p_variant
        ctx._build(adapted, adapted.dim, 0)
        return ctx

    def _build(self, adapted: QuadraticLieAlgebra, m: int, k: int):
        self.adapted = adapted
        self.m, self.k = m, k
        self._gram = adapted.form.diagonal()
        self.space = CliffordSpace(self._gram[:m])

        numerators, den = self._fundamental_numerators()
        self.v = _multivector_from_numerators(self.space, numerators, den, self._gram[:m])
        self.dirac = self._build_dirac()

        self._embeddings: dict[int, TensorElement] = {}
        self._delta_casimir: TensorElement | None = None
        self._residual: TensorElement | None = None
        self._absolute: DiracContext | None = None

    # -- construction ------------------------------------------------------

    def _fundamental_numerators(self) -> tuple[dict[tuple[int, int, int], int], int]:
        """t(X_i, X_j, X_k) = -1/2 B(X_i, [X_j, X_k]) = -1/2 d_i c_jk^i on the p
        indices, as ({(i, j, k): n}, den) with t = d_i n / den.

        Scattered from the adapted algebra's integer structure: with
        c_jk^i = N / P there, n = -N over den = 2P, for the nonzero brackets
        [X_j, X_k] of the p indices, keeping the terms on them.
        """
        m = self.m
        den, ad, _ = self.adapted._integer_structure
        brackets = ((j, k, terms) for j in range(m) for k, terms in ad[j].items() if k < m)
        triples = ((i, j, k, n) for j, k, terms in brackets for i, n in terms if i < m)
        return {(i, j, k): -n for i, j, k, n in triples}, 2 * den

    def _build_dirac(self) -> TensorElement:
        """D = sum_i (1/d_i) X_i (x) e_i + 1 (x) v, written as one term table."""
        terms = {((), mask): c for mask, c in self.v.terms.items()}
        for a in range(self.m):
            terms[(a,), 1 << a] = 1 / self._gram[a]
        return TensorElement._from_terms((self.adapted, self.space), terms)

    def diagonal_embedding(self, j: int) -> TensorElement:
        """Delta(Y_j) = Y_j (x) 1 + 1 (x) alpha(Y_j) for the j-th h vector, as one term table.

        alpha(Y) is the spin lift of nu(Y) = ad Y on h_perp, nu(Y)_il the
        X_i coordinate of [Y, X_l]: the element
        sum_{i<l} nu(Y)_il / (2 d_l) e_i e_l of C(h_perp).  It is
        -1/2 delta(Y): ad-invariance gives B(Y, [X_i, X_l]) = -d_i nu(Y)_il,
        and delta(Y) has B(Y, [X_i, X_l]) / (d_i d_l) on e_i e_l.  This needs
        [h, h_perp] in h_perp, which `orthogonal_split` checks, and an
        ad-invariant form: the input is validated for it, and the adapted
        algebra is certified to be the input in the adapted basis, where the
        invariant form is diag(d).
        """
        if not 0 <= j < self.k:
            raise ContractViolation("subalgebra basis index out of range")
        if j not in self._embeddings:
            delta = bracket_coproduct(self.space, self.adapted, unit(self.adapted.dim, self.m + j))
            terms = {((self.m + j,), 0): Fraction(1)}
            terms.update((((), mask), -c / 2) for mask, c in delta.terms.items())
            self._embeddings[j] = TensorElement._from_terms((self.adapted, self.space), terms)
        return self._embeddings[j]

    def delta_casimir(self) -> TensorElement:
        """Delta(Omega_h) = sum_j (1/e_j) Delta(Y_j)^2 over the orthogonal h basis."""
        if self._delta_casimir is None:
            acc = TensorElement.zero(self.adapted, self.space)
            for j in range(self.k):
                dj = self.diagonal_embedding(j)
                acc = acc + (1 / self._gram[self.m + j]) * (dj * dj)
            self._delta_casimir = acc
        return self._delta_casimir

    @cached_property
    def _dirac_square(self) -> TensorElement:
        """D^2, computed once for the residual and the decomposition check."""
        return self.dirac * self.dirac

    def residual(self) -> TensorElement:
        """D^2 - Omega_g (x) 1 + Delta(Omega_h); a scalar by the main theorem."""
        if self._residual is None:
            # Omega_g (x) 1 = sum (1/d_i) X_i X_i (x) 1, X_i X_i being in PBW order
            terms = {((i, i), 0): 1 / d for i, d in enumerate(self._gram)}
            omega = TensorElement._from_terms((self.adapted, self.space), terms)
            self._residual = self._dirac_square - omega + self.delta_casimir()
        return self._residual

    def c_value(self) -> Fraction | None:
        """The scalar value of the residual, or None if it is not scalar."""
        r = self.residual()
        if not r.is_scalar_multiple_of_one():
            return None
        return r.scalar_coefficient()

    @property
    def absolute(self) -> "DiracContext":
        """The context of g with h = 0 in this context's adapted basis, for
        the cohomology and decomposition checks.

        Itself when h = 0 (not stored, which would make a reference cycle);
        otherwise the adapted algebra with m = n, built once.  Its v-free
        laws run on the input algebra, and its c-basis-invariant splits that
        in the root's next variant basis.
        """
        if self.k == 0:
            return self
        if self._absolute is None:
            self._absolute = DiracContext._block(self.algebra, self.adapted, self.p_variant)
        return self._absolute

    @cached_property
    def _v_square(self) -> Multivector:
        """v^2, computed once for the kostant check and the dv-* laws."""
        return self.v * self.v

    @cached_property
    def _dv_generators(self) -> list[Multivector]:
        """d_v(e_a) = `twisted_commutator(v, e_a)` for each generator of C(h_perp).

        Computed once for `first_order_witness` and the `dv-*` laws.
        """
        return [twisted_commutator(self.v, self.space.generator(a)) for a in range(self.m)]

    @cached_property
    def _delta_generators(self) -> list[Multivector]:
        """delta(X_a) = `bracket_coproduct` of each h_perp basis vector X_a.

        Computed once for `first_order_witness` and `_middle_term_witness`.
        """
        n = self.adapted.dim
        return [bracket_coproduct(self.space, self.adapted, unit(n, a)) for a in range(self.m)]

    @cached_property
    def first_order_witness(self) -> str | None:
        """Label of the first X_a in h_perp with delta(X_a) + d_v(e_a) != 0, or None.

        This is the first-order mechanism of the proof: the bracket coproduct
        cancels the twisted commutator with v on every generator.
        """
        for a, (delta_a, dv_a) in enumerate(zip(self._delta_generators, self._dv_generators)):
            if not (delta_a + dv_a).is_zero():
                return self.adapted.labels[a]
        return None

    @cached_property
    def _variant_context(self) -> "DiracContext":
        """The context of the same g and h split in the next variant basis,
        for `c-basis-invariant`; built once."""
        return DiracContext(self.algebra, self.subalgebra, p_variant=self.p_variant + 1)

    @cached_property
    def _h_context(self) -> "DiracContext":
        """h with no subalgebra, for the decomposition check, built once on
        h's own algebra (`OrthogonalSplit.subalgebra_as_algebra`), its input
        and adapted algebra, with no split; every check runs on it.
        D_h = sum (1/e_j) Y_j (x) f_j + 1 (x) v_h lies in U(h) (x) C(h)."""
        h = self.split.subalgebra_as_algebra()
        return DiracContext._block(h, h)

    # -- checks --------------------------------------------------------------

    def kostant_check(self) -> CheckOutcome:
        """Scalar residual, with the first-order mechanism and, for h = 0,
        the v^2 cross-checks and the middle-term rearrangement."""
        labels = self.adapted.labels
        items = [CheckItem("first-order-cancellation", self.first_order_witness)]
        r = self.residual()
        off_scalar = _non_scalar_witness(r, labels)
        items += [
            CheckItem("residual-linear-terms-vanish", _first_difference(r.u_degree_terms(1), {}, labels)),
            CheckItem("residual-scalar", off_scalar),
        ]
        c = r.scalar_coefficient()
        values: dict[str, Fraction] = {"c": c} if off_scalar is None else {}

        if self.k == 0:
            v2 = self._v_square
            v2_scalar = is_scalar(v2)
            items.append(CheckItem("v-square-scalar", None if v2_scalar else f"degrees {sorted(v2.degrees())}"))
            # The generators generate C(h_perp), so commuting with each of
            # them is commuting with every element.
            gens = map(self.space.generator, range(self.m))
            central = next((labels[i] for i, e in enumerate(gens) if v2 * e != e * v2), None)
            equal = v2_scalar and off_scalar is None and scalar_part(v2) == c
            v2_text = scalar_part(v2) if v2_scalar else "not scalar"
            c_text = c if off_scalar is None else "not scalar"
            items += [
                CheckItem("v-square-central", central),
                CheckItem("v-square-equals-c", None if equal else f"v^2 = {v2_text}, c = {c_text}"),
                CheckItem("middle-term-identity", self._middle_term_witness()),
            ]
            values["v_square"] = scalar_part(v2)

        if off_scalar is None:
            alt = self._variant_context
            r2 = alt.residual()
            witness = _non_scalar_witness(r2, alt.adapted.labels)
            if witness is not None:
                witness = f"variant basis: {witness}"
            elif r2.scalar_coefficient() != c:
                witness = f"variant basis gives {r2.scalar_coefficient()}"
            items.append(CheckItem("c-basis-invariant", witness))

        return CheckOutcome("kostant", tuple(items), values)

    def _middle_term_witness(self) -> str | None:
        """sum_{i<j} [X_i,X_j] (x) X^i X^j  =  sum_k X_k (x) delta(X^k), h = 0.

        Both sides are written as term tables, as D is."""
        gram = self._gram
        lhs = {
            ((t,), (1 << i) | (1 << j)): c / (gram[i] * gram[j])
            for i, j in combinations(range(self.m), 2)
            for t, c in self.adapted.bracket_sparse(i, j)
        }
        rhs = {
            ((a,), mask): c / gram[a]
            for a, delta_a in enumerate(self._delta_generators)
            for mask, c in delta_a.terms.items()
        }
        return _first_difference(lhs, rhs, self.adapted.labels)

    def h_invariance_check(self) -> CheckOutcome:
        """[Delta(y), D] = 0 for every orthogonal basis vector y of h."""
        if self.k == 0:
            return CheckOutcome("invariance", (CheckItem("h-invariance-vacuous"),))
        labels = self.adapted.labels
        return CheckOutcome(
            "invariance",
            tuple(
                CheckItem(
                    f"delta-commutes-with-dirac:{labels[self.m + j]}",
                    _first_difference(self.diagonal_embedding(j).commutator(self.dirac).terms, {}, labels),
                )
                for j in range(self.k)
            ),
        )

    def cohomology_check(self) -> CheckOutcome:
        """The differential-geometry identity chain, run on g with h = 0.

        The chain lives on the full algebra (forms take arguments anywhere in
        g).  The four laws that do not read v, `theta-B-vanishes`,
        `cartan-formula`, `d-squared-zero` and `d-preserves-alternating`,
        hold in every basis, and point masses of any basis span all
        multilinear maps, so they run on the input algebra as validated:
        its structure constants stay as sparse as it gave them, and a
        failing witness names its labels.  The items that read v need the
        orthogonal basis v is built in, so a context with a subalgebra runs
        them on its `absolute` context, in the h-adapted basis, and their
        witnesses name the labels p1.., h1.. of that basis.  The context of
        h runs the whole chain on h's own algebra, its input.  Every form
        item runs on the integer kernels of `forms` and builds no map object.

        The items that depend on v are `dB-equals-2v` and
        `delta-plus-dv-vanishes`.  `dv-derivation-law` and
        `dv-square-is-v2-bracket` are identities of the Clifford algebra for
        every odd v, so they check the product, kappa and the twisted
        commutator, not v; both run on the generators (see `_dv_law_items`).
        """
        ctx = self.absolute
        cartan, alternating = self._cartan_item(self.algebra)
        return CheckOutcome(
            "cohomology",
            (
                ctx._db_item(),
                self._theta_b_item(self.algebra),
                cartan,
                *self._d_items(self.algebra, alternating),
                CheckItem("delta-plus-dv-vanishes", ctx.first_order_witness),
                *_dv_law_items(ctx.space, ctx.v, ctx._v_square, ctx._dv_generators, ctx.adapted.labels),
            ),
        )

    def _db_item(self) -> CheckItem:
        """dB = 2<v, .^.^.> as two tables over index triples, h = 0.

        d B is `_d_scatter` on the form's integer entries, over their
        denominator times P.  A degree-3 blade c e_i^e_j^e_k of v pairs with
        e_p^e_q^e_r to sign(p, q, r) c d_i d_j d_k when (p, q, r) orders
        {i, j, k}, and to 0 otherwise, so 2<v, .> is read off v's degree-3
        terms.  v is read as built, so a fault in it reaches this item.
        """
        g = self.adapted
        den, entries = _form_entries(g)
        den_g, _, preimage = g._integer_structure
        db = _fractions_over(_d_scatter(entries, preimage), den * den_g)
        two_v = {
            key: sign * 2 * c * self.space._gram_product(mask)
            for mask, c in self.v.terms.items()
            if mask.bit_count() == 3
            for key, sign in _alternating_entries(tuple(_bits(mask)))
        }
        return CheckItem("dB-equals-2v", _first_difference(db, two_v, g.labels))

    def _theta_b_item(self, g: QuadraticLieAlgebra) -> CheckItem:
        """theta_X B = 0 for X over the unit vectors of g, the invariance of B.

        theta_{e_i} is scattered on the form's integer entries with the
        kernels `_ad_rows` and `_theta_scatter`.
        """
        _, ad, _ = g._integer_structure
        _, entries = _form_entries(g)
        moved = (i for i in range(g.dim) if any(_theta_scatter(entries, _ad_rows([(i, 1)], ad)).values()))
        return CheckItem("theta-B-vanishes", next((g.labels[i] for i in moved), None))

    def _cartan_item(self, g: QuadraticLieAlgebra) -> tuple[CheckItem, dict]:
        """iota_X d + d iota_X = theta_X on every point-mass form of arity <= 3,
        with the columns of d on the alternating point masses.

        Point-mass (single-entry) tables span the whole space of multilinear
        maps and every operator involved is linear in the form, so this is an
        exhaustive verification for arities 1..3, with X over the unit
        vectors of g.

        Every (arity, key, X) is compared on integer numerators over P, the
        structure constants' common denominator, with the kernels the public
        operators run.  For each key the comparisons for all X = e_i are one
        table over (arity + 1)-tuples (i, rest), the difference of the two
        sides at rest:
          - iota_{e_i} d delta_key is the part of d delta_key with first
            index i, so the table starts from d delta_key, the key's column;
          - iota_{e_i} delta_key is delta_{key[1:]} when key[0] = i and zero
            otherwise, so d of it is the column of key[1:] in the previous
            arity, kept for this call, added under the prefix key[0];
          - theta_{e_i} delta_key puts row key[pos] of ad e_i in each slot
            pos; `acting[r]` lists those rows' entries (i, s, c) for all i.
        The item fails at the least key, in order of arity, then key, whose
        table holds a nonzero entry, and names the least i among them.

        Arity 3 runs one orbit of keys under reordering at a time, so no
        more than one orbit's columns are held: the orbits come in the order
        of their sorted keys, every key of an orbit is at least its sorted
        key, and so no orbit past the least failing key can hold a lesser one.

        Every point mass is scattered, also past a failure, because the
        columns serve `_d_items` too: d of each alternating point mass is
        the signed sum of the columns of its orderings, returned under its
        increasing key, as its nonzero numerators at arity 1 and 2, and at
        arity 3 as only their canonical part (see `_d_items`), which is all
        that is read of them.

        No row is copied per key: `_d_scatter` reads the preimage rows of a
        point mass as they are, and `least_moved` adds into the column
        itself at arity 3, whose columns are summed before it runs, and
        into a copy only at arities 1 and 2, whose columns the next arity
        and the signed sums still read.  It tests the table for a nonzero
        entry before it looks for the least i.
        """
        _, ad, preimage = g._integer_structure
        n = g.dim
        acting: list[list] = [[] for _ in range(n)]
        for i in range(n):
            for r, row in _ad_rows([(i, 1)], ad).items():
                acting[r].extend((i, s, c) for s, c in row.items())

        def least_moved(key: tuple, table: dict, previous: dict) -> int | None:
            """The least i whose comparison fails on key, the table being d delta_key."""
            get = table.get
            first = key[0]
            for rest, val in previous[key[1:]].items():
                idx = (first, *rest)
                table[idx] = get(idx, 0) + val
            for pos, r in enumerate(key):
                head, tail = key[:pos], key[pos + 1 :]
                for i, s, c in acting[r]:
                    idx = (i, *head, s, *tail)
                    table[idx] = get(idx, 0) - c
            if not any(table.values()):
                return None
            return min(idx[0] for idx, val in table.items() if val)

        fails = None  # the least failing (arity, key, i)
        alternating: dict = {}
        previous: dict = {(): {}}
        for arity in (1, 2):
            columns: dict = {}
            for key in product(range(n), repeat=arity):
                dw = columns[key] = _d_scatter([(key, 1)], preimage)
                if fails is None:
                    i = least_moved(key, dict(dw), previous)
                    if i is not None:
                        fails = arity, key, i
            for key in combinations(range(n), arity):
                alternating[key] = _signed_sum(columns, _alternating_entries(key))
            previous = columns
        for orbit in combinations_with_replacement(range(n), 3):
            keys = sorted(set(permutations(orbit)))
            columns = {}
            for key in keys:
                columns[key] = _d_scatter([(key, 1)], preimage)
            if len(keys) == 6:
                alternating[orbit] = _canonical_part(_signed_sum(columns, _alternating_entries(orbit)))
            if fails is None or (fails[0] == 3 and orbit < fails[1]):
                for key in keys:
                    if fails is not None and key > fails[1]:
                        break
                    i = least_moved(key, columns[key], previous)
                    if i is not None:
                        fails = 3, key, i
                        break
        if fails is None:
            return CheckItem("cartan-formula"), alternating
        arity, key, i = fails
        return CheckItem("cartan-formula", f"arity {arity} key {key} X={g.labels[i]}"), alternating

    def _d_items(self, g: QuadraticLieAlgebra, alternating: dict) -> tuple[CheckItem, CheckItem]:
        """`d-squared-zero` and `d-preserves-alternating`, in one pass over point masses.

        d^2 = 0 is checked on the alternating point masses of arity 1 and 2,
        and d maps alternating forms to alternating forms on those of arity
        1..3.  d of each of them is read off `alternating`, the columns
        `_cartan_item` returns, so d is scattered once per ordered point
        mass for both checks.  A column holds no zero numerator (a zero on
        a key with a repeated index is no failure of alternation), and its
        canonical part is taken: its entries on increasing keys, or None
        when it is not alternating.  The arities run from 3 down, so the
        canonical parts of arity + 1 are there when a mass of arity is
        reached.

        When d w is alternating, it is the sum over increasing keys K of
        (d w)[K] times the alternating point mass on K, so d(d w) is the same
        combination of those masses' columns.  When every such column is
        alternating, so is the sum, and it is zero exactly when its part on
        increasing keys, the combination of the canonical parts, is.
        Otherwise d(d w) is scattered directly, over P^2, and tested for
        zero.  Each item names its least failing (arity, key).
        """
        _, _, preimage = g._integer_structure
        squared = not_alternating = None
        canonical: dict = {}
        for arity in (3, 2, 1):
            fails_squared = fails_alternating = None
            columns = canonical
            canonical = {}
            for key in combinations(range(g.dim), arity):
                dw = alternating[key]
                # at arity 3 the dict holds the canonical part itself
                part = canonical[key] = dw if arity == 3 else _canonical_part(dw)
                if part is None:
                    fails_alternating = fails_alternating or _key_witness(arity, key)
                if arity == 3 or fails_squared:
                    continue
                if part is not None and all(columns[k] is not None for k in part):
                    total: dict = {}
                    for k, c in part.items():
                        for idx, val in columns[k].items():
                            total[idx] = total.get(idx, 0) + c * val
                else:
                    total = _d_scatter(dw.items(), preimage)
                if any(total.values()):
                    fails_squared = _key_witness(arity, key)
            squared = fails_squared or squared
            not_alternating = fails_alternating or not_alternating
        return CheckItem("d-squared-zero", squared), CheckItem("d-preserves-alternating", not_alternating)

    def decomposition_check(self) -> CheckOutcome:
        """The graded-tensor decomposition of the absolute operator.

        In U(g) (x) C(h_perp) (x)bar C(h):
          (i)  D_g = D_{g/h} (x)bar 1 + (Delta (x)bar 1)(D_h), exactly;
          (ii) the two summands anticommute;
          the squared consequence D_{g/h}^2 (x)bar 1 = D_g^2 - (Delta (x)bar 1)(D_h^2);
          and c_{g/h} = c_g - c_h.
        """
        if self.k == 0:
            raise ContractViolation("the decomposition check needs a subalgebra; none was given")
        ctx_h = self._h_context
        ctx_g = self.absolute
        space = ctx_g.space

        # C(h_perp) and C(h) are C(g) on slices of one Gram, h_perp on the low
        # m bits of a C(g) blade, so D_g and D_{g/h} (x)bar 1, and their
        # squares, keep their terms over the concatenated space.
        def over_g(t: TensorElement) -> TripleTensorElement:
            return TripleTensorElement(self.adapted, space, t.terms)

        dg3 = over_g(ctx_g.dirac)
        a3 = over_g(self.dirac)
        b3 = self._embed_h_tensor(ctx_h.dirac, space)

        labels = self.adapted.labels
        items = [
            CheckItem("decomposition-identity", _first_difference(dg3.terms, (a3 + b3).terms, labels)),
            CheckItem("components-anticommute", _first_difference((a3 * b3 + b3 * a3).terms, {}, labels)),
        ]
        # the squares the residuals took: D_g^2 over C(g) is the product
        # dg3 * dg3, and D_{g/h}^2 over C(h_perp) the product a3 * a3
        lhs = over_g(self._dirac_square)
        rhs = over_g(ctx_g._dirac_square) - self._embed_h_tensor(ctx_h._dirac_square, space)
        items.append(CheckItem("squared-consequence", _first_difference(lhs.terms, rhs.terms, labels)))

        c = {"c_g": ctx_g.c_value(), "c_h": ctx_h.c_value(), "c_rel": self.c_value()}
        values = {key: val for key, val in c.items() if val is not None}
        additive = len(values) == 3 and values["c_rel"] == values["c_g"] - values["c_h"]
        witness = None if additive else f"c_rel={c['c_rel']} c_g={c['c_g']} c_h={c['c_h']}"
        items.append(CheckItem("c-additivity", witness))
        return CheckOutcome("decomposition", tuple(items), values)

    # -- decomposition plumbing ----------------------------------------------

    def _embed_h_tensor(self, t: TensorElement, space: CliffordSpace) -> TripleTensorElement:
        """(Delta (x)bar 1) applied to an element of U(h) (x) C(h), over C(g).

        PBW monomials on h's own indices 0..k-1 map multiplicatively through
        the diagonal embedding, index j to Delta(Y_j), into U(g) (x) C(h_perp),
        whose blades are the low m bits; the image of a monomial starts at
        Delta of its first index, and the empty monomial maps to 1 (x) 1.
        The h blade goes on the high bits, hmask << m: it follows the h_perp
        blade in ascending order, so the concatenation carries no sign.
        """
        out: dict = {}
        images: dict[tuple, TensorElement] = {}
        for (mono, hmask), c in t.terms.items():
            if mono not in images:
                acc = self.diagonal_embedding(mono[0]) if mono else TensorElement.one(self.adapted, self.space)
                for i in mono[1:]:
                    acc = acc * self.diagonal_embedding(i)
                images[mono] = acc
            high = hmask << self.m
            for (umono, pmask), ci in images[mono].terms.items():
                key = (umono, pmask | high)
                out[key] = out.get(key, ZERO) + c * ci
        return TripleTensorElement(self.adapted, space, out)


def _form_entries(g: QuadraticLieAlgebra) -> tuple[int, list]:
    """The form's nonzero entries B_ij as `_integer_terms` gives them: (den, [((i, j), n), ...])."""
    return _integer_terms({(i, j): c for i in range(g.dim) for j, c in enumerate(g.form.row(i)) if c})


def _alternating_entries(key: tuple) -> list:
    """[(ordering, sign), ...]: the alternating form that is 1 on the
    increasing key, each ordering of key with the sign of its permutation,
    key first."""
    return [(key, 1)] + [(get(key), sign) for get, sign in _ORDERINGS[len(key)]]


def _signed_sum(columns: dict, entries) -> dict:
    """The nonzero entries of the sum of sign * columns[key] over the (key, sign) entries."""
    out: dict = {}
    get = out.get
    for key, sign in entries:
        if sign > 0:
            for idx, val in columns[key].items():
                out[idx] = get(idx, 0) + val
        else:
            for idx, val in columns[key].items():
                out[idx] = get(idx, 0) - val
    for idx in [idx for idx, val in out.items() if not val]:
        del out[idx]
    return out


def _key_witness(arity: int, key: tuple) -> str:
    return f"arity {arity} key {str(key).replace(' ', '')}"


def _dv_law_items(
    space: CliffordSpace, v: Multivector, v2: Multivector, dv: Sequence[Multivector], labels: Sequence[str]
) -> tuple[CheckItem, CheckItem]:
    """`dv-derivation-law` and `dv-square-is-v2-bracket` on the generators e_a of C(h_perp).

    d_v = `twisted_commutator(v, .)`, v2 = v^2, and dv[a] = d_v(e_a).  The derivation law
    d_v(e_i e_j) = d_v(e_i) e_j - e_i d_v(e_j) (kappa(e_i) = -e_i) is
    checked on every ordered pair i, j, i = j included; the square law
    d_v(d_v(e_a)) = v^2 e_a - e_a v^2 on every a.  For odd v both sides of
    the square law are even derivations, so agreeing on the generators is
    agreeing everywhere.  A witness names the failing generators' labels.

    v, v2 and the dv[a] are put on integer numerators once.  A law compares
    its two sides on one table: d_v(e_i e_j), d_v(e_i) (-e_j) and
    e_i d_v(e_j), or d_v(d_v(e_a)), v2 (-e_a) and e_a v2, add into it over
    their lcm through `_overlap_sums`, the blade-pair loop of the product
    and, in its twisted form, of `twisted_commutator`, so d_v on the left
    side runs the code d_v(e_a) ran.  The law fails exactly where
    `_scale_overlaps` of the table returns a key.  e_i e_i is the scalar
    d_i, over its denominator.  No element is built per pair.
    """
    m = space.dim
    den_v, v_num = _integer_terms(v.terms)
    den_2, v2_num = _integer_terms(v2.terms)
    dv_num = [_integer_terms(x.terms) for x in dv]
    plus = [[(1 << a, 1)] for a in range(m)]
    minus = [[(1 << a, -1)] for a in range(m)]

    def differs(*products) -> bool:
        """Whether the products (den, left, right, twisted), each over its den, sum to nonzero."""
        den = lcm(*(d for d, *_ in products))
        table: dict = {}
        for d, left, right, twisted in products:
            _overlap_sums(left, right, twisted, table, den // d)
        return bool(space._scale_overlaps(table, den))

    def derivation_fails(i: int, j: int) -> bool:
        if i == j:
            d = space.gram[i]
            den, square = d.denominator, [(0, d.numerator)]
        else:
            den, square = 1, [((1 << i) | (1 << j), 1 if i < j else -1)]
        (den_i, dv_i), (den_j, dv_j) = dv_num[i], dv_num[j]
        return differs(
            (den_v * den, v_num, square, True), (den_i, dv_i, minus[j], False), (den_j, plus[i], dv_j, False)
        )

    def square_fails(a: int) -> bool:
        den_a, dv_a = dv_num[a]
        return differs(
            (den_v * den_a, v_num, dv_a, True), (den_2, v2_num, minus[a], False), (den_2, plus[a], v2_num, False)
        )

    broken = (f"a={labels[i]} b={labels[j]}" for i, j in product(range(m), repeat=2) if derivation_fails(i, j))
    unequal = (labels[a] for a in range(m) if square_fails(a))
    return CheckItem("dv-derivation-law", next(broken, None)), CheckItem("dv-square-is-v2-bracket", next(unequal, None))


def _non_scalar_witness(t: TensorElement, labels: Sequence[str]) -> str | None:
    """The first term of t off 1 (x) 1, or None when t is a scalar multiple of 1."""
    return _first_difference({key: c for key, c in t.terms.items() if key != ((), 0)}, {}, labels)


def _first_difference(lhs: dict, rhs: dict, labels: Sequence[str]) -> str | None:
    """None when the term tables lhs and rhs are equal; otherwise their least
    differing key in sorted order with both coefficients, `<key>: <lhs> vs <rhs>`.

    The key is written in the adapted basis labels by its shape: a tensor key
    (PBW monomial, blade mask) as `X1*X2 (x) p1^p3`, a blade mask as
    `p1^p3`, an index tuple as `p1,p2,p3`, with `1` for an empty monomial
    or blade.  The blade bits of C(h_perp) and of C(g) are the first
    adapted basis vectors, so the labels name both.
    """
    if lhs == rhs:
        return None
    # the tables hold no zero coefficient, so unequal tables differ on a key
    key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))

    def blade(mask: int) -> str:
        return "^".join(labels[i] for i in _bits(mask)) or "1"

    if isinstance(key, int):
        text = blade(key)
    elif key and isinstance(key[0], tuple):
        text = f"{'*'.join(labels[i] for i in key[0]) or '1'} (x) {blade(key[1])}"
    else:
        text = ",".join(labels[i] for i in key)
    return f"{text}: {lhs.get(key, ZERO)} vs {rhs.get(key, ZERO)}"
