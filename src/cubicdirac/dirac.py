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
    Delta(y) = y (x) 1 + 1 (x) lift(nu(y)) for y in h.

Each check method returns a CheckOutcome listing every asserted identity
with a pass flag and, on failure, a witness string; checks never raise on a
mathematical failure, only on misuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Sequence

from .clifford import (
    CliffordSpace,
    Multivector,
    is_scalar,
    multivector_from_trilinear,
    scalar_part,
    spin_lift,
    twisted_commutator,
)
from .envelope import PBWElement, casimir_element
from .errors import ContractViolation
from .forms import MultilinearMap, bracket_coproduct, ce_differential, form_of_trivector, insert_first, lie_action
from .lie import (
    OrthogonalSplit,
    QuadraticLieAlgebra,
    orthogonal_split,
    subalgebra_action,
    unit,
)
from .linalg import Matrix, ZERO
from .tensor import TensorElement, TripleTensorElement

HALF = Fraction(1, 2)
DEFAULT_SEED = 20240814
RANDOM_SAMPLES = 100


@dataclass(frozen=True)
class CheckItem:
    """One asserted identity: an id, a pass flag, a witness when failing."""

    item_id: str
    ok: bool
    witness: str | None = None


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


def _trivial_split(algebra: QuadraticLieAlgebra) -> OrthogonalSplit:
    """The split with h = 0 when the algebra basis is already orthogonal.

    Reusing the algebra itself as the adapted algebra keeps element carriers
    compatible when a context is built on top of another context's adapted
    algebra (the decomposition check does exactly that).
    """
    n = algebra.dim
    ident = Matrix.identity(n)
    return OrthogonalSplit(
        ambient=algebra,
        p_vectors=tuple(unit(n, i) for i in range(n)),
        h_vectors=(),
        p_gram=tuple(algebra.form.entry(i, i) for i in range(n)),
        h_gram=(),
        adapted=algebra,
        from_adapted=ident,
        to_adapted=ident,
    )


class DiracContext:
    """g, an optional h, one adapted basis, and the cached operator data."""

    def __init__(
        self,
        algebra: QuadraticLieAlgebra,
        subalgebra: Sequence[Sequence] = (),
        p_variant: int = 0,
    ):
        self.algebra = algebra
        self.subalgebra = tuple(tuple(Fraction(c) for c in v) for v in subalgebra)
        self.p_variant = p_variant
        if not self.subalgebra and p_variant == 0 and algebra.form.is_diagonal():
            self.split = _trivial_split(algebra)
        else:
            self.split = orthogonal_split(algebra, self.subalgebra, p_variant)
        self.adapted = self.split.adapted
        self.m = self.split.p_dim
        self.k = self.split.h_dim
        self.space = CliffordSpace(self.split.p_gram)

        self.v = multivector_from_trilinear(self.space, self._fundamental_value)
        self.casimir = casimir_element(self.adapted)
        self.dirac = self._build_dirac()

        self._h_algebra: QuadraticLieAlgebra | None = None
        self._embeddings: dict[int, TensorElement] = {}
        self._delta_casimir: TensorElement | None = None
        self._residual: TensorElement | None = None

    # -- construction ------------------------------------------------------

    def _fundamental_value(self, i: int, j: int, k: int) -> Fraction:
        """t(X_i, X_j, X_k) = -1/2 B(X_i, [X_j, X_k]) on the h_perp basis."""
        return -HALF * self.split.p_gram[i] * self.adapted.bracket_basis(j, k)[i]

    def _build_dirac(self) -> TensorElement:
        d = TensorElement.from_parts(PBWElement.one(self.adapted), self.v)
        for i in range(self.m):
            xi = (1 / self.split.p_gram[i]) * PBWElement.generator(self.adapted, i)
            d = d + TensorElement.from_parts(xi, self.space.generator(i))
        return d

    @property
    def h_algebra(self) -> QuadraticLieAlgebra:
        if self._h_algebra is None:
            self._h_algebra = self.split.subalgebra_as_algebra()
        return self._h_algebra

    def diagonal_embedding(self, j: int) -> TensorElement:
        """Delta(Y_j) = Y_j (x) 1 + 1 (x) lift(nu(Y_j)) for the j-th h vector."""
        if not 0 <= j < self.k:
            raise ContractViolation("subalgebra basis index out of range")
        if j not in self._embeddings:
            nu = subalgebra_action(self.split, self.split.h_vectors[j])
            lift = spin_lift(self.space, nu)
            yj = PBWElement.generator(self.adapted, self.m + j)
            self._embeddings[j] = TensorElement.from_parts(
                yj, self.space.one()
            ) + TensorElement.from_parts(PBWElement.one(self.adapted), lift)
        return self._embeddings[j]

    def delta_casimir(self) -> TensorElement:
        """Delta(Omega_h) = sum_j (1/e_j) Delta(Y_j)^2 over the orthogonal h basis."""
        if self._delta_casimir is None:
            acc = TensorElement.zero(self.adapted, self.space)
            for j in range(self.k):
                dj = self.diagonal_embedding(j)
                acc = acc + (1 / self.split.h_gram[j]) * (dj * dj)
            self._delta_casimir = acc
        return self._delta_casimir

    def residual(self) -> TensorElement:
        """D^2 - Omega_g (x) 1 + Delta(Omega_h); a scalar by the main theorem."""
        if self._residual is None:
            d2 = self.dirac * self.dirac
            omega = TensorElement.from_parts(self.casimir, self.space.one())
            self._residual = d2 - omega + self.delta_casimir()
        return self._residual

    def c_value(self) -> Fraction | None:
        """The scalar value of the residual, or None if it is not scalar."""
        r = self.residual()
        if not r.is_scalar_multiple_of_one():
            return None
        return r.scalar_coefficient()

    @cached_property
    def first_order_witness(self) -> str | None:
        """Label of the first X_a in h_perp with delta(X_a) + d_v(e_a) != 0, or None.

        This is the first-order mechanism of the proof: the bracket coproduct
        cancels the twisted commutator with v on every generator.
        """
        n = self.adapted.dim
        for a in range(self.m):
            delta_a = bracket_coproduct(self.space, self.adapted, unit(n, a))
            dv_a = twisted_commutator(self.v, self.space.generator(a))
            if not (delta_a + dv_a).is_zero():
                return self.adapted.labels[a]
        return None

    def _variant_context(self) -> "DiracContext":
        return DiracContext(self.algebra, self.subalgebra, p_variant=self.p_variant + 1)

    # -- checks --------------------------------------------------------------

    def kostant_check(self) -> CheckOutcome:
        """Scalar residual, with the first-order mechanism and, for h = 0,
        the v^2 cross-checks and the middle-term rearrangement."""
        items: list[CheckItem] = []

        witness = self.first_order_witness
        items.append(CheckItem("first-order-cancellation", witness is None, witness))

        r = self.residual()
        linear = r.u_degree_terms(1)
        items.append(
            CheckItem(
                "residual-linear-terms-vanish",
                not linear,
                None if not linear else f"{len(linear)} surviving degree-1 terms",
            )
        )
        scalar_ok = r.is_scalar_multiple_of_one()
        items.append(
            CheckItem(
                "residual-scalar",
                scalar_ok,
                None if scalar_ok else f"{len(r.terms)} surviving terms",
            )
        )
        values: dict[str, Fraction] = {}
        c = r.scalar_coefficient()
        if scalar_ok:
            values["c"] = c

        if self.k == 0:
            v2 = self.v * self.v
            items.append(
                CheckItem(
                    "v-square-scalar",
                    is_scalar(v2),
                    None if is_scalar(v2) else f"degrees {sorted(v2.degrees())}",
                )
            )
            # The generators generate C(h_perp), so commuting with each of
            # them is commuting with every element.
            witness = None
            for i in range(self.m):
                gen = self.space.generator(i)
                if v2 * gen != gen * v2:
                    witness = self.adapted.labels[i]
                    break
            items.append(CheckItem("v-square-central", witness is None, witness))
            two_route = scalar_ok and is_scalar(v2) and scalar_part(v2) == c
            items.append(CheckItem("v-square-equals-c", two_route))
            values["v_square"] = scalar_part(v2)
            items.append(
                CheckItem("middle-term-identity", self._middle_term_holds())
            )

        if scalar_ok:
            alt = self._variant_context()
            r2 = alt.residual()
            invariant = r2.is_scalar_multiple_of_one() and r2.scalar_coefficient() == c
            items.append(
                CheckItem(
                    "c-basis-invariant",
                    invariant,
                    None if invariant else f"variant basis gives {r2.scalar_coefficient()}",
                )
            )

        return CheckOutcome("kostant", tuple(items), values)

    def _middle_term_holds(self) -> bool:
        """sum_{i<j} [X_i,X_j] (x) X^i X^j  =  sum_k X_k (x) delta(X^k), h = 0."""
        n = self.adapted.dim
        lhs = TensorElement.zero(self.adapted, self.space)
        for i in range(n):
            for j in range(i + 1, n):
                br = PBWElement.from_vector(self.adapted, self.adapted.bracket_basis(i, j))
                if br.is_zero():
                    continue
                coeff = 1 / (self.split.p_gram[i] * self.split.p_gram[j])
                lhs = lhs + TensorElement.from_parts(br, self.space.blade((i, j), coeff))
        rhs = TensorElement.zero(self.adapted, self.space)
        for a in range(n):
            delta_a = bracket_coproduct(self.space, self.adapted, unit(n, a))
            xa = (1 / self.split.p_gram[a]) * PBWElement.generator(self.adapted, a)
            rhs = rhs + TensorElement.from_parts(xa, delta_a)
        return lhs == rhs

    def h_invariance_check(self) -> CheckOutcome:
        """[Delta(y), D] = 0 for every orthogonal basis vector y of h."""
        items = []
        if self.k == 0:
            items.append(CheckItem("h-invariance-vacuous", True))
        for j in range(self.k):
            com = self.diagonal_embedding(j).commutator(self.dirac)
            label = self.adapted.labels[self.m + j]
            items.append(
                CheckItem(
                    f"delta-commutes-with-dirac:{label}",
                    com.is_zero(),
                    None if com.is_zero() else f"{len(com.terms)} surviving terms",
                )
            )
        return CheckOutcome("invariance", tuple(items))

    def cohomology_check(self, seed: int = DEFAULT_SEED, samples: int = RANDOM_SAMPLES) -> CheckOutcome:
        """The differential-geometry identity chain, run on g with h = 0.

        The chain lives on the full algebra (forms take arguments anywhere in
        g), so a context with a subalgebra delegates to the absolute one.

        `dv-derivation-law`, d_v(ab) = d_v(a) b + kappa(a) d_v(b), holds for
        every v, odd or not (the kappa(a) v b terms cancel), so it checks the
        Clifford product and kappa, not v.  The items that depend on v are
        `dv-square-is-v2-bracket` and `delta-plus-dv-vanishes`.
        """
        ctx = self if self.k == 0 else DiracContext(self.algebra)
        g = ctx.adapted
        space = ctx.space
        v = ctx.v
        n = g.dim
        items: list[CheckItem] = []

        basis = [unit(n, i) for i in range(n)]
        b_form = MultilinearMap.from_matrix(g, g.form)
        items.append(
            CheckItem("dB-equals-2v", ce_differential(b_form) == 2 * form_of_trivector(g, v))
        )

        witness = None
        for i, x in enumerate(basis):
            if not lie_action(x, b_form).is_zero():
                witness = g.labels[i]
                break
        items.append(CheckItem("theta-B-vanishes", witness is None, witness))

        items.append(self._cartan_item(g, basis))
        items.append(self._d_squared_item(g, n))
        items.append(self._alternating_stability_item(g, n))

        witness = ctx.first_order_witness
        items.append(CheckItem("delta-plus-dv-vanishes", witness is None, witness))

        rng = random.Random(seed)
        v2 = v * v
        witness = None
        for _ in range(samples):
            a = _random_multivector(space, rng)
            b = _random_multivector(space, rng)
            lhs = twisted_commutator(v, a * b)
            rhs = twisted_commutator(v, a) * b + a.grade_involution() * twisted_commutator(v, b)
            if lhs != rhs:
                witness = f"seed {seed} a={a!r} b={b!r}"
                break
        items.append(CheckItem("dv-derivation-law", witness is None, witness))

        witness = None
        for _ in range(samples):
            a = _random_multivector(space, rng)
            if twisted_commutator(v, twisted_commutator(v, a)) != v2 * a - a * v2:
                witness = f"seed {seed} a={a!r}"
                break
        items.append(CheckItem("dv-square-is-v2-bracket", witness is None, witness))

        return CheckOutcome("cohomology", tuple(items))

    def _cartan_item(self, g: QuadraticLieAlgebra, basis: list) -> CheckItem:
        """iota_X d + d iota_X = theta_X on every point-mass form of arity <= 3.

        Point-mass (single-entry) tables span the whole space of multilinear
        maps and every operator involved is linear in the form, so this is an
        exhaustive verification for arities 1..3, with X over `basis`, the
        unit vectors of g.
        """
        for arity in range(1, 4):
            for key in product(range(len(basis)), repeat=arity):
                w = MultilinearMap(g, arity, {key: 1})
                dw = ce_differential(w)
                for i, x in enumerate(basis):
                    lhs = insert_first(x, dw) + ce_differential(insert_first(x, w))
                    if lhs != lie_action(x, w):
                        return CheckItem(
                            "cartan-formula", False, f"arity {arity} key {key} X={g.labels[i]}"
                        )
        return CheckItem("cartan-formula", True)

    def _d_squared_item(self, g: QuadraticLieAlgebra, n: int) -> CheckItem:
        """d^2 = 0 on all arity-1 maps and on alternating arity-2 maps."""
        for i in range(n):
            w = MultilinearMap(g, 1, {(i,): 1})
            if not ce_differential(ce_differential(w)).is_zero():
                return CheckItem("d-squared-zero", False, f"arity 1 key ({i},)")
        for i in range(n):
            for j in range(i + 1, n):
                w = MultilinearMap(g, 2, {(i, j): 1, (j, i): -1})
                if not ce_differential(ce_differential(w)).is_zero():
                    return CheckItem("d-squared-zero", False, f"arity 2 key ({i},{j})")
        return CheckItem("d-squared-zero", True)

    def _alternating_stability_item(self, g: QuadraticLieAlgebra, n: int) -> CheckItem:
        """d maps alternating forms of arity <= 3 to alternating forms."""
        for i in range(n):
            w = MultilinearMap(g, 1, {(i,): 1})
            if not ce_differential(w).is_alternating():
                return CheckItem("d-preserves-alternating", False, f"arity 1 key ({i},)")
        for i in range(n):
            for j in range(i + 1, n):
                w = MultilinearMap(g, 2, {(i, j): 1, (j, i): -1})
                if not ce_differential(w).is_alternating():
                    return CheckItem("d-preserves-alternating", False, f"arity 2 key ({i},{j})")
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    w = MultilinearMap(g, 3, _alternating_triple(i, j, k))
                    if not ce_differential(w).is_alternating():
                        return CheckItem(
                            "d-preserves-alternating", False, f"arity 3 key ({i},{j},{k})"
                        )
        return CheckItem("d-preserves-alternating", True)

    def decomposition_check(self) -> CheckOutcome:
        """The graded-tensor decomposition of the absolute operator.

        In U(g) (x) C(h_perp) (x)bar C(h):
          (i)  D_g = D_{g/h} (x)bar 1 + (Delta (x)bar 1)(D_h), exactly;
          (ii) the two summands anticommute;
          the squared consequence D_{g/h}^2 (x)bar 1 = D_g^2 - (Delta (x)bar 1)(D_h^2);
          and c_{g/h} = c_g - c_h.
        """
        if self.k == 0:
            raise ContractViolation("the decomposition check needs a nonzero subalgebra")
        ctx_h = DiracContext(self.h_algebra)
        ctx_g = DiracContext(self.adapted)
        space = ctx_g.space
        if space.gram != self.space.gram + ctx_h.space.gram:
            raise ContractViolation("internal: C(g) is not C(h_perp) (x)bar C(h) on concatenated blades")

        # h_perp blades are the low m bits of a C(g) blade, so D_g and
        # D_{g/h} (x)bar 1 keep their terms over the concatenated space.
        dg3 = TripleTensorElement(self.adapted, space, ctx_g.dirac.terms)
        a3 = TripleTensorElement(self.adapted, space, self.dirac.terms)
        b3 = self._embed_h_tensor(ctx_h.dirac, space)

        items = []
        ident = dg3 == a3 + b3
        items.append(
            CheckItem(
                "decomposition-identity",
                ident,
                None if ident else f"{len((dg3 - (a3 + b3)).terms)} mismatched terms",
            )
        )
        anti = (a3 * b3 + b3 * a3).is_zero()
        items.append(CheckItem("components-anticommute", anti))
        squared = a3 * a3 == dg3 * dg3 - self._embed_h_tensor(ctx_h.dirac * ctx_h.dirac, space)
        items.append(CheckItem("squared-consequence", squared))

        values: dict[str, Fraction] = {}
        c_rel, c_g, c_h = self.c_value(), ctx_g.c_value(), ctx_h.c_value()
        additive = c_rel is not None and c_g is not None and c_h is not None and c_rel == c_g - c_h
        if c_g is not None:
            values["c_g"] = c_g
        if c_h is not None:
            values["c_h"] = c_h
        if c_rel is not None:
            values["c_rel"] = c_rel
        items.append(
            CheckItem(
                "c-additivity",
                additive,
                None if additive else f"c_rel={c_rel} c_g={c_g} c_h={c_h}",
            )
        )
        return CheckOutcome("decomposition", tuple(items), values)

    # -- decomposition plumbing ----------------------------------------------

    def _embed_h_tensor(self, t: TensorElement, space: CliffordSpace) -> TripleTensorElement:
        """(Delta (x)bar 1) applied to an element of U(h) (x) C(h), over C(g).

        PBW monomials over h map multiplicatively through the diagonal
        embedding into U(g) (x) C(h_perp), whose blades are the low m bits.
        The h blade goes on the high bits, hmask << m: it follows the h_perp
        blade in ascending order, so the concatenation carries no sign.
        """
        out: dict = {}
        images: dict[tuple, TensorElement] = {}
        for (mono, hmask), c in t.terms.items():
            if mono not in images:
                acc = TensorElement.one(self.adapted, self.space)
                for j in mono:
                    acc = acc * self.diagonal_embedding(j)
                images[mono] = acc
            high = hmask << self.m
            for (umono, pmask), ci in images[mono].terms.items():
                key = (umono, pmask | high)
                out[key] = out.get(key, ZERO) + c * ci
        return TripleTensorElement(self.adapted, space, out)


def _alternating_triple(i: int, j: int, k: int) -> dict:
    return {
        (i, j, k): 1,
        (j, k, i): 1,
        (k, i, j): 1,
        (j, i, k): -1,
        (i, k, j): -1,
        (k, j, i): -1,
    }


def _random_multivector(space: CliffordSpace, rng: random.Random, terms: int = 4) -> Multivector:
    out = {}
    for _ in range(terms):
        mask = rng.randrange(1 << space.dim)
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num:
            out[mask] = out.get(mask, ZERO) + Fraction(num, den)
    return Multivector(space, out)
