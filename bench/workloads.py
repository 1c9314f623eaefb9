"""The three workloads: which documents, which calls, which expected outputs.

A call is one `cubicdirac` command line.  Its expected output is the list of
item ids its bundle must report (see README.md) and the values of c the
oracle gives for its document.  The seed permutes the call order of a pass
and, in `generated`, draws the changes of basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from cubicdirac import catalog_entry, catalog_names
from cubicdirac.catalog import heisenberg_brackets, sl2_brackets

import gen

KOSTANT_ITEMS = (
    "first-order-cancellation",
    "residual-linear-terms-vanish",
    "residual-scalar",
    "v-square-scalar",
    "v-square-central",
    "v-square-equals-c",
    "middle-term-identity",
    "c-basis-invariant",
)
KOSTANT_PAIR_ITEMS = (
    "first-order-cancellation",
    "residual-linear-terms-vanish",
    "residual-scalar",
    "c-basis-invariant",
)
COHOMOLOGY_ITEMS = (
    "dB-equals-2v",
    "theta-B-vanishes",
    "cartan-formula",
    "d-squared-zero",
    "d-preserves-alternating",
    "delta-plus-dv-vanishes",
    "dv-derivation-law",
    "dv-square-is-v2-bracket",
)
DECOMPOSITION_ITEMS = (
    "decomposition-identity",
    "components-anticommute",
    "squared-consequence",
    "c-additivity",
)

# values from the literature; the oracle must reproduce every entry
CATALOG_KNOWN = {
    "abelian1": {"c": Fraction(0)},
    "abelian2": {"c": Fraction(0)},
    "abelian3": {"c": Fraction(0)},
    "sl2-killing": {"c": Fraction(1, 8)},
    "sl2-killing-neg": {"c": Fraction(-1, 8)},
    "sl2-killing-half": {"c": Fraction(1, 4)},
    "sl2xsl2-diagonal": {"c_rel": Fraction(3, 16)},
    "sl3-killing": {"c": Fraction(1, 3)},
}

# documents per pass of `generated`: (base algebra, number of random bases)
GENERATED_MIX = (("sl2-killing", 10), ("sl3-killing", 8), ("so5-killing", 2), ("tstar-sl2", 2))


@dataclass(frozen=True)
class Call:
    doc: str
    use_subalgebra: bool
    bundle: str | None  # verify bundle; None for compute-c
    items: tuple[str, ...]
    values: dict

    def argv(self, path: str) -> list[str]:
        if self.bundle is None:
            return ["compute-c", "--input", path]
        argv = ["verify", "--input", path, "--checks", self.bundle, "--report", "machine"]
        if self.use_subalgebra:
            argv.append("--subalgebra-from-file")
        return argv


def catalog_spec(name: str) -> gen.Spec:
    entry = catalog_entry(name)
    a = entry.algebra
    form = tuple(tuple(a.form.entry(i, j) for j in range(a.dim)) for i in range(a.dim))
    return gen.Spec(name, a.labels, a.bracket_table(), form, entry.subalgebra, CATALOG_KNOWN[name])


def extra_specs(sl3: gen.Spec) -> dict[str, gen.Spec]:
    """Algebras beyond the catalog, built by the benchmark."""
    # sl3 is the catalog entry; its basis starts e12, e13, e23, h1, h2, f12
    triple = tuple(tuple(Fraction(int(i == k)) for i in range(sl3.dim)) for k in (0, 3, 5))
    return {
        "so5-killing": gen.matrix_spec("so5-killing", gen.so_reps(5), Fraction(5, 12)),
        "sl4-killing": gen.matrix_spec("sl4-killing", gen.sl_reps(4), Fraction(5, 8)),
        "sl3-sl2-triple": replace(
            sl3,
            name="sl3-sl2-triple",
            subalgebra=triple,
            known={"c_rel": Fraction(1, 4), "c_h": Fraction(1, 12)},
        ),
        "tstar-sl2": gen.tstar_spec("tstar-sl2", ("e", "h", "f"), sl2_brackets()),
        "tstar-heisenberg": gen.tstar_spec("tstar-heisenberg", ("x", "y", "z"), heisenberg_brackets()),
    }


def _verify_call(spec: gen.Spec, bundle: str, use_subalgebra: bool) -> Call:
    values = gen.oracle_values(spec, use_subalgebra)
    if bundle == "kostant":
        if use_subalgebra:
            return Call(spec.name, True, bundle, KOSTANT_PAIR_ITEMS, {"c": values["c"]})
        return Call(spec.name, False, bundle, KOSTANT_ITEMS, {"c": values["c"], "v_square": values["c"]})
    if bundle == "decomposition":
        expected = {key: values[key] for key in ("c_g", "c_h", "c_rel")}
        return Call(spec.name, True, bundle, DECOMPOSITION_ITEMS, expected)
    if bundle == "invariance":
        labels = tuple(f"delta-commutes-with-dirac:h{j + 1}" for j in range(len(spec.subalgebra)))
        return Call(spec.name, True, bundle, labels, {})
    return Call(spec.name, use_subalgebra, bundle, COHOMOLOGY_ITEMS, {})


def check_known(spec: gen.Spec, use_subalgebra: bool) -> None:
    """Raise ValueError when the oracle disagrees with a value from the literature.

    A pair's relative values are known only when it is used as a pair.
    """
    values = gen.oracle_values(spec, use_subalgebra)
    for key, known in spec.known.items():
        if key in values and values[key] != known:
            raise ValueError(f"oracle gives {key} = {values[key]} on {spec.name}, literature {known}")


def build(workload: str, seed: int) -> tuple[dict[str, gen.Spec], list[Call]]:
    """(documents by name, the calls of one pass) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    catalog = {name: catalog_spec(name) for name in catalog_names()}
    extra = extra_specs(catalog["sl3-killing"])
    if workload == "operator":
        specs = list(catalog.values()) + [
            extra[name] for name in ("so5-killing", "sl4-killing", "sl3-sl2-triple", "tstar-sl2", "tstar-heisenberg")
        ]
        calls = [_verify_call(spec, "kostant", bool(spec.subalgebra)) for spec in specs]
        for spec in (catalog["sl2xsl2-diagonal"], extra["sl3-sl2-triple"]):
            calls += [_verify_call(spec, "decomposition", True), _verify_call(spec, "invariance", True)]
    elif workload == "cohomology":
        specs = [catalog["sl2-killing"], catalog["sl2xsl2-diagonal"], extra["tstar-heisenberg"]]
        calls = [_verify_call(spec, "cohomology", False) for spec in specs]
    elif workload == "generated":
        bases = {**catalog, **extra}
        specs = []
        calls = []
        for base_name, count in GENERATED_MIX:
            base = replace(bases[base_name], subalgebra=())
            check_known(base, False)
            expected = gen.oracle_values(base, False)["c"]
            for _ in range(count):
                tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)) + str(len(specs))
                spec = replace(gen.change_basis(base, rng, tag), known={"c": expected})
                specs.append(spec)
                calls.append(Call(spec.name, False, None, (), {"c": expected}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    docs = {spec.name: spec for spec in specs}
    for call in calls:
        check_known(docs[call.doc], call.use_subalgebra)
    rng.shuffle(calls)
    return docs, calls
