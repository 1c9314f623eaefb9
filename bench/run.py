"""Benchmark of the cubicdirac verifier, in process, one thread.

    python3 bench/run.py --workload operator|cohomology|generated
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src.  The benchmark generates its documents from the seed, checks them
against an independent oracle for c, then drives `cubicdirac.cli.main` in a
closed loop (the next call starts when the previous one returns) over whole
passes of the workload's calls.  After each pass it times the set-up of
every document, once or for at least a second, so that both are sampled
over the same stretch of time.  It stops when the next pass and set-up
would end after S seconds, and never before three passes.  Every output is
checked after its pass, outside the timed region.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` count calls; `metrics` holds the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
Details of the run, and the spans of a traced run's first pass, go to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("operator", "cohomology", "generated")
MIN_PASSES = 3
SETUP_SECONDS = 1.0  # set-up is repeated for at least this long after each pass

# (metric prefix, traced function, fields); a field `s` is span time,
# `self_s` span time minus child spans, anything else a count
PER_LAYER = (
    ("cli.main", "cli.main", ("s",)),
    ("algfile.parse_algebra_text", "algfile.parse_algebra_text", ("self_s",)),
    ("lie.QuadraticLieAlgebra.init", "lie.QuadraticLieAlgebra.__init__", ("self_s",)),
    ("lie.check_jacobi", "lie.check_jacobi", ("s",)),
    ("lie.check_ad_invariance", "lie.check_ad_invariance", ("s",)),
    ("lie.orthogonal_split", "lie.orthogonal_split", ("self_s",)),
    ("linalg.diagonalize_form", "linalg.diagonalize_form", ("s",)),
    ("linalg.solve_linear", "linalg.solve_linear", ("s",)),
    ("clifford.Multivector.mul", "clifford.Multivector.__mul__", ("calls", "pairs", "self_s")),
    ("clifford.spin_lift", "clifford.spin_lift", ("self_s",)),
    ("envelope.pbw_normalize", "envelope.pbw_normalize", ("calls", "self_s")),
    ("envelope.PBWElement.mul", "envelope.PBWElement.__mul__", ("calls",)),
    ("tensor.TensorElement.mul", "tensor.TensorElement.__mul__", ("calls", "pairs", "terms_out", "self_s")),
    ("tensor.TripleTensorElement.mul", "tensor.TripleTensorElement.__mul__", ("self_s",)),
    ("forms.ce_differential", "forms.ce_differential", ("calls", "terms_in", "terms_out", "self_s")),
    ("forms.lie_action", "forms.lie_action", ("self_s",)),
    ("forms.insert_first", "forms.insert_first", ("self_s",)),
    ("dirac.DiracContext.init", "dirac.DiracContext.__init__", ("self_s",)),
    ("dirac.kostant_check", "dirac.DiracContext.kostant_check", ("self_s",)),
    ("dirac.cohomology_check", "dirac.DiracContext.cohomology_check", ("self_s",)),
    ("dirac.decomposition_check", "dirac.DiracContext.decomposition_check", ("self_s",)),
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_package():
    src = ROOT / "src"
    if not (src / "cubicdirac" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import cubicdirac

    if Path(cubicdirac.__file__).resolve().parent != (src / "cubicdirac").resolve():
        raise BenchError(f"imported cubicdirac from {cubicdirac.__file__}, not from {src}")
    return cubicdirac


def check_output(call, code, out: str) -> int | None:
    """Items verified by one call's output, or None when the output is wrong.

    A verify report must pass as a whole, and its bundle must list the
    required item ids in order, each once (a later item added to a bundle is
    allowed and not counted); every value the call expects must equal the
    oracle's.  compute-c must print the oracle's c.
    """
    if code != 0:
        return None
    try:
        if call.bundle is None:
            return 1 if Fraction(out.strip()) == call.values["c"] else None
        report = json.loads(out)
        (record,) = report["checks"]
        if report["all_passed"] is not True or record["id"] != call.bundle or record["status"] != "pass":
            return None
        ids = [item["id"] for item in record["items"]]
        required = [i for i in ids if i in call.items]
        if required != list(call.items):
            return None
        values = record["values"]
        if any(key not in values or Fraction(values[key]) != want for key, want in call.values.items()):
            return None
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None
    return len(call.items) + len(call.values)


def run_calls(cli, calls, paths, tracer=None, first_request=0):
    """Time one closed-loop pass; returns (seconds, [(exit code, stdout, stderr)])."""
    outputs = []
    start = perf_counter()
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.request = first_request + index + 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(call.argv(paths[call.doc]))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call, reported below
            code = None
            err.write(traceback.format_exc())
        outputs.append((code, out.getvalue(), err.getvalue()))
    return perf_counter() - start, outputs


def measure_setup(package, jobs, texts) -> float:
    """Seconds to parse each distinct document and build its DiracContext once."""
    gc.collect()
    start = perf_counter()
    for doc, use_subalgebra in jobs:
        algebra, subalgebra = package.parse_algebra_text(texts[doc])
        package.DiracContext(algebra, subalgebra if use_subalgebra else ())
    return perf_counter() - start


def perturbation_guard(cli, work: Path) -> None:
    """The checks must reject an algebra whose c is not the expected one.

    sl2 with twice its Killing form has c = 1/16; it is checked against the
    oracle's 1/8 for the Killing form, once by compute-c and once by kostant.
    """
    import gen
    import workloads

    spec = workloads.catalog_spec("sl2-killing")
    expected = gen.oracle_values(spec, False)["c"]
    doubled = tuple(tuple(2 * x for x in row) for row in spec.form)
    perturbed = replace(spec, name="sl2-killing-doubled", form=doubled)
    path = work / "perturbed.json"
    path.write_text(gen.document(perturbed), encoding="utf-8")
    probes = [
        workloads.Call(perturbed.name, False, None, (), {"c": expected}),
        workloads.Call(
            perturbed.name, False, "kostant", workloads.KOSTANT_ITEMS, {"c": expected, "v_square": expected}
        ),
    ]
    _, outputs = run_calls(cli, probes, {perturbed.name: str(path)})
    for probe, (code, out, _) in zip(probes, outputs):
        if code is None or check_output(probe, code, out) is not None:
            raise BenchError(f"the output check accepted a perturbed document ({probe.argv(str(path))})")


def per_layer(before: dict, after: dict) -> dict[str, float]:
    values = {}
    for prefix, name, fields in PER_LAYER:
        old, new = before.get(name, {}), after.get(name, {})
        for field in fields:
            values[f"{prefix}.{field}"] = new.get(field, 0) - old.get(field, 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        package = _import_package()
        import cubicdirac.cli as cli
        import gen
        import tracing
        import workloads

        work = WORK_DIR / args.workload
        work.mkdir(parents=True, exist_ok=True)
        for stale in work.glob("*.json"):
            stale.unlink()
        OUT_DIR.mkdir(exist_ok=True)

        specs, calls = workloads.build(args.workload, args.seed)
        texts = {name: gen.document(spec) for name, spec in specs.items()}
        paths = {}
        for name, text in texts.items():
            path = work / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        perturbation_guard(cli, work)
    except (BenchError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    setup_jobs = sorted({(call.doc, call.use_subalgebra) for call in calls})
    setup_times = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    pass_times, layer_passes = [], []
    attempted = failed = verified = 0
    loop_start = perf_counter()
    while True:
        gc.collect()
        before = tracer.snapshot() if tracer else None
        seconds, outputs = run_calls(cli, calls, paths, tracer, attempted)
        if tracer:
            layer_passes.append(per_layer(before, tracer.snapshot()))
            tracer.keep_spans = False  # one pass of spans is enough and bounds memory
        pass_times.append(seconds)
        pass_verified = 0
        for call, (code, out, err) in zip(calls, outputs):
            attempted += 1
            items = check_output(call, code, out)
            if items is None:
                failed += 1
                if len(pass_times) == 1:
                    sys.stderr.write(f"FAILED {' '.join(call.argv(paths[call.doc]))}: exit {code}\n{err}{out[:2000]}\n")
            else:
                pass_verified += items
        verified = pass_verified
        if not tracer:
            setup_start = perf_counter()
            while perf_counter() - setup_start < SETUP_SECONDS:
                setup_times.append(measure_setup(package, setup_jobs, texts))
        elapsed = perf_counter() - loop_start
        if len(pass_times) >= MIN_PASSES and elapsed * (len(pass_times) + 1) / len(pass_times) > args.seconds:
            break

    if tracer:
        tracer.uninstall()
        metrics = {}
        for name in layer_passes[0]:
            values = [p[name] for p in layer_passes]
            if name.endswith(("self_s", ".s")):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            else:
                metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "items_verified": {"value": verified, "unit": "count"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "args": vars(args),
        "python": sys.version,
        "calls_per_pass": len(calls),
        "documents": len(texts),
        "pass_s": pass_times,
        "setup_s": setup_times,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT_DIR / f"{stem}-spans.json", details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
