"""Per-layer tracing of the package by wrapping its functions in place.

Every public module-level function of every module is wrapped in the module
that defines it and in every namespace that bound it with `from .x import f`
(the package itself included), so calls made through either name are seen.
Selected methods are wrapped on their class.  A wrapper records a span
(name, parent span, request id, start, end), adds the call to its function's
totals, and runs an optional counter that reads work sizes off the
arguments and the result.  Self time is a span's duration minus the time of
its child spans.  Spans are kept in memory while `keep_spans` is true and
written once, at the end; the totals count every call.

Small helpers that run inside the inner loops of other layers are left
unwrapped: a span per call would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

PACKAGE = "cubicdirac"

SKIP = {
    "linalg.as_scalar",
    "linalg.vector",
    "linalg.vec_add",
    "linalg.vec_scale",
    "linalg.is_zero_vector",
    "lie.bracket_of",
    "lie.unit",
}

METHODS = {
    "lie.QuadraticLieAlgebra": ("__init__", "killing"),
    "lie.OrthogonalSplit": ("subalgebra_as_algebra",),
    "clifford.Multivector": ("__mul__", "__xor__"),
    "envelope.PBWElement": ("__mul__",),
    "tensor.TensorElement": ("__mul__", "commutator"),
    "tensor.TripleTensorElement": ("__mul__",),
    "dirac.DiracContext": (
        "__init__",
        "residual",
        "delta_casimir",
        "diagonal_embedding",
        "kostant_check",
        "h_invariance_check",
        "cohomology_check",
        "decomposition_check",
    ),
}


def _pairs(stats, args, result):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):  # not a product by a scalar
        stats["pairs"] += len(a.terms) * len(b.terms)
    stats["terms_out"] += len(result.terms)


def _map_sizes(stats, args, result):
    stats["terms_in"] += len(args[-1].values)
    stats["terms_out"] += len(result.values)


def _pbw_sizes(stats, args, result):
    stats["terms_in"] += len(args[1])
    stats["terms_out"] += len(result)


COUNTERS = {
    "clifford.Multivector.__mul__": _pairs,
    "envelope.PBWElement.__mul__": _pairs,
    "tensor.TensorElement.__mul__": _pairs,
    "tensor.TripleTensorElement.__mul__": _pairs,
    "forms.ce_differential": _map_sizes,
    "forms.lie_action": _map_sizes,
    "forms.insert_first": _map_sizes,
    "envelope.pbw_normalize": _pbw_sizes,
}


class Tracer:
    """Wraps the package's functions; `install` and `uninstall` are symmetric."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.request = 0
        self.keep_spans = True
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        count = COUNTERS.get(name)
        if count is not None:
            stats.update(pairs=0, terms_in=0, terms_out=0)
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                stats["calls"] += 1
                stats["s"] += duration
                stats["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans:
                    spans.append((span_id, parent, tracer.request, name, t0, t1))
            if count is not None:
                count(stats, args, result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(package.__path__)
        ]
        prefix = PACKAGE + "."
        for module in modules[1:]:
            short = module.__name__[len(prefix):]
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrapper = self._wrap(name, obj)
                    for namespace in modules:
                        for bound, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patches.append((namespace, bound, obj))
                                setattr(namespace, bound, wrapper)
        for qualified, methods in METHODS.items():
            short_module, cls_name = qualified.split(".")
            cls = getattr(importlib.import_module(prefix + short_module), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{qualified}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, dict]:
        return {name: dict(values) for name, values in self.stats.items()}

    def write(self, path, extra: dict) -> None:
        """All spans and totals as one JSON document."""
        doc = dict(extra)
        doc["functions"] = self.stats
        doc["span_fields"] = ["id", "parent", "request", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)
