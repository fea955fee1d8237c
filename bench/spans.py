"""In-memory spans around the package's layer functions, from outside.

``Tracer.install`` replaces every module-level binding of a traced
function in the package's modules with one wrapper per function, so a
call is caught however the caller reached it: ``brokenstick.cli.prob_none``
and ``brokenstick.probability.prob_none`` (the name ``prob_exists``
calls) go through the same wrapper.  ``Tracer.remove`` puts the
originals back.  No file under ``src/`` changes.

A span is (id, parent id, request id, layer, name, start ns, end ns).
The layer is the module that defines the function; the benchmark opens
one ``cli``/``main`` span per request around ``cli.main``.  The per-term
lookup ``f_sum`` and ``elimination_order`` are counted, not spanned, so
their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "probability", "genfib", "omega", "counting", "montecarlo", "verification")

# Functions given a span, by defining module.
SPANNED = {
    "probability": ("prob_none", "prob_exists", "prob_forall", "prob_ngon"),
    "genfib": ("parts_multiset",),
    "omega": ("run_elimination", "build_crude"),
    "counting": (
        "count_constrained",
        "count_restricted",
        "series_coefficients",
        "hermite_coeff",
        "asymptotic_ratio",
    ),
    "montecarlo": ("estimate",),
    "verification": ("run_suite",),
}
# Functions only counted, by defining module.
COUNTED = {"genfib": ("f_sum",), "omega": ("elimination_order",)}


def _after_estimate(counts: Counter, args, result) -> None:
    config = args[0]
    counts["montecarlo.trials"] += config.trials
    # uniforms (n - 1), pieces (n) and running sums (n), float64 per trial.
    counts["montecarlo.bytes_computed"] += config.trials * (3 * config.spec.n - 1) * 8


def _after_run_suite(counts: Counter, args, result) -> None:
    counts["verification.checks"] += len(result)


def _after_elimination_order(counts: Counter, args, result) -> None:
    counts["omega.markers"] += len(result)


_AFTER = {
    "estimate": _after_estimate,
    "run_suite": _after_run_suite,
    "elimination_order": _after_elimination_order,
}


class Tracer:
    """Records spans and counts while installed; one request at a time."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, str, int, int]] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._next_id = 0
        self._stack: list[tuple[int, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, func, spanned: bool):
        after = _AFTER.get(name)
        counts, stack = self.counts, self._stack
        calls_key, errors_key = f"{layer}.{name}_calls", f"{layer}.errors"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if not spanned:
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    if not stack or stack[-1][1] != layer:
                        counts[errors_key] += 1
                    raise
                if after:
                    after(counts, args, result)
                return result
            with self.span(layer, name):
                result = func(*args, **kwargs)
            if after:
                after(counts, args, result)
            return result

        return wrapper

    def span(self, layer: str, name: str):
        return _Span(self, layer, name)

    def install(self) -> None:
        """Wrap every binding of a traced function in the package's modules."""
        wrappers = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for layer, names in table.items():
                module = importlib.import_module(f"brokenstick.{layer}")
                for name in names:
                    func = getattr(module, name)
                    wrappers[id(func)] = self._wrap(layer, name, func, spanned)
        for layer in LAYERS:
            module = importlib.import_module(f"brokenstick.{layer}")
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def remove(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass busy time per function, self time per layer, and counts."""
        children = defaultdict(int)
        for _, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        total_ns: Counter = Counter()
        for sid, _, _, layer, name, start, end in self.spans:
            total_ns[f"{layer}.{name}_ms"] += end - start
            total_ns[f"{layer}.self_ms"] += end - start - children[sid]
        out = {key: ns / 1e6 / passes for key, ns in total_ns.items()}
        out.update({key: n / passes for key, n in self.counts.items()})
        return out

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        fields = ("id", "parent", "request", "layer", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "layer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        self.sid = self.tracer._next_id
        self.tracer._next_id += 1
        stack.append((self.sid, self.layer))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        if exc_type is not None and issubclass(exc_type, Exception):
            if self.parent is None or self.parent[1] != self.layer:
                tracer.counts[f"{self.layer}.errors"] += 1
        parent_id = self.parent[0] if self.parent else None
        tracer.spans.append(
            (self.sid, parent_id, tracer.request, self.layer, self.name, self.start, end)
        )
        return False
