"""Span tracer for the sqfn benchmark: per-layer calls and self time.

The tracer wraps public functions of the sqfn layers from outside the
package.  A module-level function is replaced in every namespace that
bound it (``sqfn.verify.g_star`` and ``sqfn.cli.area_integral`` are
separate bindings of one function object), and a method is replaced on
its class.  Every call records a span (target, start, end, parent) in
memory; ``metrics`` turns the spans of one pass into calls and self time
per metric name, where self time is the span's duration minus the time
its child spans cover.  The tracer keeps one span stack, so it assumes
the single-threaded runs the benchmark makes (``run.workers = 1``).
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkout import BENCH_DIR  # imports sqfn from the checkout
from sqfn import (cli, decomp, grid, kernelbounds, multipliers, spectral,
                  squarefuncs, verify, weights)

LAYERS = ("grid", "multipliers", "spectral", "squarefuncs", "weights",
          "decomp", "kernelbounds", "verify", "cli")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.attr`` reported under ``metric``."""

    metric: str
    owner: object
    attr: str

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]


def _targets() -> list:
    lt, ho = spectral.LaplacianTorus, spectral.HermiteOscillator1D
    table = [
        ("multipliers.FourierBump", multipliers.FourierBump, "__call__"),
        ("multipliers.clenshaw_curtis", multipliers, "clenshaw_curtis"),
        ("multipliers.kappa", multipliers, "kappa"),
        ("spectral.LaplacianTorus.apply_function", lt, "apply_function"),
        ("spectral.HermiteOscillator1D.apply_function", ho, "apply_function"),
        ("spectral.coefficients", ho, "coefficients"),
        ("spectral.gradient", lt, "gradient"),
        ("spectral.gradient", ho, "gradient"),
        ("spectral.kernel_profile", lt, "kernel_profile"),
        ("spectral.kernel_matrix", lt, "kernel_matrix"),
        ("spectral.kernel_matrix", lt, "kernel_gradient_matrix"),
        ("spectral.kernel_matrix", ho, "kernel_matrix"),
        ("spectral.kernel_matrix", ho, "kernel_gradient_matrix"),
        ("spectral.fit_gaussian_bound", spectral, "fit_gaussian_bound"),
        ("spectral.init", lt, "__init__"),
        ("spectral.init", ho, "__init__"),
        ("squarefuncs.area_integral", squarefuncs, "area_integral"),
        ("squarefuncs.g_function", squarefuncs, "g_function"),
        ("squarefuncs.g_star", squarefuncs, "g_star"),
        ("weights.maximal", weights, "maximal"),
        ("weights.local_sharp_maximal", weights, "local_sharp_maximal"),
        ("weights.ap_constant", weights, "ap_constant"),
        ("weights.rubio_de_francia", weights, "rubio_de_francia"),
        ("weights.empirical_maximal_norm", weights, "empirical_maximal_norm"),
        ("decomp.whitney", decomp, "whitney"),
        ("decomp.cz_decomposition", decomp, "cz_decomposition"),
        ("kernelbounds.sweep", kernelbounds, "sweep"),
        ("grid.GridFunction", grid.GridFunction, "__post_init__"),
        ("cli", cli, "main"),
    ]
    table += [("grid.norms", grid, name) for name in
              ("lp_norm", "weighted_lp_norm", "weighted_superlevel_measure")]
    table += [("verify.families", verify, name) for name in
              ("mixed_family", "resolved_family", "band_limited_family",
               "weight_suite", "power_weight_family")]
    table += [("verify.checks", verify, name) for name in
              ("check_spectral_identity", "check_weighted_l2_mw",
               "check_weak_1_1", "check_lp_range",
               "check_pointwise_domination", "check_growth_in_p",
               "check_growth_in_ap", "check_sharp_maximal_domination",
               "check_sharp_composite")]
    return [Target(*row) for row in table]


TARGETS = _targets()
SPAN_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))

# Counters beside calls and self time: (metric, unit).
COUNTERS = (
    ("multipliers.FourierBump.points", "count"),
    ("squarefuncs.time_nodes", "count"),
    ("verify.sq_evals", "count"),
    ("verify.sq_evals_per_pair", "ratio"),
)


def _time_nodes(bound) -> int:
    """T of the TimeGrid a square-function call integrates over."""
    args = bound.arguments
    if "cone" in args:
        return args["cone"].times.count
    return args["times"].count


_COUNTING = {
    ("multipliers.FourierBump", "__call__"):
        ("multipliers.FourierBump.points", lambda b: int(np.size(b.arguments["s"]))),
    ("squarefuncs.area_integral", "area_integral"):
        ("squarefuncs.time_nodes", _time_nodes),
    ("squarefuncs.g_function", "g_function"):
        ("squarefuncs.time_nodes", _time_nodes),
    ("squarefuncs.g_star", "g_star"):
        ("squarefuncs.time_nodes", _time_nodes),
}


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    for layer in LAYERS:
        units.setdefault(f"{layer}.self_s", "s")
    return units


def _namespaces():
    """Modules whose globals may hold a binding of a wrapped function."""
    for name, mod in list(sys.modules.items()):
        if name == "sqfn" or name.startswith("sqfn."):
            yield mod
            continue
        path = getattr(mod, "__file__", None)
        if path and Path(path).resolve().parent == BENCH_DIR and mod is not sys.modules[__name__]:
            yield mod


def patch_everywhere(owner, attr: str, replacement) -> list:
    """Bind ``replacement`` wherever ``owner.attr`` is bound; returns undo records.

    A class attribute is replaced on the class.  A module function is
    replaced in every namespace whose binding is the same object, so a
    ``from module import name`` elsewhere cannot bypass the wrapper.
    """
    if isinstance(owner, type):
        undo = [(owner, attr, owner.__dict__[attr])]
        setattr(owner, attr, replacement)
        return undo
    current = getattr(owner, attr)
    undo = []
    for mod in _namespaces():
        for key, value in list(vars(mod).items()):
            if value is current:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


def unpatch(undo: list):
    for owner, key, value in reversed(undo):
        setattr(owner, key, value)


class Tracer:
    """Wraps the layer targets while installed and records spans in memory."""

    def __init__(self):
        self.spans = []       # [target index, start, end, parent span index]
        self.counters = {}
        self._stack = []
        self._undo = []
        self._pairs = {}      # (id(T), id(f)) -> (T, f), kept alive so ids stay unique

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(TARGETS):
            original = getattr(target.owner, target.attr)
            wrapper = self._wrap(index, target, original)
            self._undo += patch_everywhere(target.owner, target.attr, wrapper)
        factory = verify.square_function_operator
        self._undo += patch_everywhere(verify, "square_function_operator",
                                       self._wrap_factory(factory))

    def uninstall(self):
        unpatch(self._undo)
        self._undo = []

    def reset(self):
        """Drop the spans and counters of the previous pass."""
        self.spans = []
        self.counters = {}
        self._pairs = {}

    def _wrap(self, index: int, target: Target, original):
        stack = self._stack
        clock = time.perf_counter
        counting = _COUNTING.get((target.metric, target.attr))
        signature = inspect.signature(original) if counting else None

        def traced(*args, **kwargs):
            if counting:
                name, count = counting
                value = count(signature.bind(*args, **kwargs))
                self.counters[name] = self.counters.get(name, 0) + value
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = original
        return traced

    def _wrap_factory(self, factory):
        """Count evaluations of the callables square_function_operator returns."""

        def traced_factory(*args, **kwargs):
            T = factory(*args, **kwargs)

            def counted(f):
                self.counters["verify.sq_evals"] = self.counters.get("verify.sq_evals", 0) + 1
                self._pairs.setdefault((id(T), id(f)), (T, f))
                return T(f)

            return counted

        traced_factory.__wrapped__ = factory
        return traced_factory

    # -- reporting ------------------------------------------------------------

    def target_calls(self) -> list:
        """Number of spans recorded for each entry of TARGETS."""
        calls = [0] * len(TARGETS)
        for span in self.spans:
            calls[span[0]] += 1
        return calls

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {name: 0.0 for name in metric_units()}
        for span, covered in zip(self.spans, child):
            target = TARGETS[span[0]]
            self_s = (span[2] - span[1]) - covered
            out[f"{target.metric}.calls"] += 1
            out[f"{target.metric}.self_s"] += self_s
            if target.metric != target.layer:
                out[f"{target.layer}.self_s"] += self_s
        for name, _unit in COUNTERS:
            out[name] = self.counters.get(name, 0)
        pairs = len(self._pairs)
        out["verify.sq_evals_per_pair"] = out["verify.sq_evals"] / pairs if pairs else 0.0
        return out

    def span_rows(self) -> list:
        """Spans as (name, start, end, parent) rows, for writing out."""
        return [(TARGETS[i].metric, start, end, parent)
                for i, start, end, parent in self.spans]
