"""Spans around calls into each kgd layer, installed from outside the package.

The tracer replaces module attributes and class methods with wrappers that
record a span (name, start, end, parent) and a work count taken from the
argument shapes. A function is replaced under every kgd module name that
refers to it, so calls through ``from .x import f`` are caught as well. Spans
stay in memory; ``summarize`` turns them into per-layer metrics.

A layer's self time is the duration of its spans minus the time their child
spans cover. ``calls``, ``total_s`` and work counts are taken at the outermost
span of a layer, so a mixture kernel calling its members' ``pairwise`` counts
as one call.

Which end-to-end metric each layer should move, and on which workload:

=========================  ==========================  ==============================
layer                      end-to-end metric           workload
=========================  ==========================  ==============================
models.lv_sensitivities    run_s                       lv-ode (zero elsewhere)
losses.pair_block,         run_s                       lv-ode
prefetch, solve_cache
losses.var_grad            run_s                       estimators-large, mfnn-small
kernels.pairwise           run_s, peak_rss_mb          estimators-large; must not
                                                       move run_s on mfnn-small
kernels.scalar_pairwise    run_s                       sample-matrix
kernels.profile            run_s                       estimators-large, mfnn-small
discrepancy.stein_gram,    run_s, peak_rss_mb          estimators-large; run_s on
gen_score                                              mfnn-small
samplers.step              run_s                       lv-ode, mfnn-small, sample-matrix
samplers.kgdd_grad         run_s                       mfnn-small
samplers.greedy_next       run_s                       lv-ode
samplers.trace             run_s                       sample-matrix
oracles.fd_gradient        run_s                       mfnn-small (param-VI arm)
cli.write                  run_s                       all
=========================  ==========================  ==============================
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

import numpy as np

clock = time.perf_counter

Work = Callable[..., tuple[int, ...]]


def rows(a: Any) -> int:
    shape = np.shape(a)
    return 1 if len(shape) <= 1 else int(shape[0])


def _pairs(_self, x, y, *_a, **_k) -> tuple[int, ...]:
    return (rows(x) * rows(y),)


def _kernel_pairs(_self, x, y, *_a, **_k) -> tuple[int, ...]:
    # Bytes of the result: value, trace12 (n, m) and grad1, grad2 (n, m, d).
    pairs = rows(x) * rows(y)
    return pairs, 8 * pairs * (2 * int(np.shape(x)[-1]) + 2)


def _method_points(_self, x, *_a, **_k) -> tuple[int, ...]:
    return (rows(x),)


def _var_grad_points(_self, _measure, x, *_a, **_k) -> tuple[int, ...]:
    return (rows(x),)


def _function_points(x, *_a, **_k) -> tuple[int, ...]:
    return (rows(x),)


def _gram_entries(_kernel, _ref, _loss, measure, *_a, **_k) -> tuple[int, ...]:
    return (int(measure.n) ** 2,)


def kgd_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "kgd" or name.startswith("kgd.")]


def replace_function(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap ``module.attr`` and every other kgd module name bound to it."""
    original = getattr(sys.modules[module], attr)
    wrapped = make(original)
    for mod in kgd_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def replace_methods(module: str, method: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap ``method`` on every class of ``module`` that defines it."""
    for cls in list(vars(sys.modules[module]).values()):
        if isinstance(cls, type) and cls.__module__ == module and method in vars(cls):
            setattr(cls, method, make(vars(cls)[method]))


class Tracer:
    """In-memory span recorder.

    Each span is [name, start, end, parent index, work counts]; the work
    counts come from the layer's work function, applied to the call's
    arguments.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrapper(self, name: str, work: Work | None = None) -> Callable[[Callable], Callable]:
        spans, stack = self.spans, self._stack

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                       work(*args, **kwargs) if work else ()]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()

            return traced

        return make

    def install(self) -> None:
        """Wrap every traced kgd entry point. kgd.cli must be imported."""
        w = self.wrapper
        replace_function("kgd.models", "lv_sensitivities", w("models.lv_sensitivities", _function_points))
        replace_methods("kgd.losses", "pair_block", w("losses.pair_block", _pairs))
        replace_methods("kgd.losses", "prefetch", w("losses.prefetch", _method_points))
        replace_methods("kgd.losses", "var_grad", w("losses.var_grad", _var_grad_points))
        replace_methods("kgd.kernels", "pairwise", w("kernels.pairwise", _kernel_pairs))
        replace_methods("kgd.kernels", "scalar_pairwise", w("kernels.scalar_pairwise", _pairs))
        replace_methods("kgd.kernels", "profile", w("kernels.profile"))
        replace_function("kgd.discrepancy", "stein_gram", w("discrepancy.stein_gram", _gram_entries))
        replace_function("kgd.discrepancy", "gen_score", w("discrepancy.gen_score"))
        replace_function("kgd.discrepancy", "kgd_v_squared", w("discrepancy.kgd_v_squared"))
        for fn in ("mfld_run", "vgd_run", "kgdd_run", "greedy_extend"):
            replace_function("kgd.samplers", fn, w("samplers.run"))
        for fn in ("mfld_step", "vgd_step"):
            replace_function("kgd.samplers", fn, w("samplers.step"))
        replace_function("kgd.samplers", "kgdd_grad", w("samplers.kgdd_grad"))
        replace_function("kgd.samplers", "greedy_next", w("samplers.greedy_next"))
        replace_function("kgd.oracles", "fd_gradient", w("oracles.fd_gradient"))
        for fn in ("write_csv", "write_particles", "write_meta"):
            replace_function("kgd.cli", fn, w("cli.write"))


# Layers reported with their inclusive time as well: an optimisation of these
# typically replaces the whole call tree below them.
_TOTALS = {
    "discrepancy.stein_gram", "discrepancy.gen_score", "samplers.step",
    "samplers.kgdd_grad", "samplers.greedy_next", "samplers.trace", "oracles.fd_gradient",
}
# Names of the work counts each layer's work function returns.
_WORK = {
    "models.lv_sensitivities": ("points",),
    "losses.pair_block": ("pairs",),
    "losses.prefetch": ("points_requested",),
    "losses.var_grad": ("points",),
    "kernels.pairwise": ("pairs", "bytes_computed"),
    "kernels.scalar_pairwise": ("pairs",),
    "discrepancy.stein_gram": ("entries",),
}
_LAYERS = (
    "models.lv_sensitivities", "losses.pair_block", "losses.var_grad", "kernels.pairwise",
    "kernels.scalar_pairwise", "kernels.profile", "discrepancy.stein_gram",
    "discrepancy.gen_score", "samplers.step", "samplers.kgdd_grad", "samplers.greedy_next",
    "samplers.trace", "oracles.fd_gradient", "cli.write",
)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    acc: dict[str, dict] = {}
    objective_evals = 0
    for i, (name, start, end, parent, work) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "discrepancy.kgd_v_squared":
            if parent_name == "samplers.greedy_next":
                objective_evals += 1
            if parent_name != "samplers.run":
                continue
            name = "samplers.trace"  # a discrepancy evaluated by a run, not a step
        entry = acc.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": [0] * len(work)})
        entry["self_s"] += end - start - covered[i]
        if parent_name != name:
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["work"] = [a + b for a, b in zip(entry["work"], work)]

    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": []}
    out: dict[str, float] = {}
    for layer in _LAYERS:
        entry = acc.get(layer, empty)
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.self_s"] = entry["self_s"]
        if layer in _TOTALS:
            out[f"{layer}.total_s"] = entry["total_s"]
    for layer, names in _WORK.items():
        counts = acc.get(layer, empty)["work"] or [0] * len(names)
        out.update({f"{layer}.{name}": count for name, count in zip(names, counts)})
    solver = acc.get("models.lv_sensitivities", empty)
    solves = out["models.lv_sensitivities.points"]
    requested = out["losses.prefetch.points_requested"]
    out["models.lv_sensitivities.points_per_call"] = solves / solver["calls"] if solver["calls"] else 0.0
    out["losses.solve_cache.solves"] = solves
    out["losses.solve_cache.hit_ratio"] = 1.0 - solves / requested if requested else 0.0
    out["samplers.greedy_next.objective_evals"] = objective_evals
    out["trace.spans"] = len(spans)
    return out
