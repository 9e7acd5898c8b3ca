"""Span recorder for the traced run.

The recorder replaces public functions at the module attributes their
callers go through (for example ``threshcov.coverage.integrate_halfline``,
which is the name ``unknown_coverage`` calls) with wrappers that record a
span: name, start, end, parent span and task id, plus a work count such as
the number of draws or integrand points.  The ``integrate_halfline`` wrapper
also wraps the integrand it receives, so each vectorized quadrature round is
a span of its own.  Spans stay in memory until the run writes them out.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import threshcov


def _size(arg) -> int:
    return int(np.size(arg))


def _reps_drawn(plan, start=0, stop=None) -> int:
    return (plan.reps if stop is None else stop) - start


# (module attribute, span name, work count from the call's arguments).
# Each public function is wrapped at every module binding a caller uses.
_TARGETS = [
    ("coverage.integrate_halfline", "special.integrate_halfline", None),
    ("finite_sample.integrate_halfline", "special.integrate_halfline", None),
    ("limits.integrate_halfline", "special.integrate_halfline", None),
    ("coverage.find_root", "special.find_root", None),
    ("simulate.chi_sq_quantile", "special.chi_sq_quantile", lambda p, m: _size(p)),
    ("simulate.std_normal_quantile", "special.std_normal_quantile", _size),
    ("simulate.uniform_field", "simulate.uniform_field",
     lambda seed, start, count: int(count)),
    ("simulate.component_draws", "simulate.component_draws", _reps_drawn),
    ("simulate.simulate_coverage", "simulate.simulate_coverage",
     lambda plan, kind, spec: plan.reps),
    ("simulate.simulate_scaled_error_ecdf", "simulate.simulate_scaled_error_ecdf",
     lambda plan, kind, alpha, grid: plan.reps),
    ("simulate.simulate_coverage_full", "simulate.full_path", None),
    ("simulate.compute_xi_all", "model.compute_xi_all", None),
    ("simulate.kernel", "estimators.kernel", lambda kind, z, t: _size(z)),
    ("finite_sample.tilde_cdf", "finite_sample.tilde_cdf", None),
    ("limits.tilde_cdf", "finite_sample.tilde_cdf", None),
    ("finite_sample.tilde_density", "finite_sample.tilde_density", None),
    ("coverage.unknown_coverage", "coverage.unknown_coverage", None),
    ("cli.unknown_coverage", "coverage.unknown_coverage", None),
    ("coverage.min_coverage_search", "coverage.min_coverage_search", None),
    ("cli.min_coverage_search", "coverage.min_coverage_search", None),
    ("coverage.solve_unknown_half_length", "coverage.solve_unknown_half_length", None),
    ("cli.solve_unknown_half_length", "coverage.solve_unknown_half_length", None),
    ("limits.conservative_limit_cdf", "limits.conservative_limit_cdf", None),
    ("cli.weak_convergence_gaps", "limits.weak_convergence_gaps", None),
]
_CLI_COMMANDS = ("table1", "figure", "coverage_curve", "interval", "limit_check")

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, TASK, COUNT = range(6)


class Recorder:
    """Holds spans in memory; install() patches the library, uninstall()
    restores every original attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.task_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count=None, wrap_integrand=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if wrap_integrand:
                args = (self._wrap("special.integrand", args[0], _size), *args[1:])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task_id,
                    count(*args, **kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            return result

        return wrapper

    def install(self):
        for target, name, count in _TARGETS:
            module_name, attr = target.split(".")
            module = getattr(threshcov, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(
                name, original, count,
                wrap_integrand=(name == "special.integrate_halfline")))
        commands = threshcov.cli._COMMANDS
        for cmd in _CLI_COMMANDS:
            self._saved.append((commands, cmd, commands[cmd]))
            commands[cmd] = self._wrap(f"cli.{cmd}", commands[cmd])

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, task, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task,
                                     "count": count}) + "\n")


def layer_totals(spans):
    """Per span name: calls, inclusive seconds, self seconds, work count."""
    child = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for i, span in enumerate(spans):
        t = totals[span[NAME]]
        dur = span[END] - span[START]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child[i]
        t["count"] += span[COUNT]
    return totals


def _evals_in_searches(spans) -> int:
    """unknown_coverage spans that run inside a min_coverage_search span."""
    evals = 0
    for span in spans:
        if span[NAME] != "coverage.unknown_coverage":
            continue
        parent = span[PARENT]
        while parent >= 0:
            if spans[parent][NAME] == "coverage.min_coverage_search":
                evals += 1
                break
            parent = spans[parent][PARENT]
    return evals


def per_layer_metrics(spans, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
    t = layer_totals(spans)

    def ms(name):
        return t[name]["s"] * 1e3

    def ns_per(name):
        n = t[name]["count"]
        return t[name]["s"] * 1e9 / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    integrals = t["special.integrate_halfline"]["calls"]
    served = (t["simulate.simulate_coverage"]["count"]
              + t["simulate.simulate_scaled_error_ecdf"]["count"])
    drawn = t["simulate.component_draws"]["count"]
    searches = t["coverage.min_coverage_search"]["calls"]
    metrics = {
        "special.integrate_halfline.calls": (integrals, "count"),
        "special.integrate_halfline.self_ms":
            (t["special.integrate_halfline"]["self_s"] * 1e3, "ms"),
        "special.integrand.rounds": (t["special.integrand"]["calls"], "count"),
        "special.integrand.points": (t["special.integrand"]["count"], "count"),
        "special.integrand.ms": (ms("special.integrand"), "ms"),
        "special.points_per_integral":
            (ratio(t["special.integrand"]["count"], integrals), "count"),
        "special.find_root.calls": (t["special.find_root"]["calls"], "count"),
        "special.find_root.ms": (ms("special.find_root"), "ms"),
        "special.chi_sq_quantile.ns_per_draw": (ns_per("special.chi_sq_quantile"), "ns"),
        "special.std_normal_quantile.ns_per_draw":
            (ns_per("special.std_normal_quantile"), "ns"),
        "simulate.uniform_field.ns_per_uniform": (ns_per("simulate.uniform_field"), "ns"),
        "simulate.component_draws.ms": (ms("simulate.component_draws"), "ms"),
        "simulate.reps_drawn": (drawn, "count"),
        "simulate.cell_reps_served": (served, "count"),
        "simulate.draw_reuse": (ratio(served, drawn), "ratio"),
        "simulate.full_path.self_ms": (t["simulate.full_path"]["self_s"] * 1e3, "ms"),
        "model.compute_xi_all.ms": (ms("model.compute_xi_all"), "ms"),
        "estimators.kernel.ns_per_value": (ns_per("estimators.kernel"), "ns"),
        "finite_sample.tilde_cdf.calls": (t["finite_sample.tilde_cdf"]["calls"], "count"),
        "finite_sample.tilde_cdf.ms": (ms("finite_sample.tilde_cdf"), "ms"),
        "finite_sample.tilde_density.calls":
            (t["finite_sample.tilde_density"]["calls"], "count"),
        "finite_sample.tilde_density.ms": (ms("finite_sample.tilde_density"), "ms"),
        "coverage.unknown_coverage.calls":
            (t["coverage.unknown_coverage"]["calls"], "count"),
        "coverage.unknown_coverage.ms": (ms("coverage.unknown_coverage"), "ms"),
        "coverage.min_coverage_search.ms": (ms("coverage.min_coverage_search"), "ms"),
        "coverage.min_coverage_search.evals_per_search":
            (ratio(_evals_in_searches(spans), searches), "count"),
        "coverage.solve_unknown_half_length.ms":
            (ms("coverage.solve_unknown_half_length"), "ms"),
        "limits.conservative_limit_cdf.calls":
            (t["limits.conservative_limit_cdf"]["calls"], "count"),
        "limits.weak_convergence_gaps.ms": (ms("limits.weak_convergence_gaps"), "ms"),
    }
    for cmd in _CLI_COMMANDS:
        metrics[f"cli.{cmd}.ms"] = (ms(f"cli.{cmd}"), "ms")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics
