"""Span tracing for the benchmark's traced run.

Wrappers are installed on the public medlattice names at the module where
each caller looks them up (``median_approx.estimate_coefficients`` for
``run`` and the harnesses, ``lattice.roots_of_unity`` for the estimator,
``experiment.run`` for the CLI, ...), plus the test-function factories, whose
oracles get traced ``evaluate`` and ``coefficient`` methods.  Nothing inside
``src/medlattice`` is edited.  Wrappers exist only while a traced pass runs;
untraced passes call the library directly.

A span is (id, name, start, end, parent id, pass id) plus a few counts taken
at the same boundary.  Spans stay in memory and are written out when the run
ends.  Tracing is single-threaded: traced passes run with ``workers=1``, so
child spans never overlap and a span's self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def _points(args, kwargs, result):
    return {"points": int(len(result))}


def _estimate_info(args, kwargs, result):
    config = args[1]
    return {"N": int(config.N), "targets": len(result)}


def _enumerate_info(args, kwargs, result):
    return {"size": len(result)}


def _evaluate_info(args, kwargs, result):
    approx = args[0]
    n = 1 if isinstance(result, float) else int(len(result))
    return {"points": n, "terms": len(approx.coefficients)}


def _select_info(args, kwargs, result):
    budget, problem, weights = args[:3]
    key = (budget.M_max, budget.delta, problem.alpha, problem.dim, tuple(weights.gammas))
    return {"key": repr(key)}


# (module attribute, span name, info function); the first part of a span
# name is the layer that owns the function
_PATCHES = (
    ("lattice", "roots_of_unity", "lattice.roots_of_unity", None),
    ("median_approx", "estimate_coefficients", "lattice.estimate_coefficients", _estimate_info),
    ("median_approx", "enumerate_hyperbolic_cross", "index_set.enumerate_hyperbolic_cross",
     _enumerate_info),
    ("median_approx", "epsilon_bound", "median_approx.epsilon_bound", None),
    ("median_approx", "run", "median_approx.run", None),
    ("median_approx", "evaluate", "median_approx.evaluate", _evaluate_info),
    ("median_approx", "save_approximation", "median_approx.save_approximation", None),
    ("median_approx", "load_approximation", "median_approx.load_approximation", None),
    ("median_approx", "verify_concentration", "median_approx.verify_concentration", None),
    ("median_approx", "verify_median_amplification", "median_approx.verify_median_amplification",
     None),
    ("params", "select_params", "params.select_params", _select_info),
    ("experiment", "select_params", "params.select_params", _select_info),
    ("experiment", "check_conditions", "params.check_conditions", None),
    ("experiment", "run", "median_approx.run", None),
    ("experiment", "exact_squared_error", "experiment.exact_squared_error", None),
    ("experiment", "emit_csv", "experiment.emit_csv", None),
    ("experiment", "run_experiment", "experiment.run_experiment", None),
    ("experiment", "main", "experiment.main", None),
)
_FACTORIES = ("test_function_f1", "test_function_f2")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, ml):
        self._ml = ml
        self.spans = []
        self._stack = []
        self._pass = None

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self._pass,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            if self._pass is None:  # an oracle made in a traced pass, called later
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self._close(span)
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _traced_factory(self, factory):
        def make(*args, **kwargs):
            f = factory(*args, **kwargs)
            f.coefficient = self.wrap("korobov.coefficient", f.coefficient)
            f.evaluate = self.wrap("korobov.evaluate", f.evaluate, _points)
            return f

        return make

    @contextmanager
    def traced_pass(self, pass_id, root):
        """Install the wrappers and record spans under ``pass_id``, inside
        one root span named ``root``; restore the library afterwards."""
        modules = {name: getattr(self._ml, name) for name in
                   ("lattice", "median_approx", "params", "experiment", "korobov")}
        saved = []
        for mod, attr, name, info in _PATCHES:
            original = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, original))
            setattr(modules[mod], attr, self.wrap(name, original, info))
        for mod in ("korobov", "experiment"):
            for attr in _FACTORIES:
                original = getattr(modules[mod], attr)
                saved.append((modules[mod], attr, original))
                setattr(modules[mod], attr, self._traced_factory(original))
        self._pass = pass_id
        span = self._open(root)
        try:
            yield
        finally:
            self._close(span)
            self._pass = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """Span id -> duration minus the summed durations of its children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def self_time_table(spans):
    """Per span name: calls and total self time, largest first."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        calls, total = rows.get(s["name"], (0, 0.0))
        rows[s["name"]] = (calls + 1, total + selfs[s["id"]])
    return sorted(((n, c, t) for n, (c, t) in rows.items()), key=lambda r: -r[2])


def layer_metrics(spans):
    """The per-layer metrics of BENCHMARK.json over the given spans.

    Every ``*_s`` figure is the self time of the named layer functions, so
    the figures of one pass partition its traced time (the rest is the
    benchmark's own code and the library code between traced calls).
    """
    selfs = self_times(spans)

    def total(*names):
        return sum(selfs[s["id"]] for s in spans if s["name"] in names)

    def of(name):
        return [s for s in spans if s["name"] == name]

    est = of("lattice.estimate_coefficients")
    est_self = total("lattice.estimate_coefficients")
    node_targets = sum(s["N"] * s["targets"] for s in est)
    selects = of("params.select_params")
    evals = of("median_approx.evaluate")
    return {
        "lattice.estimate_self_s": est_self,
        "lattice.estimate_calls": len(est),
        "lattice.targets_per_call": sum(s["targets"] for s in est) / max(len(est), 1),
        "lattice.ns_per_node_target": 1e9 * est_self / max(node_targets, 1),
        "lattice.roots_s": total("lattice.roots_of_unity"),
        "korobov.feval_s": total("korobov.evaluate"),
        "korobov.feval_points": sum(s["points"] for s in of("korobov.evaluate")),
        "korobov.coeff_s": total("korobov.coefficient"),
        "korobov.coeff_calls": len(of("korobov.coefficient")),
        "params.select_s": total("params.select_params"),
        "params.select_calls": len(selects),
        "params.select_useful_ratio": len({s["key"] for s in selects}) / max(len(selects), 1),
        "params.check_s": total("params.check_conditions"),
        "index_set.enumerate_s": total("index_set.enumerate_hyperbolic_cross"),
        "index_set.size": sum(s["size"] for s in of("index_set.enumerate_hyperbolic_cross")),
        "median_approx.run_self_s": total("median_approx.run"),
        "median_approx.evaluate_s": total("median_approx.evaluate"),
        "median_approx.evaluate_points": sum(s["points"] for s in evals),
        "median_approx.evaluate_bytes_computed": sum(16 * s["points"] * s["terms"] for s in evals),
        "median_approx.save_load_s": total(
            "median_approx.save_approximation", "median_approx.load_approximation"
        ),
        "median_approx.epsilon_s": total("median_approx.epsilon_bound"),
        "median_approx.verify_self_s": total(
            "median_approx.verify_concentration", "median_approx.verify_median_amplification"
        ),
        "experiment.exact_error_s": total("experiment.exact_squared_error"),
        "experiment.emit_csv_s": total("experiment.emit_csv"),
        "experiment.run_experiment_s": total("experiment.run_experiment"),
    }
