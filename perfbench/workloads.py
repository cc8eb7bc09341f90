"""The four benchmark workloads, their set-up and their correctness checks.

Every input a workload hands the library (master seeds, query points) is
drawn from the workload seed; the library sees only those inputs.  The
library is always reached through its module attributes
(``ml.median_approx.run``, ``ml.experiment.main``, ...) so that the traced
run's wrappers see every call.

numpy is imported inside functions only: the set-up clock starts before
``import medlattice``, which is what first loads numpy and scipy.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import threading
import time
import warnings
from math import fsum

DELTA = 0.01  # the failure-probability parameter the CLI defaults to

# Per scale, the size of each workload.  "full" is what BENCHMARK.json runs;
# "tiny" exists for perfbench/smoke.py.
SCALES = {
    "full": {
        "solve": {"function": "f1", "dim": 2, "alpha": 1.5, "M": 2**20},
        "grid": {"budgets": None},
        "query": {"function": "f2", "dim": 2, "alpha": 2.5, "M": 2**18,
                  "batch": 65536, "singles": 256},
        "verify": {"function": "f2", "dim": 1, "alpha": 2.5, "M": 2**18,
                   "trials": 200, "median_trials": 6},
    },
    "tiny": {
        "solve": {"function": "f1", "dim": 2, "alpha": 1.5, "M": 2**14},
        "grid": {"budgets": "13,14"},
        "query": {"function": "f2", "dim": 2, "alpha": 2.5, "M": 2**14,
                  "batch": 2048, "singles": 16},
        "verify": {"function": "f2", "dim": 1, "alpha": 2.5, "M": 2**12,
                   "trials": 20, "median_trials": 2},
    },
}

# Stated tolerances of the correctness gate.
SQ_ERROR_RTOL = 1e-6      # sq_error and grid errors against the recorded reference
EST_ERR_FACTOR = 10.0     # est_err_sq at most this times the largest recorded value
MSE_Z = 12.0              # sampled MSE within 1 +- MSE_Z/sqrt(n) of the Parseval error
POINT_ATOL = 1e-12        # single-point evaluate against the batch value


class CountingEval:
    """The benchmark's own f_eval: counts points under a lock, so its count
    is exact for any worker count."""

    def __init__(self, f_eval):
        self._f = f_eval
        self._lock = threading.Lock()
        self.points = 0

    def __call__(self, X):
        with self._lock:
            self.points += X.shape[0]
        return self._f(X)


def _rng(workload, seed):
    return random.Random(f"medlattice-bench/{workload}/{seed}")


def _problem(ml, cfg):
    problem = ml.korobov.SmoothnessParams(alpha=cfg["alpha"], dim=cfg["dim"])
    weights = ml.korobov.ProductWeights([1.0] * cfg["dim"])
    return problem, weights


def _oracle(ml, cfg):
    return getattr(ml.korobov, "test_function_" + cfg["function"])(cfg["dim"])


def _algorithm_params(ml, sel, master_seed, problem, weights):
    return ml.median_approx.AlgorithmParams.from_problem(
        N=sel.N_max, R=sel.R, tau=sel.tau_star,
        master_seed=master_seed, problem=problem, weights=weights,
    )


def solve(ml, cfg, master_seed, workers=1):
    """select_params -> AlgorithmParams -> run -> exact_squared_error."""
    problem, weights = _problem(ml, cfg)
    f = _oracle(ml, cfg)
    counted = CountingEval(f.evaluate)
    sel = ml.params.select_params(ml.params.BudgetSpec(cfg["M"], DELTA), problem, weights)
    ap = _algorithm_params(ml, sel, master_seed, problem, weights)
    approx = ml.median_approx.run(counted, ap, problem, weights, workers=workers)
    err = ml.experiment.exact_squared_error(f, approx)
    return {"approx": approx, "sq_error": err, "points": counted.points,
            "N": ap.N, "R": ap.R, "master_seed": master_seed}


def estimation_error_sq(f, approx):
    """sum_{h in A} |c_h - f_hat(h)|^2, the part of the error the estimator controls."""
    return fsum(abs(approx.coefficients[h] - f.coefficient(h)) ** 2
                for h in approx.index_set.indices)


def _relative_gap(value, reference):
    return abs(value - reference) / abs(reference)


def warm_up(ml, out_dir):
    """One tiny call into every library entry point the benchmark uses, so
    first-call costs land in set-up and the traced set-up reaches every
    layer.  Its inputs are fixed, not drawn from the workload seed."""
    cfg = {"function": "f2", "dim": 1, "alpha": 2.5, "M": 2**10}
    res = solve(ml, cfg, master_seed=1)
    approx = res["approx"]
    ml.median_approx.evaluate(approx, [[0.25], [0.5]])
    ml.median_approx.evaluate(approx, [0.75])
    path = os.path.join(out_dir, f"warmup-{os.getpid()}.txt")
    try:
        ml.median_approx.save_approximation(approx, path)
        ml.median_approx.load_approximation(path)
    finally:
        os.unlink(path)
    problem, weights = _problem(ml, cfg)
    f = _oracle(ml, cfg)
    ap = approx.provenance.params
    ml.median_approx.verify_concentration(f, ap, problem, weights, trials=2)
    ml.median_approx.verify_median_amplification(f, ap, problem, weights, trials=1)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        ml.experiment.main(["--function", "f2", "--dim", "1", "--budgets", "10"])


class Solve:
    """Budget -> coefficients for f1 at M_max=2^20, one fresh master seed per call."""

    def __init__(self, ml, cfg, seed, refs, out_dir):
        self.ml, self.cfg, self.refs = ml, cfg, refs
        self._rng = _rng("solve", seed)
        self._reference_f = _oracle(ml, cfg)

    def op(self):
        return solve(self.ml, self.cfg, self._rng.getrandbits(63))

    def check(self, res):
        """Violations of the gate, as strings; also adds est_err_sq to res."""
        bad = []
        expected = res["R"] * res["N"]
        if res["approx"].eval_count != expected:
            bad.append(f"eval_count {res['approx'].eval_count} != R*N {expected}")
        if res["points"] != expected:
            bad.append(f"f_eval saw {res['points']} points != R*N {expected}")
        err = res["sq_error"]
        res["est_err_sq"] = est = estimation_error_sq(self._reference_f, res["approx"])
        if not math.isfinite(err) or _relative_gap(err, self.refs["sq_error"]) > SQ_ERROR_RTOL:
            bad.append(f"sq_error {err!r} vs reference {self.refs['sq_error']!r}")
        if not math.isfinite(est) or est > EST_ERR_FACTOR * self.refs["est_err_sq_max"]:
            bad.append(f"est_err_sq {est!r} above {EST_ERR_FACTOR} x "
                       f"{self.refs['est_err_sq_max']!r}")
        return bad


class Grid:
    """The CLI budget grid 2^10..2^18 at d=2, for f1 then f2, CSV to stdout."""

    FUNCTIONS = ("f1", "f2")

    def __init__(self, ml, cfg, seed, refs, out_dir):
        # the CLI is run as users invoke it, with its own default seed; the
        # workload seed therefore changes nothing here
        self.ml, self.refs = ml, refs
        self._extra = [] if cfg["budgets"] is None else ["--budgets", cfg["budgets"]]
        self._first = None

    def op(self):
        out = {}
        for fn in self.FUNCTIONS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                rc = self.ml.experiment.main(["--function", fn, "--dim", "2"] + self._extra)
            out[fn] = (rc, stdout.getvalue())
        return out

    def check(self, res):
        bad = []
        if self._first is None:
            self._first = res
        for fn, (rc, text) in res.items():
            if rc != 0:
                bad.append(f"{fn}: exit code {rc}")
            if text != self._first[fn][1]:
                bad.append(f"{fn}: CSV differs from the first pass of this run")
            errors = [r.squared_L2_error for r in self.ml.experiment.parse_csv(text)]
            ref = self.refs["errors"][fn]
            if len(errors) != len(ref):
                bad.append(f"{fn}: {len(errors)} rows, reference has {len(ref)}")
                continue
            for got, want in zip(errors, ref):
                if (got is None) != (want is None) or (
                    got is not None and not _relative_gap(got, want) <= SQ_ERROR_RTOL
                ):
                    bad.append(f"{fn}: error {got!r} vs reference {want!r}")
        return bad


class Query:
    """Read side: batches of uniform points and single-point calls on a
    reloaded f2 approximation."""

    def __init__(self, ml, cfg, seed, refs, out_dir):
        import numpy as np

        self.ml, self.cfg, self.refs = ml, cfg, refs
        rng = _rng("query", seed)
        built = solve(ml, cfg, rng.getrandbits(63))
        path = os.path.join(out_dir, f"query-{os.getpid()}.txt")
        try:
            ml.median_approx.save_approximation(built["approx"], path)
            self.approx = ml.median_approx.load_approximation(path)
        finally:
            os.unlink(path)
        self._points = np.random.Generator(np.random.Philox(rng.getrandbits(63)))
        self._reference_f = _oracle(ml, cfg)
        self.setup_violations = []
        if self.approx.coefficients != built["approx"].coefficients:
            self.setup_violations.append("reloaded coefficients differ from the saved ones")
        self.exact = built["sq_error"]
        if _relative_gap(self.exact, refs["sq_error"]) > SQ_ERROR_RTOL:
            self.setup_violations.append(
                f"build sq_error {self.exact!r} vs reference {refs['sq_error']!r}")

    def op(self):
        """One round: a batch call, then single-point calls on the batch's
        first points; returns the call timings with the outputs."""
        X = self._points.random((self.cfg["batch"], self.cfg["dim"]))
        t0 = time.perf_counter()
        batch = self.ml.median_approx.evaluate(self.approx, X)
        batch_s = time.perf_counter() - t0
        singles, single_s = [], []
        for x in X[: self.cfg["singles"]]:
            t0 = time.perf_counter()
            singles.append(self.ml.median_approx.evaluate(self.approx, x))
            single_s.append(time.perf_counter() - t0)
        return {"X": X, "batch": batch, "batch_s": batch_s, "batch_points": len(X),
                "singles": singles, "single_s": single_s}

    def check(self, res):
        import numpy as np

        bad = []
        X, batch = res.pop("X"), res.pop("batch")
        n = len(X)
        ratio = float(np.mean((batch - self._reference_f.evaluate(X)) ** 2)) / self.exact
        res["mse_ratio"] = ratio
        if not abs(ratio - 1.0) <= MSE_Z / math.sqrt(n):
            bad.append(f"sampled MSE / Parseval error = {ratio!r} over {n} points")
        gap = max(abs(s - b) for s, b in zip(res.pop("singles"), batch))
        if not gap <= POINT_ATOL:
            bad.append(f"single-point value differs from the batch value by {gap!r}")
        return bad


class Verify:
    """verify_concentration and verify_median_amplification on f2, d=1."""

    def __init__(self, ml, cfg, seed, refs, out_dir):
        self.ml, self.cfg = ml, cfg
        self._rng = _rng("verify", seed)
        self.problem, self.weights = _problem(ml, cfg)
        self.sel = ml.params.select_params(
            ml.params.BudgetSpec(cfg["M"], DELTA), self.problem, self.weights)

    def op(self):
        ml, cfg = self.ml, self.cfg
        f = _oracle(ml, cfg)
        ap = _algorithm_params(ml, self.sel, self._rng.getrandbits(63), self.problem, self.weights)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single = ml.median_approx.verify_concentration(
                f, ap, self.problem, self.weights, trials=cfg["trials"])
            median = ml.median_approx.verify_median_amplification(
                f, ap, self.problem, self.weights, trials=cfg["median_trials"])
        return {"single": single, "median": median, "warnings": len(caught)}

    def check(self, res):
        bad = []
        for r in res["single"]:
            if r.vacuous:
                bad.append(f"single-estimate bound {r.bound!r} is vacuous at h={r.h.components}")
            elif r.rate > r.bound:
                bad.append(f"h={r.h.components}: exceedance {r.rate!r} > bound {r.bound!r}")
        res["single_rate_max"] = max(r.rate for r in res["single"])
        res["single_bound"] = res["single"].results[0].bound
        res["median_bound"] = res["median"].results[0].bound
        res["median_failures"] = sum(r.failures for r in res["median"])
        del res["single"], res["median"]
        return bad


WORKLOADS = {"solve": Solve, "grid": Grid, "query": Query, "verify": Verify}
