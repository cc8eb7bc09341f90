"""
Acceptance suite for the benchmark.  Each check prints one verdict line
(PASS/FAIL, with the measured numbers) straight to the terminal so the
outcome can be read off a plain pytest run; the assert fires after the
line is printed, so failures stay visible too.

Checks that depend on a bound being non-vacuous print a NOTICE and fall
back to a setting where the bound is informative instead of silently
passing.
"""

import bisect
import math
import os
import time
from math import log

import numpy as np
import pytest

from medlattice import (
    BudgetSpec,
    ExperimentConfig,
    ProductWeights,
    SmoothnessParams,
    bound_basic,
    bound_min_q,
    bound_refined,
    compute_Nstar,
    corollary_cap,
    cosine_pair_oracle,
    enumerate_hyperbolic_cross,
    evaluate,
    exact_squared_error,
    fit_rate,
    is_prime,
    run,
    run_experiment,
    select_params,
    tau_roots,
    verify_concentration,
    verify_median_amplification,
)
from medlattice import test_function_f2 as function_f2
from medlattice.experiment import emit_csv
from medlattice.median_approx import AlgorithmParams
from medlattice.params import _find_Nmax, _prev_prime, log_PN

FOUR_E = 4.0 * math.e
GRID = tuple(2**e for e in range(10, 19))
# The f2 error-vs-N_star rate check alone runs to 2^22.  On GRID, f2's five
# runnable budgets reach N_star 1.3..10.3 only; there the error equals the
# exact truncation error of the index set, which still drops in jumps as
# single modes such as (+-2, +-2) enter, and fixes the slope near -1.92.  The
# N_star^{-alpha} rate sets in just above GRID.  The grid extends GRID upward
# only, so its first nine budgets keep their budget indices, master seeds and
# records.
F2_RATE_GRID = tuple(2**e for e in range(10, 23))

D2_F1 = SmoothnessParams(1.5, 2)
D2_F2 = SmoothnessParams(2.5, 2)
D1_F2 = SmoothnessParams(2.5, 1)
W2 = ProductWeights([1.0, 1.0])
W1 = ProductWeights([1.0])


def _verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n  {label}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _notice(capsys, label, detail):
    with capsys.disabled():
        print(f"\n  {label}: NOTICE  {detail}")


def _slow(exponent, wall):
    """A parameter that runs only when MEDLATTICE_SLOW=1; ``wall`` is its
    measured time."""
    return pytest.param(exponent, marks=pytest.mark.skipif(
        os.environ.get("MEDLATTICE_SLOW") != "1",
        reason=f"about {wall} on a 2-core machine; set MEDLATTICE_SLOW=1 to run",
    ))


def _usable(records):
    return [r for r in records if r.feasible and r.squared_L2_error and r.squared_L2_error > 0]


@pytest.fixture(scope="module")
def f1_records():
    cfg = ExperimentConfig(function="f1", dim=2, budgets=GRID, seed=20240801)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def f2_records():
    cfg = ExperimentConfig(function="f2", dim=2, budgets=GRID, seed=20240802)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def f2_rate_records():
    # records do not depend on the worker count (check 10); the whole grid
    # takes well under a second, and two workers only trim it (medians of
    # six runs on a 2-core Xeon: 0.54 s with one worker, 0.42 s with two)
    cfg = ExperimentConfig(function="f2", dim=2, budgets=F2_RATE_GRID, seed=20240802, workers=2)
    return run_experiment(cfg)


class TestErrorDecayVsNstar:
    """L2 error against the truncation radius N_star over the budget grid."""

    def _fit(self, records):
        usable = _usable(records)
        errs = [math.sqrt(r.squared_L2_error) for r in usable]
        return fit_rate(list(zip((r.N_star for r in usable), errs)))

    def test_1_kink_product(self, f1_records, capsys):
        """alpha = 3/2: slope vs N_star at most -alpha + 0.35, R^2 >= 0.9."""
        fit = self._fit(f1_records)
        ok = fit.slope <= -1.5 + 0.35 and fit.r_squared >= 0.9
        assert _verdict(
            capsys, ok, "1 error vs N_star (f1)",
            f"slope {fit.slope:+.4f} (need <= -1.15), R^2 {fit.r_squared:.4f} (need >= 0.9)",
        )

    def test_1_polynomial_sine(self, f2_rate_records, capsys):
        """alpha = 5/2: slope vs N_star at most -alpha + 0.35, R^2 >= 0.9,
        fitted over every runnable budget of 2^10..2^22.

        The rate is asymptotic, so this one check fits up to 2^22 (see
        F2_RATE_GRID): over 2^10..2^18 alone the slope is -1.924, and it is
        the slope of f2's exact truncation error at N_star <= 10.3, which no
        estimator on those index sets could beat.  One NOTICE per budget
        splits the squared error into its truncation part,
        ||f||^2 - sum_A |f_hat|^2, and the estimation part, the rest; one
        more prints the 2^10..2^18 fit.  The notices gate nothing.
        """
        f2 = function_f2(2)
        for r in _usable(f2_rate_records):
            cross = enumerate_hyperbolic_cross(r.N_star, D2_F2, W2)
            trunc = f2.l2_norm_sq - math.fsum(abs(f2.coefficient(h)) ** 2 for h in cross.indices)
            _notice(
                capsys, "1 f2 error split",
                f"M_max=2^{r.M_max.bit_length() - 1} N_star={r.N_star:.2f} |A|={len(cross)}: "
                f"truncation {trunc:.3e}, estimation {r.squared_L2_error - trunc:+.1e}",
            )
        early = self._fit([r for r in f2_rate_records if r.M_max <= GRID[-1]])
        _notice(
            capsys, "1 f2 pre-asymptotic fit",
            f"2^10..2^18 alone: slope {early.slope:+.4f}, R^2 {early.r_squared:.4f} "
            "(the error there is the truncation error of the index sets)",
        )
        fit = self._fit(f2_rate_records)
        ok = fit.slope <= -2.5 + 0.35 and fit.r_squared >= 0.9
        assert _verdict(
            capsys, ok, "1 error vs N_star (f2)",
            f"slope {fit.slope:+.4f} (need <= -2.15), R^2 {fit.r_squared:.4f} (need >= 0.9)",
        )


class TestErrorDecayVsBudget:
    """L2 error against the total evaluation count M."""

    def test_2_slope_bands(self, f1_records, f2_records, capsys):
        ok = True
        details = []

        usable1 = _usable(f1_records)
        errs1 = [math.sqrt(r.squared_L2_error) for r in usable1]
        fit1 = fit_rate(list(zip((r.M for r in usable1), errs1)))
        band1 = (-1.5 - 0.2, -0.75 + 0.1)
        ok1 = band1[0] <= fit1.slope <= band1[1] and abs(fit1.slope + 1.125) <= 0.4
        ok &= ok1
        details.append(
            f"f1 slope {fit1.slope:+.4f} in [{band1[0]:.2f}, {band1[1]:.2f}]"
            f" and within 0.4 of -1.125"
        )

        # early budgets sit outside the asymptotic regime for the smoother
        # function, so only the upper half of the grid enters its fit
        upper = [r for r in _usable(f2_records) if r.M_max >= 2**14]
        errs2 = [math.sqrt(r.squared_L2_error) for r in upper]
        fit2 = fit_rate(list(zip((r.M for r in upper), errs2)))
        band2 = (-2.5 - 0.2, -1.25 + 0.1)
        ok2 = band2[0] <= fit2.slope <= band2[1]
        ok &= ok2
        details.append(f"f2 upper-half slope {fit2.slope:+.4f} in [{band2[0]:.2f}, {band2[1]:.2f}]")

        assert _verdict(capsys, ok, "2 error vs budget", "; ".join(details))


class TestCardinalityBoundSuite:
    def test_3_bounds_dominate_cardinality(self, capsys):
        """150 random (alpha, gamma, L) draws in d <= 3: the enumerated
        cardinality never exceeds any of the three bounds or the prime cap."""
        rng = np.random.default_rng(20240803)
        checks = violations = 0
        for d in (1, 2, 3):
            for _ in range(50):
                alpha = float(rng.uniform(0.6, 3.0))
                gam = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
                if rng.random() < 0.3:
                    gam[0] = 1.0
                L = float(rng.uniform(1.0, 40.0))
                p = SmoothnessParams(alpha, d)
                w = ProductWeights(gam.tolist())
                card = len(enumerate_hyperbolic_cross(L, p, w))
                for tau in (0.1, 0.5, 1.0, 2.0):
                    checks += 1
                    violations += card > bound_basic(L, tau, p, w) * (1 + 1e-9)
                checks += 1
                violations += card > bound_min_q(L, p, w, q_grid=[1.1, 1.5, 2.0, 3.0]) * (1 + 1e-9)
                if L >= 2.0:
                    checks += 1
                    violations += card > bound_refined(L, p, w) * (1 + 1e-9)
                N = _prev_prime(int(rng.integers(50, 5000)))
                tau = float(rng.uniform(0.1, 2.0))
                ns = compute_Nstar(tau, p, w, N)
                if ns >= 1.0:
                    checks += 1
                    violations += len(enumerate_hyperbolic_cross(ns, p, w)) > corollary_cap(
                        N, tau, ns
                    ) * (1 + 1e-9)
        assert _verdict(
            capsys, violations == 0, "3 cardinality bounds",
            f"{violations} violations in {checks} checks (150 draws, d in {{1,2,3}})",
        )


def _spec_setting_vacuous():
    """The N = 101, d = 2 concentration setting: N_star < 1 there, so the
    single-estimate bound is vacuous and the run constructor refuses."""
    sel = select_params(BudgetSpec(1520, 0.01), D2_F2, W2)
    assert sel.N_max == 101
    denom = 1.0 + sel.tau_star * log(sel.N_star)
    bound = (1.0 + sel.tau_star) / denom if denom > 0 else math.inf
    return sel, bound


class TestConcentration:
    def test_4_single_estimate_exceedance(self, capsys):
        """Exceedance of epsilon(h)^2 stays under the analytic bound + 3 sigma
        (2000 trials); the d = 2, N = 101 setting is vacuous and says so."""
        sel, bound = _spec_setting_vacuous()
        assert sel.N_star < 1.0 and bound >= 1.0
        _notice(
            capsys, "4 concentration",
            f"d=2 N=101 setting skipped: N_star={sel.N_star:.3f} < 1, "
            f"bound {bound:.1f} >= 1 (vacuous); checking d=1 N=241 instead",
        )
        sel1 = select_params(BudgetSpec(2**12, 0.01), D1_F2, W1)
        params = AlgorithmParams.from_problem(
            N=sel1.N_max, R=sel1.R, tau=sel1.tau_star,
            master_seed=42, problem=D1_F2, weights=W1,
        )
        report = verify_concentration(function_f2(1), params, D1_F2, W1, trials=2000)
        ok = True
        worst = 0.0
        for probe in report:
            assert not probe.vacuous
            sigma = math.sqrt(probe.bound * (1.0 - probe.bound) / probe.trials)
            ok &= probe.rate <= probe.bound + 3.0 * sigma
            worst = max(worst, probe.rate)
        probes = list(report)
        assert _verdict(
            capsys, ok, "4 concentration (d=1 supplement)",
            f"N={sel1.N_max}, {len(probes)} probes, worst rate {worst:.4f} "
            f"vs bound {probes[0].bound:.4f} + 3sigma",
        )

    def test_5_median_amplification(self, capsys):
        """Exceedance of 2*epsilon(h)^2 by the R-fold median is non-increasing
        in R; the amplified bound is compared whenever it is below one."""
        sel, _ = _spec_setting_vacuous()
        _notice(
            capsys, "5 amplification",
            f"d=2 N=101 setting skipped: N_star={sel.N_star:.3f} < 1 "
            "(parameters unconstructible); checking d=1 N=241 instead",
        )
        sel1 = select_params(BudgetSpec(2**12, 0.01), D1_F2, W1)
        rates = {}
        bounds = {}
        for R in (1, 3, 5):
            params = AlgorithmParams.from_problem(
                N=sel1.N_max, R=R, tau=sel1.tau_star,
                master_seed=42, problem=D1_F2, weights=W1,
            )
            report = verify_median_amplification(function_f2(1), params, D1_F2, W1, trials=200)
            probes = list(report)
            rates[R] = [p.rate for p in probes]
            bounds[R] = [p.bound for p in probes]
        ok = True
        for i in range(len(rates[1])):
            ok &= rates[1][i] >= rates[3][i] >= rates[5][i]
        informative = 0
        for R in (1, 3, 5):
            for i, b in enumerate(bounds[R]):
                if b < 1.0:
                    informative += 1
                    ok &= rates[R][i] <= b + 3.0 * math.sqrt(b * (1.0 - b) / 200)
        note = "" if informative else " (amplified bounds >= 1 at all R here; only monotonicity binds)"
        assert _verdict(
            capsys, ok, "5 amplification (d=1 supplement)",
            f"rates R=1:{rates[1]} R=3:{rates[3]} R=5:{rates[5]}{note}",
        )


    @pytest.mark.parametrize("exponent", [_slow(22, "10 s"), _slow(24, "41 s")])
    def test_5_amplified_bound_where_informative(self, capsys, exponent):
        """Exceedance of 2*epsilon(h)^2 by the R-fold median stays under the
        amplified bound + 3 sigma (200 trials) at d=1, M=2^22 (N=143687,
        R=29, bound 0.186) and M=2^24 (N=527741, R=31, bound 0.021), where
        that bound is below one, unlike the N=241 setting of the check
        above."""
        sel = select_params(BudgetSpec(2**exponent, 0.01), D1_F2, W1)
        params = AlgorithmParams.from_problem(
            N=sel.N_max, R=sel.R, tau=sel.tau_star,
            master_seed=42, problem=D1_F2, weights=W1,
        )
        start = time.perf_counter()
        report = verify_median_amplification(function_f2(1), params, D1_F2, W1, trials=200)
        wall = time.perf_counter() - start
        probes = list(report)
        ok = True
        for probe in probes:
            assert not probe.vacuous
            sigma = math.sqrt(probe.bound * (1.0 - probe.bound) / probe.trials)
            ok &= probe.rate <= probe.bound + 3.0 * sigma
        assert _verdict(
            capsys, ok, f"5 amplification (d=1, 2^{exponent})",
            f"N={params.N}, R={params.R}, rates {[p.rate for p in probes]} "
            f"vs bound {probes[0].bound:.4f} + 3sigma, {wall:.0f} s",
        )


class TestExactModeRecovery:
    def test_6_cosine_pairs_recovered(self, capsys):
        """20 random in-set cosine pairs: both coefficients 1/2 to 1e-10 and
        exact squared error at most 1e-18."""
        sel = select_params(BudgetSpec(2**16, 0.01), D2_F1, W2)
        cross = enumerate_hyperbolic_cross(sel.N_star, D2_F1, W2)
        nonzero = [h for h in cross.indices if any(h)]
        rng = np.random.default_rng(20240806)
        picks = rng.choice(len(nonzero), size=20, replace=False)
        worst_coeff = worst_err = 0.0
        for i, k in enumerate(picks):
            h0 = nonzero[int(k)]
            f = cosine_pair_oracle(h0)
            params = AlgorithmParams.from_problem(
                N=sel.N_max, R=sel.R, tau=sel.tau_star,
                master_seed=1000 + i, problem=D2_F1, weights=W2,
            )
            approx = run(f.evaluate, params, D2_F1, W2)
            dev = max(
                abs(approx.coefficients[h0] - 0.5), abs(approx.coefficients[-h0] - 0.5)
            )
            worst_coeff = max(worst_coeff, dev)
            worst_err = max(worst_err, exact_squared_error(f, approx))
        ok = worst_coeff <= 1e-10 and worst_err <= 1e-18
        assert _verdict(
            capsys, ok, "6 exact-mode recovery",
            f"N={sel.N_max}, |A|={len(cross)}: worst coeff dev {worst_coeff:.2e} "
            f"(<= 1e-10), worst sq err {worst_err:.2e} (<= 1e-18)",
        )


class TestParsevalCrosscheck:
    def test_7_exact_error_vs_quadrature(self, capsys):
        """d = 1: the Parseval error formula matches rectangle-rule
        integration of the squared residual to relative 1e-4."""
        sel = select_params(BudgetSpec(2**13, 0.01), D1_F2, W1)
        f = function_f2(1)
        params = AlgorithmParams.from_problem(
            N=sel.N_max, R=sel.R, tau=sel.tau_star,
            master_seed=20240807, problem=D1_F2, weights=W1,
        )
        approx = run(f.evaluate, params, D1_F2, W1)
        e_exact = exact_squared_error(f, approx)
        n = 2**16
        X = (np.arange(n) / n).reshape(-1, 1)
        resid = f.evaluate(X) - evaluate(approx, X)
        e_num = float(np.mean(resid**2))
        rel = abs(e_exact - e_num) / e_num
        assert _verdict(
            capsys, rel <= 1e-4, "7 Parseval crosscheck",
            f"exact {e_exact:.6e} vs {n}-point quadrature {e_num:.6e}, rel dev {rel:.2e}",
        )


def _numeric_S(tau, params, weights, N):
    h = 1e-6 * tau
    return tau * (log_PN(tau + h, params, weights, N) - log_PN(tau - h, params, weights, N)) / (2 * h)


class TestParameterMachinery:
    def test_8_roots_sweep_and_Nmax_scan(self, capsys):
        ok = True
        details = []

        # root residuals and the tau_star > 1/d sweep
        worst_resid = 0.0
        for d in range(1, 11):
            p = SmoothnessParams(1.5, d)
            w = ProductWeights([1.0] * d)
            for N in (101, 10007, 1000003):
                r = tau_roots(N, p, w)
                worst_resid = max(
                    worst_resid,
                    abs(-FOUR_E / r.tau0 + _numeric_S(r.tau0, p, w, N)),
                    abs(-1.0 / r.tau0_prime + _numeric_S(r.tau0_prime, p, w, N)),
                )
                tau_star = r.tau0_prime if not r.feasible else max(r.tau0_prime, r.tau1)
                ok &= tau_star > 1.0 / d
        ok &= worst_resid <= 1e-8
        details.append(f"worst root residual {worst_resid:.1e} (<= 1e-8), tau_star > 1/d for d <= 10")

        # large-N ratios against the dimension asymptotics at d = 2
        r = tau_roots(1000003, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        ratio0 = r.tau0 / (FOUR_E / 2)
        ratio0p = r.tau0_prime / (1.0 / 2)
        ok &= 1.0 < ratio0 <= 1.2 and 1.0 < ratio0p <= 1.2
        details.append(f"tau0/(4e/d)={ratio0:.4f}, tau0'/(1/d)={ratio0p:.4f} (both in (1, 1.2])")

        # exhaustive budget scan: the bisection result equals the sieve result
        flags = np.ones(4096, dtype=bool)
        flags[:2] = False
        for q in range(2, 64):
            if flags[q]:
                flags[q * q :: q] = False
        primes = np.flatnonzero(flags)
        costs = [
            float(p) * (2.0 * math.log1p((p - 1) / FOUR_E) + 2.0 * log(100.0) + 1.0)
            for p in primes
        ]
        mism = 0
        first_M = int(math.ceil(costs[0]))
        for M in range(first_M, 2**16 + 1):
            want = int(primes[bisect.bisect_right(costs, M) - 1])
            mism += _find_Nmax(BudgetSpec(M, 0.01)) != want
        ok &= mism == 0
        details.append(f"{mism} mismatches in the exhaustive N_max scan to 2^16")

        assert _verdict(capsys, ok, "8 parameter machinery", "; ".join(details))


class TestTractabilityInequality:
    def test_9_product_bound(self, capsys):
        """P_N(eta/G_d) <= exp(G_d) * N^eta on 100 random configurations."""
        rng = np.random.default_rng(20240809)
        violations = 0
        for _ in range(100):
            d = int(rng.integers(1, 51))
            N = int(rng.integers(3, 10**6))
            while not is_prime(N):
                N += 1
            eta = float(rng.choice([0.1, 0.5]))
            beta = float(rng.choice([1.0, 2.0, 3.0]))
            alpha = float(rng.uniform(0.6, 3.0))
            gam = [j**-beta for j in range(1, d + 1)]
            G_d = 2.0 * math.fsum(g ** (1.0 / (2 * alpha)) for g in gam)
            lhs = log_PN(eta / G_d, SmoothnessParams(alpha, d), ProductWeights(gam), N)
            violations += lhs > G_d + eta * log(N) + 1e-12
        assert _verdict(
            capsys, violations == 0, "9 tractability inequality",
            f"{violations} violations in 100 samples (d <= 50, N <= 1e6, beta in {{1,2,3}})",
        )


class TestDeterminismAndCost:
    def test_10_threads_and_eval_counts(self, capsys):
        ok = True
        details = []

        base = dict(function="f1", dim=2, budgets=(2**14, 2**15), seed=20240810)
        csv1 = emit_csv(
            ExperimentConfig(workers=1, **base), run_experiment(ExperimentConfig(workers=1, **base))
        )
        csv8 = emit_csv(
            ExperimentConfig(workers=8, **base), run_experiment(ExperimentConfig(workers=8, **base))
        )
        ok &= csv1 == csv8
        details.append(f"1-thread vs 8-thread CSV byte-identical: {csv1 == csv8}")

        from medlattice import test_function_f1 as function_f1

        f = function_f1(2)
        exact_counts = True
        for M in (2**14, 2**15):
            sel = select_params(BudgetSpec(M, 0.01), D2_F1, W2)
            params = AlgorithmParams.from_problem(
                N=sel.N_max, R=sel.R, tau=sel.tau_star,
                master_seed=20240810, problem=D2_F1, weights=W2,
            )
            for workers in (1, 8):
                approx = run(f.evaluate, params, D2_F1, W2, workers=workers)
                exact_counts &= approx.eval_count == sel.R * sel.N_max
        ok &= exact_counts
        details.append(f"eval_count == R*N on every run: {exact_counts}")

        assert _verdict(capsys, ok, "10 determinism and cost", "; ".join(details))
