"""
Tests for parameter selection: prime utilities, the budget-driven choice of
N and R, the tau root-finding, the error-bound constants, the condition
report, and the tractability diagnostics.

Root-finding is cross-checked against scipy.optimize.brentq on objectives
rebuilt here from their definitions, with derivatives taken numerically so
no formula is shared with the implementation.
"""

import dataclasses
import math
from math import exp, log
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from medlattice import (
    AlgorithmParams,
    BudgetSpec,
    PolynomialDecayWeights,
    ProductWeights,
    SmoothnessParams,
    check_conditions,
    compute_Nstar,
    compute_PN,
    corollary2_constant,
    is_prime,
    riemann_zeta,
    select_params,
    tau_roots,
    theorem1_bound,
    tractability_diagnostics,
)
from medlattice.params import _choose_R_budget, _find_Nmax, _prev_prime, log_PN

FOUR_E = 4.0 * math.e

# the d=1 setting with a tiny weight is the one place the feasibility
# inequality actually holds at a reachable N; frozen from a run of
# tau_roots(1000003, alpha=3/2, gamma=(1e-6,))
FEASIBLE_N = 1000003
FEASIBLE_PARAMS = SmoothnessParams(1.5, 1)
FEASIBLE_WEIGHTS = ProductWeights([1e-6])
FEASIBLE_TAU0 = 13.784880781982793
FEASIBLE_TAU0P = 2.485321710613789
FEASIBLE_TAU1 = 5.370786571420803
FEASIBLE_TAU2 = 51.97775260288477
# smallest budget whose largest admissible prime is exactly 1000003 (delta 0.01)
FEASIBLE_MMAX = 33068898


def sieve(limit):
    """Primes below ``limit`` by Eratosthenes, the independent reference."""
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def budget_cost(N, delta):
    """The budget left-hand side, written out from its definition."""
    return N * (2.0 * log(1.0 + (N - 1) / FOUR_E) + 2.0 * log(1.0 / delta) + 1.0)


def numeric_S(tau, params, weights, N):
    """tau * (log P_N)'(tau) by central difference, nothing shared with _S."""
    h = 1e-6 * tau
    return tau * (log_PN(tau + h, params, weights, N) - log_PN(tau - h, params, weights, N)) / (2 * h)


class TestPrimes:
    def test_small_range_against_sieve(self):
        """is_prime agrees with a sieve on every integer below 5000."""
        reference = set(int(p) for p in sieve(5000))
        for n in range(5000):
            assert is_prime(n) == (n in reference)

    def test_edge_cases(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert is_prime(3)

    def test_strong_pseudoprime(self):
        """3215031751 fools single-base Fermat tests; it is 151*751*28351."""
        assert not is_prime(3215031751)
        assert 151 * 751 * 28351 == 3215031751

    def test_large_mersenne(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_prev_prime(self):
        assert _prev_prime(100) == 97
        assert _prev_prime(97) == 97
        assert _prev_prime(2) == 2
        with pytest.raises(ValueError):
            _prev_prime(1)


class TestBudgetSpec:
    def test_valid(self):
        b = BudgetSpec(2**14, 0.01)
        assert b.M_max == 16384 and b.delta == 0.01

    @pytest.mark.parametrize("M, delta", [(1, 0.5), (100, 0.0), (100, 1.0), (100, -0.1)])
    def test_rejects(self, M, delta):
        with pytest.raises(ValueError):
            BudgetSpec(M, delta)


class TestFindNmax:
    def test_worked_example(self):
        assert _find_Nmax(BudgetSpec(2**14, 0.01)) == 863

    def test_against_exhaustive(self):
        """Agreement with the brute-force maximum over a sieve, both deltas."""
        primes = sieve(4096)
        for delta in (0.01, 0.05):
            costs = [budget_cost(int(p), delta) for p in primes]
            for M in (2**10, 2**12, 2**14, 2**16, 5000, 33333):
                want = max(int(p) for p, c in zip(primes, costs) if c <= M)
                assert _find_Nmax(BudgetSpec(M, delta)) == want

    def test_definition(self):
        """The result fits the budget and the next prime does not."""
        N = _find_Nmax(BudgetSpec(2**14, 0.01))
        assert budget_cost(N, 0.01) <= 2**14
        succ = N + 1
        while not is_prime(succ):
            succ += 1
        assert budget_cost(succ, 0.01) > 2**14

    def test_monotone_in_budget(self):
        values = [_find_Nmax(BudgetSpec(2**e, 0.01)) for e in range(8, 19)]
        assert values == sorted(values)
        assert all(is_prime(v) for v in values)

    def test_budget_too_small(self):
        with pytest.raises(ValueError, match="budget too small"):
            _find_Nmax(BudgetSpec(20, 0.01))
        # 2*(2*log(1+1/(4e)) + 2*log(100) + 1) = 20.77, so 21 admits N = 2
        assert _find_Nmax(BudgetSpec(21, 0.01)) == 2
        assert _find_Nmax(BudgetSpec(32, 0.01)) == 3


class TestChooseR:
    def test_budget_examples(self):
        assert _choose_R_budget(101, 1000) == 9
        assert _choose_R_budget(101, 1520) == 15
        assert _choose_R_budget(101, 101) == 1

    def test_budget_requires_M_at_least_N(self):
        with pytest.raises(ValueError):
            _choose_R_budget(101, 100)

    @given(
        N=st.integers(min_value=2, max_value=10**5),
        mult=st.floats(min_value=1.0, max_value=50.0),
    )
    def test_budget_property(self, N, mult):
        """Largest odd R with R*N <= M_max, never below 1."""
        M = int(N * mult)
        R = _choose_R_budget(N, M)
        assert R % 2 == 1 and R >= 1
        assert R * N <= M or R == 1
        if (R + 2) * N <= M:
            pytest.fail(f"R={R} not maximal for N={N}, M={M}")


class TestTauRoots:
    def test_root_residuals(self):
        """tau0 kills -4e/tau + S(tau); tau0_prime kills -1/tau + S(tau)."""
        for params, weights, N in [
            (SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]), 863),
            (FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, FEASIBLE_N),
            (SmoothnessParams(2.5, 1), ProductWeights([1.0]), 12289),
        ]:
            r = tau_roots(N, params, weights)
            s0 = numeric_S(r.tau0, params, weights, N)
            sp = numeric_S(r.tau0_prime, params, weights, N)
            assert abs(-FOUR_E / r.tau0 + s0) < 1e-8
            assert abs(-1.0 / r.tau0_prime + sp) < 1e-8

    def test_brentq_crosscheck(self):
        """scipy root-finding on the numerically differentiated objectives."""
        r = tau_roots(FEASIBLE_N, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        g0 = lambda t: -FOUR_E / t + numeric_S(t, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, FEASIBLE_N)
        gp = lambda t: -1.0 / t + numeric_S(t, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, FEASIBLE_N)
        assert brentq(g0, 0.1, 200.0, xtol=1e-12) == pytest.approx(r.tau0, rel=1e-9)
        assert brentq(gp, 0.01, 200.0, xtol=1e-12) == pytest.approx(r.tau0_prime, rel=1e-9)

    def test_objectives_increasing(self):
        """Both objectives are strictly increasing in tau (bisection premise)."""
        params, weights, N = SmoothnessParams(1.5, 2), ProductWeights([1.0, 0.5]), 10007
        taus = np.geomspace(0.05, 50.0, 10)
        g0 = [-FOUR_E / t + numeric_S(t, params, weights, N) for t in taus]
        gp = [-1.0 / t + numeric_S(t, params, weights, N) for t in taus]
        assert all(a < b for a, b in zip(g0, g0[1:]))
        assert all(a < b for a, b in zip(gp, gp[1:]))

    def test_frozen_feasible_case(self):
        r = tau_roots(FEASIBLE_N, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        assert r.feasible
        assert r.tau0 == pytest.approx(FEASIBLE_TAU0, rel=1e-12)
        assert r.tau0_prime == pytest.approx(FEASIBLE_TAU0P, rel=1e-12)
        assert r.tau1 == pytest.approx(FEASIBLE_TAU1, rel=1e-12)
        assert r.tau2 == pytest.approx(FEASIBLE_TAU2, rel=1e-12)

    def test_level_equation(self):
        """tau1 and tau2 solve exp(4e/tau) P_N(tau) = exp(-4e) (N-1)."""
        r = tau_roots(FEASIBLE_N, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        level = exp(-FOUR_E) * (FEASIBLE_N - 1)
        for t in (r.tau1, r.tau2):
            lhs = exp(FOUR_E / t) * compute_PN(t, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, FEASIBLE_N)
            assert lhs == pytest.approx(level, rel=1e-9)

    def test_ordering(self):
        r = tau_roots(FEASIBLE_N, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        assert r.tau0_prime < r.tau0
        assert r.tau1 <= r.tau0 <= r.tau2

    def test_infeasible_unit_weights(self):
        """With gamma = 1 the level is never reached, even at N near 1e6."""
        r = tau_roots(1000003, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        assert not r.feasible
        assert r.tau1 is None and r.tau2 is None
        assert r.tau0 > 0 and r.tau0_prime > 0

    def test_asymptotic_lower_bounds(self):
        """tau0 stays above 4e/d and tau0_prime above 1/d, nearing them at
        large N for small d."""
        N = 1000003
        for d in (1, 2, 5, 10):
            r = tau_roots(N, SmoothnessParams(1.5, d), ProductWeights([1.0] * d))
            assert r.tau0 > FOUR_E / d
            assert r.tau0_prime > 1.0 / d
            if d <= 2:
                assert r.tau0 < 1.2 * FOUR_E / d
                assert r.tau0_prime < 1.2 / d

    def test_rejects_composite_N(self):
        with pytest.raises(ValueError):
            tau_roots(100, SmoothnessParams(1.5, 1), ProductWeights([1.0]))


class TestSelectParams:
    def test_golden_d2(self):
        """The d = 2, M_max = 2^14 selection, frozen end to end."""
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        assert sel.N_max == 863
        assert sel.R == 17
        assert sel.tau_star == pytest.approx(0.6664612106687855, rel=1e-12)
        assert sel.N_star == pytest.approx(1.3325961371556767, rel=1e-12)
        assert sel.P_N == pytest.approx(144.26672305759757, rel=1e-12)
        assert sel.tau0 == pytest.approx(5.650059478561161, rel=1e-12)
        assert not sel.condition_feasible
        assert sel.tau_star == sel.tau0_prime
        assert sel.tau1 is None and sel.tau2 is None
        assert sel.feasible

    def test_feasible_branch(self):
        """With a tiny weight the inequality holds and tau_star = tau1."""
        sel = select_params(BudgetSpec(FEASIBLE_MMAX, 0.01), FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        assert sel.N_max == FEASIBLE_N
        assert sel.R == 33
        assert sel.condition_feasible
        assert sel.tau_star == sel.tau1
        assert sel.tau_star == pytest.approx(FEASIBLE_TAU1, rel=1e-12)
        assert sel.N_star == pytest.approx(331515.3004264075, rel=1e-12)
        assert sel.reason == ""

    def test_tau_star_maximizes_Nstar_unconstrained(self):
        """In the fallback branch tau_star is the exact maximizer of N_star."""
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        for factor in (0.8, 0.9, 0.99, 1.01, 1.1, 1.25):
            other = compute_Nstar(
                sel.tau_star * factor, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]), sel.N_max
            )
            assert other <= sel.N_star * (1 + 1e-10)

    def test_tau_star_maximizes_Nstar_on_window(self):
        """In the constrained branch no tau in [tau1, tau2] beats tau_star."""
        sel = select_params(BudgetSpec(FEASIBLE_MMAX, 0.01), FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        for t in np.linspace(sel.tau1, sel.tau2, 23):
            other = compute_Nstar(float(t), FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, sel.N_max)
            assert other <= sel.N_star * (1 + 1e-10)

    def test_budget_grid(self):
        """R*N never exceeds the budget and R is odd, over the default grid."""
        for e in range(10, 19):
            sel = select_params(BudgetSpec(2**e, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
            assert sel.R * sel.N_max <= 2**e
            assert sel.R % 2 == 1

    def test_infeasible_small_budget(self):
        """At 2^10 the d = 2 selection cannot run: N_star < 1."""
        sel = select_params(BudgetSpec(2**10, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        assert sel.N_max == 71
        assert sel.N_star < 1.0
        assert not sel.feasible
        assert "cannot run" in sel.reason

    def test_header_items(self):
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        items = dict(sel.header_items())
        assert items["N"] == 863
        assert items["R"] == 17
        assert items["tau1"] == ""  # None serializes to the empty field
        assert items["condition_feasible"] is False


class TestAlgorithmParamsFromSelection:
    @settings(max_examples=60, deadline=None)
    @given(
        exponent=st.integers(10, 20),
        dim=st.integers(1, 3),
        poly=st.booleans(),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(exponent=10, dim=2, poly=False, seed=0)  # N_star < 1
    @example(exponent=20, dim=1, poly=True, seed=1)
    def test_equals_from_problem(self, exponent, dim, poly, seed):
        """algorithm_params reuses the selection's P_N and N_star, and they
        are bitwise the ones from_problem computes for N_max, R, tau_star;
        an infeasible selection raises, and so does an even R."""
        problem = SmoothnessParams(1.5, dim)
        weights = PolynomialDecayWeights(2.0).take(dim) if poly else ProductWeights([1.0] * dim)
        sel = select_params(BudgetSpec(2**exponent, 0.01), problem, weights)
        if not sel.feasible:
            with pytest.raises(ValueError, match="budget too small"):
                sel.algorithm_params(seed)
            return
        ap = sel.algorithm_params(seed)
        ref = AlgorithmParams.from_problem(
            N=sel.N_max, R=sel.R, tau=sel.tau_star, master_seed=seed, problem=problem,
            weights=weights,
        )
        # dataclass equality compares the float fields with ==, exactly
        assert ap == ref
        assert (ap.P_N, ap.N_star) == (sel.P_N, sel.N_star)
        with pytest.raises(ValueError, match="odd"):
            dataclasses.replace(ap, R=4)


class TestAlgorithmParamsValidation:
    @staticmethod
    def valid():
        return AlgorithmParams.from_problem(
            N=101, R=3, tau=1.0, master_seed=0,
            problem=SmoothnessParams(1.5, 1), weights=ProductWeights([1.0]),
        )

    @pytest.mark.parametrize("P_N", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_bad_P_N(self, P_N):
        """A NaN P_N, which every comparison passes, and a zero one, which
        divided by zero, are refused by name."""
        with pytest.raises(ValueError, match=f"P_N = {P_N!r} must be finite and positive"):
            AlgorithmParams(N=101, R=3, tau=1.0, P_N=P_N, N_star=math.nan, master_seed=0)
        with pytest.raises(ValueError, match=f"P_N = {P_N!r} must be finite and positive"):
            dataclasses.replace(self.valid(), P_N=P_N)

    @pytest.mark.parametrize("N_star", [math.nan, math.inf])
    def test_refuses_non_finite_N_star(self, N_star):
        with pytest.raises(ValueError, match=f"N_star = {N_star!r} must be finite"):
            dataclasses.replace(self.valid(), N_star=N_star)


class TestTheorem1Bound:
    def test_golden(self):
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        b = theorem1_bound(sel, SmoothnessParams(1.5, 2), 1.0)
        assert b == pytest.approx(7.409911913516154, rel=1e-12)

    def test_formula(self):
        """Dual evaluation of the bound on a hand-picked parameter carrier."""
        p = SimpleNamespace(N=101, tau=0.5, N_star=3.0)
        want = 2.5 * 3.0 ** (-2 * 1.5) * (2.0 / 0.5 + 1.0 + 2 * 101 * log(100.0) / 100.0)
        assert theorem1_bound(p, SmoothnessParams(1.5, 1), 2.5) == pytest.approx(want, rel=1e-14)

    def test_accepts_selected_or_plain_carrier(self):
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        plain = SimpleNamespace(N=sel.N_max, tau=sel.tau_star, N_star=sel.N_star)
        assert theorem1_bound(sel, SmoothnessParams(1.5, 2), 1.0) == theorem1_bound(
            plain, SmoothnessParams(1.5, 2), 1.0
        )

    def test_zero_norm(self):
        p = SimpleNamespace(N=101, tau=0.5, N_star=3.0)
        assert theorem1_bound(p, SmoothnessParams(1.5, 1), 0.0) == 0.0

    def test_Nstar_scaling(self):
        """Doubling N_star divides the bound by 2^(2 alpha)."""
        a = theorem1_bound(SimpleNamespace(N=101, tau=0.5, N_star=2.0), SmoothnessParams(1.5, 1), 1.0)
        b = theorem1_bound(SimpleNamespace(N=101, tau=0.5, N_star=4.0), SmoothnessParams(1.5, 1), 1.0)
        assert a / b == pytest.approx(2.0**3, rel=1e-12)

    def test_requires_Nstar_at_least_one(self):
        with pytest.raises(ValueError):
            theorem1_bound(SimpleNamespace(N=101, tau=0.5, N_star=0.9), SmoothnessParams(1.5, 1), 1.0)


class TestCorollary2Constant:
    def test_frozen_value(self):
        sel = select_params(BudgetSpec(2**14, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        c = corollary2_constant(863, sel.tau_star, 0.01, 1.5)
        assert c == pytest.approx(120337.04615298515, rel=1e-12)

    def test_formula(self):
        want = (
            (101 / 100.0) ** 2
            * (2 * math.log1p(100 / FOUR_E) + 2 * log(2.0) + 1.0) ** 2
            * (2.0 + 1.0 + 2 * 101 * log(100.0) / 100.0)
        )
        assert corollary2_constant(101, 1.0, 0.5, 1.0) == pytest.approx(want, rel=1e-14)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            corollary2_constant(2, 1.0, 0.5, 1.0)


class TestCheckConditions:
    def test_small_N_fails(self):
        """N = 3 in d = 2 leaves N_star far below one."""
        params, weights = SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0])
        p = SimpleNamespace(N=3, tau=1.0, N_star=compute_Nstar(1.0, params, weights, 3))
        report = check_conditions(p, params, weights)
        assert not report["Nstar_at_least_one"].holds
        assert report["Nstar_below_half_N"].holds
        assert not report["contraction_below_one"].holds
        assert not report.all_hold()
        # without R and delta the repetition condition is not reported
        assert len(list(report)) == 4

    def test_feasible_case_holds(self):
        """At tau_star = tau1 everything except the knife-edge prime-size
        condition holds; at tau0 that one holds too."""
        sel = select_params(BudgetSpec(FEASIBLE_MMAX, 0.01), FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        report = check_conditions(sel, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, R=sel.R, delta=0.01)
        assert report["Nstar_at_least_one"].holds
        assert report["Nstar_below_half_N"].holds
        assert report["contraction_below_one"].holds
        rep = report["repetitions_sufficient"]
        assert rep.holds and rep.lhs <= 0.01
        assert rep.note == f"R={sel.R}"

        inside = SimpleNamespace(
            N=FEASIBLE_N,
            tau=sel.tau0,
            N_star=compute_Nstar(sel.tau0, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS, FEASIBLE_N),
        )
        report0 = check_conditions(inside, FEASIBLE_PARAMS, FEASIBLE_WEIGHTS)
        prime = report0["prime_large_enough_at_c_einv"]
        assert prime.holds
        assert prime.note == "c=exp(-1)"

    def test_infeasible_budget_regression(self):
        """The 2^10, d = 2 selection fails contraction and repetitions both."""
        sel = select_params(BudgetSpec(2**10, 0.01), SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
        report = check_conditions(
            sel, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]), R=sel.R, delta=0.01
        )
        assert not report["contraction_below_one"].holds
        assert not report["repetitions_sufficient"].holds
        assert report["repetitions_sufficient"].lhs == math.inf

    def test_lookup_and_header(self):
        params, weights = SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0])
        p = SimpleNamespace(N=101, tau=0.5, N_star=2.0)
        report = check_conditions(p, params, weights, R=3, delta=0.01)
        with pytest.raises(KeyError):
            report["no_such_condition"]
        keys = [k for k, _ in report.header_items()]
        assert keys == [
            "cond_Nstar_at_least_one",
            "cond_Nstar_below_half_N",
            "cond_contraction_below_one",
            "cond_repetitions_sufficient",
            "cond_prime_large_enough_at_c_einv",
        ]


class TestTractability:
    def test_summable_roots(self):
        """beta = 3, alpha = 1: G_inf = 2 zeta(3/2), dimension-free constants."""
        report = tractability_diagnostics(PolynomialDecayWeights(3.0), SmoothnessParams(1.0, 4), 0.5)
        assert report.case == "case1"
        assert report.G_inf == pytest.approx(2.0 * riemann_zeta(1.5), rel=1e-12)
        assert report.G_inf == pytest.approx(5.224750697370976, rel=1e-12)
        assert report.fitted_D is None
        assert report.inequality_ok
        assert report.checked_N == (101, 10007, 1000003)

    def test_log_growth(self):
        """beta = 2, alpha = 1 sits on the harmonic boundary: G_d ~ 2 log d."""
        report = tractability_diagnostics(PolynomialDecayWeights(2.0), SmoothnessParams(1.0, 4), 0.5)
        assert report.case == "case2"
        assert report.G_inf == math.inf
        assert report.fitted_D is not None and report.fitted_D > 0
        assert report.inequality_ok

    def test_unit_weights_are_neither(self):
        report = tractability_diagnostics(PolynomialDecayWeights(0.0), SmoothnessParams(1.0, 4), 0.5)
        assert report.case == "neither"
        assert report.G_inf == math.inf

    def test_sampled_generator(self):
        """A plain object with gamma(j): geometric decay is detected as case 1."""

        class Geometric:
            def gamma(self, j):
                return 0.5**j

        report = tractability_diagnostics(Geometric(), SmoothnessParams(1.0, 3), 0.25)
        assert report.case == "case1"
        # sum_j 2^(-j/2) = 1/(sqrt(2) - 1), so G_inf = 2 (sqrt(2) + 1)
        assert report.G_inf == pytest.approx(2.0 * (math.sqrt(2) + 1.0), rel=1e-9)
        assert report.tau == pytest.approx(0.25 / report.G_d, rel=1e-14)

    def test_inequality_direct(self):
        """log P_N(eta/G_d) <= G_d + eta log N, recomputed here."""
        params = SmoothnessParams(1.0, 6)
        gen = PolynomialDecayWeights(3.0)
        report = tractability_diagnostics(gen, params, 0.3)
        weights = gen.take(6)
        for N in report.checked_N:
            lhs = log_PN(report.tau, params, weights, N)
            assert lhs <= report.G_d + 0.3 * log(N) + 1e-12
        assert report.inequality_ok

    def test_eta_domain(self):
        for eta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                tractability_diagnostics(PolynomialDecayWeights(3.0), SmoothnessParams(1.0, 2), eta)

    def test_root_sum(self):
        assert PolynomialDecayWeights(3.0).root_sum(1.0) == pytest.approx(riemann_zeta(1.5), rel=1e-12)
        assert PolynomialDecayWeights(2.0).root_sum(1.0) == math.inf
        assert PolynomialDecayWeights(4.0).root_sum(1.0) == pytest.approx(riemann_zeta(2.0), rel=1e-12)
        with pytest.raises(ValueError):
            PolynomialDecayWeights(-1.0)
