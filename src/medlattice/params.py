"""Parameter selection for the median lattice algorithm.

Covers prime utilities, the budget-driven choice of the lattice size N and
repetition count R, root-finding for the tuning parameter tau, evaluation of
the probabilistic error-bound constants, diagnostic condition checks, and
the validated run parameters a selection hands to the algorithm.
All root-finding targets are strictly monotone, so plain bisection with
geometric bracket expansion is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, log
from typing import Optional

from .korobov import ProductWeights, SmoothnessParams, _integer, riemann_zeta

__all__ = [
    "AlgorithmParams",
    "BudgetSpec",
    "SelectedParams",
    "TauRoots",
    "is_prime",
    "compute_PN",
    "compute_Nstar",
    "tau_roots",
    "select_params",
    "theorem1_bound",
    "corollary2_constant",
    "check_conditions",
    "ConditionReport",
    "PolynomialDecayWeights",
    "tractability_diagnostics",
    "TractabilityReport",
]

_FOUR_E = 4.0 * math.e

# witnesses making Miller-Rabin deterministic for all n < 3.3e24 (covers 64 bit)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs; False for a non-integer."""
    n = _integer(n, 2)
    if n is None:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prev_prime(n: int) -> int:
    """Largest prime <= n."""
    if n < 2:
        raise ValueError("no prime <= n for n < 2")
    while not is_prime(n):
        n -= 1
    return n


@dataclass(frozen=True)
class BudgetSpec:
    """Total evaluation budget M_max and failure probability delta."""

    M_max: int
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "M_max", _integer(self.M_max, 2, "M_max"))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def _root_gammas(params: SmoothnessParams, weights: ProductWeights):
    # the sequence 2*gamma_j^(1/(2*alpha)) entering P_N and its derivatives
    return [2.0 * g ** (1.0 / (2.0 * params.alpha)) for g in weights.require(params.dim)]


def log_PN(tau: float, params: SmoothnessParams, weights: ProductWeights, N: float) -> float:
    """log of P_N(tau, d, gamma); accumulated in log space for large d."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    t = 1.0 + tau * log(N)
    return math.fsum(math.log1p(b * t) for b in _root_gammas(params, weights))


def compute_PN(tau: float, params: SmoothnessParams, weights: ProductWeights, N: float) -> float:
    """P_N(tau, d, gamma) = prod_j (1 + 2*gamma_j^(1/(2*alpha)) * (1 + tau*log N))."""
    return exp(log_PN(tau, params, weights, N))


def compute_Nstar(tau: float, params: SmoothnessParams, weights: ProductWeights, N: int) -> float:
    """N_* = (N - 1) / (exp(1/tau) * P_N(tau, d, gamma))."""
    return exp(log(N - 1.0) - 1.0 / tau - log_PN(tau, params, weights, N))


_REL_CONSISTENCY = 1e-9


@dataclass(frozen=True)
class AlgorithmParams:
    """Validated run parameters: lattice size, repetitions, tuning, seed.

    An N, R or master_seed that is not an integer raises ValueError, as
    does any value outside the ranges below.

    Attributes
    ----------
    N : int
        Prime lattice size.
    R : int
        Odd number of repetitions.
    tau : float
        Positive tuning parameter.
    P_N : float
        The product prod_j (1 + 2*gamma_j^(1/(2*alpha))*(1 + tau*log N)).
    N_star : float
        (N-1) / (exp(1/tau) * P_N); must be >= 1 for the run to make sense.
    master_seed : int
        64-bit master seed; repetition r uses streams keyed
        (master_seed, r, purpose).
    """

    N: int
    R: int
    tau: float
    P_N: float
    N_star: float
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "N", _prime_N(self.N))
        R = _integer(self.R, 1)
        if R is None or R % 2 == 0:
            raise ValueError(f"R = {self.R!r} must be a positive odd integer")
        object.__setattr__(self, "R", R)
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "master_seed", _integer(self.master_seed, 0, "master_seed"))
        if not (math.isfinite(self.P_N) and self.P_N > 0.0):
            raise ValueError(f"P_N = {self.P_N!r} must be finite and positive")
        if not math.isfinite(self.N_star):
            raise ValueError(f"N_star = {self.N_star!r} must be finite")
        implied = (self.N - 1) / (math.exp(1.0 / self.tau) * self.P_N)
        if abs(implied - self.N_star) > _REL_CONSISTENCY * max(abs(implied), 1.0):
            raise ValueError(
                f"inconsistent N_star: given {self.N_star!r}, implied {implied!r}"
            )
        if self.N_star < 1.0:
            raise ValueError(
                f"N_star = {self.N_star:.6g} < 1: budget too small for these weights/tau"
            )

    @classmethod
    def from_problem(
        cls,
        N: int,
        R: int,
        tau: float,
        master_seed: int,
        problem: SmoothnessParams,
        weights: ProductWeights,
    ) -> "AlgorithmParams":
        """Compute P_N and N_star from the problem description."""
        N = _prime_N(N)
        P_N = compute_PN(tau, problem, weights, N)
        N_star = compute_Nstar(tau, problem, weights, N)
        return cls(N=N, R=R, tau=tau, P_N=P_N, N_star=N_star, master_seed=master_seed)


def _prime_N(N) -> int:
    """N as a Python int; ValueError unless it is a prime integer."""
    if not is_prime(N):
        raise ValueError(f"N = {N!r} must be a prime integer")
    return int(N)


def _budget_lhs(N: int, delta: float) -> float:
    # N * (2*log(1 + (N-1)/(4e)) + 2*log(1/delta) + 1), increasing in N
    return N * (2.0 * math.log1p((N - 1) / _FOUR_E) + 2.0 * log(1.0 / delta) + 1.0)


def _find_Nmax(budget: BudgetSpec) -> int:
    """Largest prime N with N*(2*log(1+(N-1)/(4e)) + 2*log(1/delta) + 1) <= M_max.

    Bisects on the strictly increasing left-hand side, then scans down to a
    prime.  Raises when not even N = 2 fits the budget.
    """
    if _budget_lhs(2, budget.delta) > budget.M_max:
        raise ValueError("budget too small: no prime satisfies the constraint")
    lo, hi = 2, 4
    while _budget_lhs(hi, budget.delta) <= budget.M_max:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _budget_lhs(mid, budget.delta) <= budget.M_max:
            lo = mid
        else:
            hi = mid
    return _prev_prime(lo)


def _choose_R_budget(N: int, M_max: int) -> int:
    """Largest odd R with R <= M_max / N (at least 1)."""
    if M_max < N:
        raise ValueError("M_max must be at least N")
    R = M_max // N
    return R if R % 2 == 1 else R - 1


# --------------------------------------------------------------------------
# tau roots
# --------------------------------------------------------------------------

_TAU_LO_CAP = 1e-9
_TAU_HI_CAP = 1e9
_BISECT_TOL = 1e-10
_DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class TauRoots:
    """Roots of the two logarithmic derivatives plus the feasibility pair.

    tau0 minimizes exp(4e/tau)*P_N(tau); tau0_prime maximizes N_*(tau).  When
    the minimum of exp(4e/tau)*P_N(tau) stays below exp(-4e)*(N-1), the
    level-crossing pair tau1 <= tau0 <= tau2 exists and brackets the interval
    on which the error-constant condition holds.
    """

    tau0: float
    tau0_prime: float
    tau1: Optional[float]
    tau2: Optional[float]
    feasible: bool


def _S(tau: float, bs, logN: float) -> float:
    # tau * d/dtau log P_N(tau) = sum_j b_j*tau*logN / (1 + b_j*(1 + tau*logN))
    return math.fsum(b * tau * logN / (1.0 + b * (1.0 + tau * logN)) for b in bs)


def _bisect_increasing(g, lo: float, hi: float) -> float:
    # g strictly increasing with g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _expand(t: float, factor: float, go_on) -> float:
    # the first of t, t*factor, t*factor^2, ... (factor 0.5 or 2) where
    # go_on fails, so a NaN stops the search; leaving the tau caps raises
    while go_on(t):
        t *= factor
        if not _TAU_LO_CAP <= t <= _TAU_HI_CAP:
            side = "lower" if factor < 1.0 else "upper"
            raise ArithmeticError(f"bracket expansion hit the {side} tau cap")
    return t


def _root_increasing(g) -> float:
    # the zero of g, strictly increasing, bracketed by halving and doubling
    # from 1
    lo = _expand(1.0, 0.5, lambda t: g(t) >= 0.0)
    hi = _expand(max(1.0, 2.0 * lo), 2.0, lambda t: g(t) <= 0.0)
    return _bisect_increasing(g, lo, hi)


def tau_roots(N: int, params: SmoothnessParams, weights: ProductWeights) -> TauRoots:
    """Solve for tau0, tau0_prime and, when feasible, the pair tau1 <= tau2.

    tau0 is the unique zero of -4e/tau + S(tau) and tau0_prime the unique
    zero of -1/tau + S(tau), where S(tau) = tau * (log P_N)'(tau); both left
    sides are strictly increasing in tau.  Feasibility means

        exp(4e/tau0) * P_N(tau0) <= exp(-4e) * (N - 1),

    checked with a relative tolerance of 1e-8 (equality counts as feasible);
    tau1 and tau2 are then the crossings of that level on either side of
    tau0, with the degenerate case tau1 = tau2 = tau0 collapsing within the
    same tolerance.
    """
    if not is_prime(N) or N < 3:
        raise ValueError("N must be a prime >= 3")
    bs = _root_gammas(params, weights)
    logN = log(N)

    tau0 = _root_increasing(lambda t: -_FOUR_E / t + _S(t, bs, logN))
    tau0p = _root_increasing(lambda t: -1.0 / t + _S(t, bs, logN))

    def log_F(t: float) -> float:
        # log of exp(4e/t) * P_N(t); strictly decreasing below tau0, increasing above
        return _FOUR_E / t + log_PN(t, params, weights, N)

    log_level = -_FOUR_E + log(N - 1.0)
    feasible = log_F(tau0) <= log_level + _DEGENERATE_TOL
    tau1 = tau2 = None
    if feasible:
        if log_F(tau0) >= log_level - _DEGENERATE_TOL:
            tau1 = tau2 = tau0
        else:
            def below(t):
                return log_F(t) < log_level

            lo, hi = _expand(tau0, 0.5, below), _expand(tau0, 2.0, below)
            tau1 = _bisect_increasing(lambda t: log_level - log_F(t), lo, tau0)
            tau2 = _bisect_increasing(lambda t: log_F(t) - log_level, tau0, hi)
            if abs(tau2 - tau1) <= _DEGENERATE_TOL * tau0:
                tau1 = tau2 = tau0
    return TauRoots(tau0=tau0, tau0_prime=tau0p, tau1=tau1, tau2=tau2, feasible=feasible)


@dataclass(frozen=True)
class SelectedParams:
    """Everything the experiment harness needs for one budget.

    ``feasible`` means the algorithm can actually run (N_star >= 1); the
    stricter analytical feasibility of the tau-selection procedure is
    reported separately as ``condition_feasible`` and, when it fails, tau_star
    falls back to the unconstrained maximizer tau0_prime of N_star.
    """

    N_max: int
    R: int
    tau_star: float
    N_star: float
    P_N: float
    tau0: float
    tau0_prime: float
    tau1: Optional[float]
    tau2: Optional[float]
    condition_feasible: bool
    feasible: bool
    reason: str

    def header_items(self):
        """Flat key=value pairs for embedding in CSV comment headers."""
        items = [
            ("N", self.N_max),
            ("R", self.R),
            ("tau_star", self.tau_star),
            ("N_star", self.N_star),
            ("P_N", self.P_N),
            ("tau0", self.tau0),
            ("tau0_prime", self.tau0_prime),
            ("tau1", "" if self.tau1 is None else self.tau1),
            ("tau2", "" if self.tau2 is None else self.tau2),
            ("condition_feasible", self.condition_feasible),
            ("feasible", self.feasible),
        ]
        return items

    def algorithm_params(self, master_seed: int) -> AlgorithmParams:
        """The run parameters of this selection: N = N_max, R, tau_star and
        the P_N and N_star computed for them.  ValueError when the selection
        is infeasible (N_star < 1)."""
        return AlgorithmParams(
            N=self.N_max,
            R=self.R,
            tau=self.tau_star,
            P_N=self.P_N,
            N_star=self.N_star,
            master_seed=master_seed,
        )


def select_params(
    budget: BudgetSpec, params: SmoothnessParams, weights: ProductWeights
) -> SelectedParams:
    """Budget-driven parameter selection.

    N is the largest prime fitting the budget constraint, tau_star is
    max(tau0_prime, tau1) (degrading to tau0_prime when the feasibility
    inequality fails at tau0), and R follows the experiment convention of
    the largest odd integer with R*N <= M_max.
    """
    N = _find_Nmax(budget)
    roots = tau_roots(N, params, weights)
    if roots.feasible:
        tau_star = max(roots.tau0_prime, roots.tau1)
        reason = ""
    else:
        tau_star = roots.tau0_prime
        reason = (
            "min_tau exp(4e/tau)*P_N(tau) exceeds exp(-4e)*(N-1); "
            "using the unconstrained maximizer of N_star"
        )
    R = _choose_R_budget(N, budget.M_max)
    P_N = compute_PN(tau_star, params, weights, N)
    N_star = compute_Nstar(tau_star, params, weights, N)
    runnable = N_star >= 1.0
    if not runnable:
        reason = (reason + "; " if reason else "") + f"N_star={N_star:.6g} < 1, cannot run"
    return SelectedParams(
        N_max=N,
        R=R,
        tau_star=tau_star,
        N_star=N_star,
        P_N=P_N,
        tau0=roots.tau0,
        tau0_prime=roots.tau0_prime,
        tau1=roots.tau1,
        tau2=roots.tau2,
        condition_feasible=roots.feasible,
        feasible=runnable,
        reason=reason,
    )


# --------------------------------------------------------------------------
# bound constants and condition checks
# --------------------------------------------------------------------------

def _unpack_params(p):
    # accepts SelectedParams, AlgorithmParams, or any (N, tau, N_star) carrier
    N = getattr(p, "N", None)
    if N is None:
        N = p.N_max
    tau = getattr(p, "tau", None)
    if tau is None:
        tau = p.tau_star
    return int(N), float(tau), float(p.N_star)


def theorem1_bound(p, params: SmoothnessParams, f_norm_sq: float) -> float:
    """High-probability squared-error bound.

    ||f||^2 / N_star^(2*alpha) * (2/tau + 1 + 2*N*log(N-1)/(N-1)),
    valid with probability 1 - delta under the stated N and R conditions.
    No runnable budget meets them: with unit weights and delta = 0.01 all
    of ``check_conditions`` first hold at 2^32 for d = 1, where N ~ 1.0e8
    nodes take 8-16 GB, and at 2^41 for d = 2, where N ~ 4.1e10 is above
    the 2^31 lattice limit.  Below those budgets the value is a yardstick,
    not a guarantee.
    """
    N, tau, N_star = _unpack_params(p)
    if N_star < 1.0:
        raise ValueError("bound requires N_star >= 1")
    factor = 2.0 / tau + 1.0 + 2.0 * N * log(N - 1.0) / (N - 1.0)
    return f_norm_sq * N_star ** (-2.0 * params.alpha) * factor


def corollary2_constant(N: int, tau: float, delta: float, alpha: float) -> float:
    """The budget-form error constant C_N(tau, delta, alpha)."""
    N = _integer(N, 3, "N")
    a = (N / (N - 1.0)) ** (2.0 * alpha)
    b = (2.0 * math.log1p((N - 1) / _FOUR_E) + 2.0 * log(1.0 / delta) + 1.0) ** (2.0 * alpha)
    c = 2.0 / tau + 1.0 + 2.0 * N * log(N - 1.0) / (N - 1.0)
    return a * b * c


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool
    lhs: float
    rhs: float
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple

    def __iter__(self):
        return iter(self.conditions)

    def __getitem__(self, name: str) -> Condition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)

    def header_items(self):
        return [(f"cond_{c.name}", c.holds) for c in self.conditions]


def check_conditions(
    p,
    params: SmoothnessParams,
    weights: ProductWeights,
    R: Optional[int] = None,
    delta: Optional[float] = None,
) -> ConditionReport:
    """Diagnostic report on the error-analysis prerequisites.

    Reports, never aborts: the benchmark convention is to run regardless and
    surface which hypotheses the chosen parameters actually satisfy.
    Conditions covered: N_star >= 1; N_star < N/2; the contraction ratio
    4*(1+tau)/(1+tau*log N_star) < 1; the repetition condition
    (1+(N-1)/(1+tau*log N_star)) * ratio^ceil(R/2) <= delta (when R, delta
    given); and N >= P_N*exp((4/tau+4)*e) + 1, the prime-size condition at
    contraction level c = exp(-1), checked with ``tau_roots``' relative
    tolerance of 1e-8 on N - 1 (equality counts as holding).
    """
    N, tau, N_star = _unpack_params(p)
    conds = []
    conds.append(Condition("Nstar_at_least_one", N_star >= 1.0, N_star, 1.0))
    conds.append(Condition("Nstar_below_half_N", N_star < N / 2.0, N_star, N / 2.0))

    denom = 1.0 + tau * log(N_star) if N_star > 0.0 else -math.inf
    ratio = 4.0 * (1.0 + tau) / denom if denom > 0.0 else math.inf
    conds.append(Condition("contraction_below_one", ratio < 1.0, ratio, 1.0))

    if R is not None and delta is not None:
        if denom > 0.0:
            card_cap = 1.0 + (N - 1.0) / denom
            lhs = card_cap * ratio ** math.ceil(R / 2.0)
        else:
            # the bound's denominator is nonpositive; the analysis does not apply
            lhs = math.inf
        conds.append(
            Condition(
                "repetitions_sufficient",
                lhs <= delta,
                lhs,
                delta,
                note=f"R={R}",
            )
        )

    P_N = compute_PN(tau, params, weights, N)
    rhs = P_N * exp((4.0 / tau + 4.0) * math.e) + 1.0
    # tau1, which the selection takes when feasible, meets this with
    # equality up to its bisection, so it gets tau_roots' relative tolerance
    holds = rhs - 1.0 <= (N - 1.0) * (1.0 + _DEGENERATE_TOL)
    conds.append(
        Condition("prime_large_enough_at_c_einv", holds, float(N), rhs, note="c=exp(-1)")
    )
    return ConditionReport(tuple(conds))


# --------------------------------------------------------------------------
# tractability diagnostics
# --------------------------------------------------------------------------

class PolynomialDecayWeights:
    """Weight generator gamma_j = j^(-beta) with analytic tail information."""

    def __init__(self, beta: float):
        if beta < 0:
            raise ValueError("beta must be >= 0")
        self.beta = float(beta)

    def gamma(self, j: int) -> float:
        return float(j) ** (-self.beta)

    def take(self, d: int) -> ProductWeights:
        return ProductWeights([self.gamma(j) for j in range(1, d + 1)])

    def root_sum(self, alpha: float) -> float:
        """sum_j gamma_j^(1/(2*alpha)), exactly zeta(beta/(2*alpha)) or inf."""
        s = self.beta / (2.0 * alpha)
        return riemann_zeta(s) if s > 1.0 else math.inf


@dataclass(frozen=True)
class TractabilityReport:
    G_d: float
    G_inf: float
    tau: float
    eta: float
    case: str
    fitted_D: Optional[float]
    inequality_ok: bool
    checked_N: tuple


def _G_d(gamma_fn, d: int, alpha: float) -> float:
    return 2.0 * math.fsum(gamma_fn(j) ** (1.0 / (2.0 * alpha)) for j in range(1, d + 1))


_SAMPLE_J = 100_000
_SAMPLE_N = (101, 10007, 1000003)


def tractability_diagnostics(
    generator, params: SmoothnessParams, eta: float
) -> TractabilityReport:
    """Classify a weight sequence and verify P_N(eta/G_d) <= exp(G_d) * N^eta
    at N = 101, 10007 and 1000003.

    ``generator`` is either a :class:`PolynomialDecayWeights` (closed-form
    tail) or any object with a ``gamma(j)`` method, sampled out to j = 1e5.
    Case 1 (summable root weights) gives dimension-independent constants;
    case 2 requires G_d <= D*log(d), fitted over a dimension grid; anything
    else is reported as "neither".
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    d, alpha = params.dim, params.alpha
    gamma_fn = generator.gamma
    G_d = _G_d(gamma_fn, d, alpha)

    if isinstance(generator, PolynomialDecayWeights):
        G_inf = 2.0 * generator.root_sum(alpha)
    else:
        # partial sums out to j = 1e5; declared summable when increments have
        # clearly flattened out
        partial = 0.0
        checkpoints = {}
        for j in range(1, _SAMPLE_J + 1):
            partial += gamma_fn(j) ** (1.0 / (2.0 * alpha))
            if j in (_SAMPLE_J // 10, _SAMPLE_J):
                checkpoints[j] = partial
        tail_growth = checkpoints[_SAMPLE_J] - checkpoints[_SAMPLE_J // 10]
        G_inf = 2.0 * partial if tail_growth < 1e-6 * max(partial, 1.0) else math.inf

    fitted_D = None
    if math.isfinite(G_inf):
        case = "case1"
    else:
        # fit D on small dimensions, check it still covers the larger ones
        fit_grid = [4, 8, 16, 32]
        test_grid = [64, 128, 256]
        fitted_D = max(_G_d(gamma_fn, dd, alpha) / log(dd) for dd in fit_grid)
        covered = all(_G_d(gamma_fn, dd, alpha) <= 1.05 * fitted_D * log(dd) for dd in test_grid)
        case = "case2" if covered else "neither"

    tau = eta / G_d
    weights_d = ProductWeights([min(1.0, gamma_fn(j)) for j in range(1, d + 1)])
    ok = not any(
        log_PN(tau, params, weights_d, N) > G_d + eta * log(N) + 1e-12 for N in _SAMPLE_N
    )
    return TractabilityReport(
        G_d=G_d,
        G_inf=G_inf,
        tau=tau,
        eta=eta,
        case=case,
        fitted_D=fitted_D,
        inequality_ok=ok,
        checked_N=_SAMPLE_N,
    )
