"""Hyperbolic-cross index sets and their cardinality bounds.

The index set A_d(L) collects all integer frequency vectors h with

    prod_{j: h_j != 0} |h_j| * gamma_j^(-1/(2*alpha)) <= L,

equivalently r_{2*alpha,gamma}(h) <= L^(2*alpha).  This module enumerates the
set into one (|A|, d) int64 array, one coordinate at a time, provides three
analytic upper bounds on its cardinality plus the prime-lattice cap, and
serializes index sets to CSV.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from math import exp, log
from typing import Iterator, Sequence

import numpy as np

from .korobov import FrequencyIndex, ProductWeights, SmoothnessParams, riemann_zeta
from .params import _bisect_increasing, is_prime, log_PN

__all__ = [
    "HyperbolicCross",
    "enumerate_hyperbolic_cross",
    "bound_basic",
    "bound_min_q",
    "bound_refined",
    "corollary_cap",
    "write_indices_csv",
    "read_indices_csv",
]

# Relative slack on the log-scale membership predicate.  Boundary cases like
# |h_j| = L with gamma_j = 1 must not flip on the last bit of log(L).
_LOG_SLACK = 1e-9

_DEFAULT_CAP = 10**8

# every live HyperbolicCross, keyed by the arguments that enumerated it, so
# that runs on one problem share one index set; an entry disappears with the
# last reference to its cross
_LIVE_CROSSES = weakref.WeakValueDictionary()


def _log_costs(params: SmoothnessParams, weights: ProductWeights):
    # cost of using |h_j| = m in coordinate j is log(m) + c_j with
    # c_j = -(1/(2*alpha)) * log(gamma_j) >= 0
    inv2a = 1.0 / (2.0 * params.alpha)
    return [-inv2a * log(g) for g in weights.require(params.dim)]


def _admits(components, log_budget: float, costs) -> bool:
    spent = math.fsum(log(abs(c)) + costs[j] for j, c in enumerate(components) if c != 0)
    return spent <= log_budget + _LOG_SLACK


@dataclass(frozen=True, eq=False)
class HyperbolicCross:
    """An enumerated index set A_d(L), immutable and thread-shareable.

    Attributes:
        L: the truncation radius; the set is empty when L < 1.
        params: smoothness/dimension parameters.
        weights: the product weights.
        H: read-only (|A|, d) int64 array of the members, one per row, in
            lexicographic order.
    """

    L: float
    params: SmoothnessParams
    weights: ProductWeights
    H: np.ndarray

    def __post_init__(self):
        self.H.flags.writeable = False

    @cached_property
    def indices(self) -> tuple:
        """The rows of H as FrequencyIndex objects, built on first use."""
        return tuple(FrequencyIndex(h) for h in self.H.tolist())

    @cached_property
    def _rows(self) -> dict:
        return {h: row for row, h in enumerate(self.indices)}

    def __len__(self) -> int:
        return len(self.H)

    def __iter__(self) -> Iterator[FrequencyIndex]:
        return iter(self.indices)

    def __contains__(self, h) -> bool:
        return (h if isinstance(h, FrequencyIndex) else FrequencyIndex(h)) in self._rows

    def row(self, h: FrequencyIndex) -> int:
        """The row of member h in ``H``; KeyError for anything else, a tuple
        included."""
        return self._rows[h]

    def __eq__(self, other):
        fields = (self.L, self.params, self.weights)
        return isinstance(other, HyperbolicCross) and fields == (
            other.L, other.params, other.weights) and np.array_equal(self.H, other.H)

    def __repr__(self):
        return (
            f"HyperbolicCross(L={self.L:.6g}, d={self.params.dim}, "
            f"size={len(self.H)})"
        )


def enumerate_hyperbolic_cross(
    L: float,
    params: SmoothnessParams,
    weights: ProductWeights,
    cap: int = _DEFAULT_CAP,
) -> HyperbolicCross:
    """Enumerate A_d(L) one coordinate at a time.

    Every prefix (h_1..h_j) carries the budget it leaves in log space
    (log L minus the accumulated log|h_i| - (1/(2*alpha))*log(gamma_i)), so
    products of many small weights cannot underflow.  Coordinate j + 1
    extends each prefix by every h_{j+1} with |h_{j+1}| <= exp(budget left
    + (1/(2*alpha))*log gamma_{j+1}), in ascending order, which keeps the
    rows lexicographic.  A finished row whose budget left is near zero then
    passes the exact membership test; the others are inside by a margin.

    While a cross enumerated from the same (L, params, weights, cap) is
    still referenced anywhere, that cross is returned instead of a new one;
    it is immutable, so its users can share it.

    Args:
        L: truncation radius; L < 1 returns the empty set.
        params: SmoothnessParams (alpha, dim).
        weights: at least ``params.dim`` product weights.
        cap: memory guard; enumeration is refused when the analytic bound
            projects more than this many indices.

    Returns:
        HyperbolicCross with lexicographically sorted rows.

    Raises:
        ValueError: when L is not finite, or the projected cardinality
            exceeds ``cap``.
    """
    L = float(L)
    if not math.isfinite(L):
        raise ValueError(f"L = {L!r} must be finite")
    weights.require(params.dim)
    key = (L, params, weights, cap)
    cross = _LIVE_CROSSES.get(key)
    if cross is None:
        cross = _enumerate(L, params, weights, cap)
        _LIVE_CROSSES[key] = cross
    return cross


def _enumerate(L: float, params: SmoothnessParams, weights: ProductWeights, cap: int):
    if L < 1.0:
        return HyperbolicCross(L, params, weights, np.empty((0, params.dim), dtype=np.int64))

    _check_cap(L, params, weights, cap, hint="; raise `cap` explicitly if this is intended")
    costs = _log_costs(params, weights)
    log_budget = log(L)
    rows = np.zeros((1, 0), dtype=np.int64)
    # twice the membership slack, so that rounding in these running budgets
    # never drops a row that _admits keeps
    left = np.array([log_budget + 2.0 * _LOG_SLACK])
    for cost in costs:
        # largest admissible |h_j| per prefix, given the budget it left
        m = (np.exp(left - cost) + 1e-12).astype(np.int64)
        width = 2 * m + 1
        prefix = np.repeat(np.arange(len(rows)), width)
        # prefix p takes the components -m_p..m_p, in ascending order
        c = np.arange(len(prefix)) - np.repeat(np.cumsum(width) - m - 1, width)
        left = left[prefix] - np.where(c != 0, np.log(np.maximum(np.abs(c), 1)) + cost, 0.0)
        rows = np.column_stack((rows[prefix], c))
    # a row that left at least twice the slack spent at most log L - 2*slack
    # up to rounding, which _admits accepts; the rest take the exact check
    keep = left >= 4.0 * _LOG_SLACK
    near = np.flatnonzero(~keep)
    keep[near] = [_admits(h, log_budget, costs) for h in rows[near].tolist()]
    rows = rows[keep]
    if len(rows) > cap:
        raise ValueError(f"enumerated {len(rows)} indices, exceeding the cap {cap}")
    return HyperbolicCross(L=L, params=params, weights=weights, H=rows)


def _check_cap(L: float, params: SmoothnessParams, weights: ProductWeights,
               cap: int = _DEFAULT_CAP, hint: str = "") -> None:
    """ValueError when the analytic bound projects more than ``cap`` members
    of A_d(L), L >= 1, naming both and ending in ``hint``: a caller who
    cannot set the cap, such as the CLI, gets no advice to raise it."""
    projected = bound_basic(L, 1.0, params, weights)
    if projected > cap:
        raise ValueError(f"projected cardinality {projected:.3g} exceeds the cap {cap}{hint}")


# --------------------------------------------------------------------------
# cardinality bounds
# --------------------------------------------------------------------------

def _H(L: float, q: float) -> float:
    # the partial sum H_L(q) = sum_{n=1}^{floor(L)} n^(-q)
    if q < 1.0:
        raise ValueError("q must be >= 1")
    n = int(L)
    if n < 1:
        raise ValueError("L must be >= 1")
    return math.fsum(k ** (-q) for k in range(1, n + 1))


def _H_prime(L: float, q: float) -> float:
    # d/dq H_L(q) = -sum log(n) * n^(-q)
    n = int(L)
    return -math.fsum(log(k) * k ** (-q) for k in range(2, n + 1))


def bound_basic(
    L: float, tau: float, params: SmoothnessParams, weights: ProductWeights
) -> float:
    """Cardinality bound 1 + L*exp(1/tau)/(1 + tau*log L) * P_L(tau, d, gamma).

    Valid for every tau > 0; P_L is the usual product with N replaced by L.

    Args:
        L: radius, must be >= 1.
        tau: any positive tuning value.
    """
    if L < 1.0:
        raise ValueError("bound_basic requires L >= 1")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lp = log_PN(tau, params, weights, L)
    return 1.0 + exp(log(L) + 1.0 / tau - log(1.0 + tau * log(L)) + lp)


def bound_min_q(
    L: float,
    params: SmoothnessParams,
    weights: ProductWeights,
    q_grid: Sequence[float] = (1.1, 1.5, 2.0, 3.0),
) -> float:
    """Cardinality bound 1 + min_q L^q/zeta(q) * prod(1 + 2*gamma_j^(q/(2*alpha))*zeta(q)).

    Every q > 1 yields a valid upper bound, so minimizing over a finite grid
    is still a valid (if not optimal) bound.

    Args:
        q_grid: finite grid of exponents, all strictly greater than 1.
    """
    if L < 1.0:
        raise ValueError("bound_min_q requires L >= 1")
    if not q_grid:
        raise ValueError("q_grid must be nonempty")
    gammas = weights.require(params.dim)
    inv2a = 1.0 / (2.0 * params.alpha)
    best = math.inf
    for q in q_grid:
        if q <= 1.0:
            raise ValueError("every grid point must satisfy q > 1")
        z = riemann_zeta(q)
        lv = q * log(L) - log(z) + math.fsum(
            math.log1p(2.0 * g ** (q * inv2a) * z) for g in gammas
        )
        best = min(best, lv)
    return 1.0 + exp(best)


def _refined_value(L: float, q: float, gammas, inv2a: float) -> float:
    H = _H(L, q)
    return 1.0 + exp(
        q * log(L) - log(H) + math.fsum(math.log1p(2.0 * g ** (q * inv2a) * H) for g in gammas)
    )


def bound_refined(L: float, params: SmoothnessParams, weights: ProductWeights) -> float:
    """Sharper bound with the zeta function replaced by the partial sum H_L(q).

    The minimizing exponent q* solves

        -(H'_L/H_L)(q) * (sum_j w_j(q) - 1)
            - (1/(2*alpha)) * sum_j w_j(q) * log(gamma_j)  =  log L,

    with w_j(q) = 2*gamma_j^(q/(2*alpha))*H_L(q) / (1 + 2*gamma_j^(q/(2*alpha))*H_L(q)).
    The left side is strictly decreasing in q and the minimizer lies in
    [1, q_bar], where q_bar solves sum_j w_j(q_bar) = 1.  If the left side at
    q=1 is already <= log L the minimizer is q*=1; if no sign change occurs
    in [1, q_bar] both endpoints are evaluated and the smaller bound wins.

    Args:
        L: radius, must be >= 2 so that H_L is a nontrivial sum.
    """
    if L < 2.0:
        raise ValueError("bound_refined requires L >= 2")
    gammas = weights.require(params.dim)
    inv2a = 1.0 / (2.0 * params.alpha)
    logL = log(L)

    def weights_w(q: float):
        H = _H(L, q)
        return [2.0 * g ** (q * inv2a) * H / (1.0 + 2.0 * g ** (q * inv2a) * H) for g in gammas]

    def lhs(q: float) -> float:
        H = _H(L, q)
        Hp = _H_prime(L, q)
        w = weights_w(q)
        return -(Hp / H) * (math.fsum(w) - 1.0) - inv2a * math.fsum(
            wj * log(g) for wj, g in zip(w, gammas)
        )

    if lhs(1.0) <= logL:
        return _refined_value(L, 1.0, gammas, inv2a)

    # upper end of the search interval: q_bar with sum_j w_j(q_bar) = 1 when
    # that crossing exists; otherwise (e.g. several coordinates at gamma = 1,
    # where the w_j sum stays above 1 for every q) expand until the left side
    # itself has dropped below log L, which always happens since lhs -> 0
    def sum_w(q: float) -> float:
        return math.fsum(weights_w(q))

    q_hi = 2.0
    if sum_w(1.0) > 1.0:
        while sum_w(q_hi) >= 1.0 and lhs(q_hi) > logL:
            q_hi *= 2.0
            if q_hi > 2.0**40:
                raise ArithmeticError("bracket expansion for the minimizing q failed")
    if lhs(q_hi) >= logL:
        # no crossing located inside [1, q_hi]; both endpoints give valid bounds
        return min(
            _refined_value(L, 1.0, gammas, inv2a),
            _refined_value(L, q_hi, gammas, inv2a),
        )
    q = _bisect_increasing(lambda q: logL - lhs(q), 1.0, q_hi)
    return _refined_value(L, q, gammas, inv2a)


def corollary_cap(N: int, tau: float, N_star: float) -> float:
    """The prime-lattice cardinality cap 1 + (N-1)/(1 + tau*log(N_star)).

    Valid for |A_d(N_star)| whenever N is prime and N_star >= 1.

    Raises:
        ValueError: N not prime, tau <= 0, or N_star < 1.
    """
    if not is_prime(N):
        raise ValueError("N must be prime")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if N_star < 1.0:
        raise ValueError("cap requires N_star >= 1")
    return 1.0 + (N - 1) / (1.0 + tau * log(N_star))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def write_indices_csv(cross: HyperbolicCross, path) -> None:
    """Write one row per index, columns h_1..h_d, lexicographic order."""
    d = cross.params.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"h_{j + 1}" for j in range(d)])
        writer.writerows(cross.H.tolist())


def read_indices_csv(path) -> np.ndarray:
    """Read back the (n, d) int64 array of write_indices_csv output.

    A file without an h_1..h_d header raises ValueError("not an index-set
    CSV"); a row without d fields raises ValueError naming the row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or not all(name.startswith("h_") for name in header):
            raise ValueError("not an index-set CSV")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"row {','.join(row)!r} has {len(row)} fields, expected {len(header)}")
            rows.append([int(v) for v in row])
    return np.array(rows, dtype=np.int64).reshape(-1, len(header))
