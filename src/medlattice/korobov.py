"""Domain types for weighted Korobov spaces and analytic test-function oracles.

The weighted Korobov space H_{d,alpha,gamma} consists of 1-periodic functions
on [0,1)^d whose Fourier coefficients decay against the weight function

    r_{2*alpha,gamma}(h) = prod_j max(|h_j|^(2*alpha) / gamma_j, 1),

where alpha > 1/2 is the smoothness parameter and gamma_1 >= gamma_2 >= ...
is a non-increasing sequence of product weights in (0, 1].  This module
provides the weight containers, the r-function, truncated Korobov norms and
the two analytic benchmark functions (a periodized kink and a smooth
polynomial-times-sine product) together with their exact Fourier
coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import fsum, pi
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ProductWeights",
    "SmoothnessParams",
    "FrequencyIndex",
    "SpectralOracle",
    "riemann_zeta",
    "r_weight",
    "korobov_norm_sq_truncated",
    "test_function_f1",
    "test_function_f2",
    "cosine_pair_oracle",
]


@dataclass(frozen=True)
class ProductWeights:
    """Non-increasing product weights gamma_1 >= gamma_2 >= ... in (0, 1].

    Parameters
    ----------
    gammas : sequence of float
        The per-coordinate weights.  Must be positive, at most one, and
        non-increasing.  The weight attached to a subset u of coordinates is
        the product of the gamma_j with j in u (empty product equals one).
    """

    gammas: tuple

    def __init__(self, gammas: Sequence[float]):
        gammas = tuple(float(g) for g in gammas)
        if any(not (0.0 < g <= 1.0) for g in gammas):
            raise ValueError("weights must lie in (0, 1]")
        if any(gammas[j] < gammas[j + 1] for j in range(len(gammas) - 1)):
            raise ValueError("weights must be non-increasing")
        object.__setattr__(self, "gammas", gammas)

    def __len__(self) -> int:
        return len(self.gammas)

    def covers(self, dim: int) -> bool:
        return len(self.gammas) >= dim

    def require(self, dim: int) -> tuple:
        """First `dim` weights; raises if fewer are available."""
        if not self.covers(dim):
            raise ValueError(f"need {dim} weights, have {len(self.gammas)}")
        return self.gammas[:dim]


def _integer(value, least: int, name: str = ""):
    """``value`` as an int if it is a Python or numpy integer, not a bool, and
    >= ``least``; otherwise a ValueError naming ``name``, or None without one."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least:
        return int(value)
    if name:
        raise ValueError(f"{name} = {value!r} must be an integer >= {least}")
    return None


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness parameter alpha > 1/2 and dimension d >= 1."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not self.alpha > 0.5:
            raise ValueError("alpha must exceed 1/2")
        object.__setattr__(self, "dim", _integer(self.dim, 1, "dim"))


def _integer_tuple(values, what: str) -> tuple:
    """``values`` as Python ints; ValueError rather than truncation for one
    that is not integral, NaN and infinities included, and for a bool."""
    values = tuple(values)
    try:
        ints = tuple(map(int, values))
    except (OverflowError, ValueError):
        ints = None
    if ints != values or not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must be integers, got {values}")
    return ints


@dataclass(frozen=True)
class FrequencyIndex:
    """Integer frequency vector h identifying one Fourier mode."""

    components: tuple

    def __init__(self, components: Sequence[int]):
        object.__setattr__(self, "components", _integer_tuple(components, "frequencies"))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __neg__(self) -> "FrequencyIndex":
        return FrequencyIndex(tuple(-c for c in self.components))


# Euler-Maclaurin summation of zeta from n = _ZETA_TERMS on; the coefficients
# B_2k/(2k)! of its correction terms for k = 1..7 (B_2 .. B_14)
_ZETA_TERMS = 15
_ZETA_BERNOULLI_OVER_FACTORIAL = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1
    )
)


def riemann_zeta(q: float) -> float:
    """Riemann zeta function for real q > 1.

    Plain summation with the integral tail bound n^(1-q)/(q-1) needs on the
    order of (1/((q-1)*tol))^(1/(q-1)) terms, which is astronomically many
    for q near one.  Euler-Maclaurin summation instead sums the first 14
    terms directly and replaces the rest by the integral, half-term and
    Bernoulli corrections up to B_14; the first neglected correction is
    below 1e-19 relative for every q > 1.  Tests pin it against the closed
    forms zeta(2) and zeta(4) and against scipy.special.zeta.
    """
    if not q > 1.0:
        raise ValueError("zeta(q) requires q > 1")
    n = _ZETA_TERMS
    terms = [k ** -q for k in range(1, n)]
    terms.append(n ** (1.0 - q) / (q - 1.0))
    terms.append(0.5 * n**-q)
    # rising factorial q(q+1)...(q+2k-2) times n^(-q-2k+1), built up stepwise
    # so that an underflowed power stays zero instead of meeting inf
    t = q * n ** (-q - 1.0)
    for k, c in enumerate(_ZETA_BERNOULLI_OVER_FACTORIAL, start=1):
        terms.append(c * t)
        t *= (q + 2 * k - 1) * (q + 2 * k) / (n * n)
    return fsum(terms)


def r_weight(h: FrequencyIndex, params: SmoothnessParams, weights: ProductWeights) -> float:
    """Evaluate r_{2*alpha,gamma}(h) = prod_j max(|h_j|^(2*alpha)/gamma_j, 1).

    Returns ``math.inf`` when a factor overflows double precision; callers
    treat the sentinel as "outside every index set".

    Parameters
    ----------
    h : FrequencyIndex
    params : SmoothnessParams
    weights : ProductWeights
        Must supply at least ``params.dim`` weights.

    Returns
    -------
    float
        The weight-function value, always >= 1.
    """
    if len(h) != params.dim:
        raise ValueError(f"index has length {len(h)}, expected {params.dim}")
    gammas = weights.require(params.dim)
    two_alpha = 2.0 * params.alpha
    out = 1.0
    for hj, gj in zip(h, gammas):
        if hj == 0:
            continue
        try:
            p = math.pow(abs(hj), two_alpha)
        except OverflowError:
            return math.inf
        out *= max(p / gj, 1.0)
        if math.isinf(out):
            return math.inf
    return out


# --------------------------------------------------------------------------
# Spectral oracles
# --------------------------------------------------------------------------

class SpectralOracle:
    """A test function known through its exact Fourier expansion.

    Attributes
    ----------
    dim : int
        Dimension of the domain [0,1)^dim.
    l2_norm_sq : float
        The exact squared L2 norm, equal to the sum of |coefficient(h)|^2.
    factor_coefficient : callable or None
        For coordinate-product functions f(x) = prod_j g(x_j), the 1-D
        coefficient of the factor g; ``coefficients`` and truncated norms
        use it factor by factor.
    modes : dict or None
        For finite Fourier sums, the exact {index tuple: coefficient} map.

    The ``coefficient`` argument, a map from a tuple of ints to the
    coefficient there, may be None when either of these gives them all.
    An oracle has at most one of ``factor_coefficient`` and ``modes``;
    both raise ValueError.
    """

    def __init__(
        self,
        dim: int,
        coefficient: Optional[Callable[[Sequence[int]], complex]],
        l2_norm_sq: float,
        evaluate: Callable[[np.ndarray], np.ndarray],
        factor_coefficient: Optional[Callable[[int], complex]] = None,
        modes: Optional[dict] = None,
        label: str = "",
    ):
        if factor_coefficient is not None and modes is not None:
            raise ValueError("give factor_coefficient or modes, not both")
        self.dim = _integer(dim, 1, "dim")
        self._coefficient = coefficient
        self.l2_norm_sq = float(l2_norm_sq)
        self._evaluate = evaluate
        self.factor_coefficient = factor_coefficient
        self.modes = dict(modes) if modes is not None else None
        self.label = label

    def coefficients(self, H) -> np.ndarray:
        """Exact Fourier coefficients at the rows of the (n, dim) integer
        array H, as a complex128 vector."""
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[1] != self.dim or H.dtype.kind not in "iu":
            raise ValueError(f"frequencies {H.dtype}{H.shape}, expected integers (n, {self.dim})")
        if self.factor_coefficient is not None:
            # the running product starts at 1 and takes the coordinates in
            # order; each takes one table over the values that occur in it
            out = np.ones(len(H), dtype=np.complex128)
            for column in H.T:
                values, where = np.unique(column, return_inverse=True)
                table = [self.factor_coefficient(v) for v in values.tolist()]
                out *= np.array(table, dtype=np.complex128)[where]
            return out
        if self.modes is not None:
            out = np.zeros(len(H), dtype=np.complex128)
            for h, c in self.modes.items():
                out[(H == h).all(axis=1)] = c
            return out
        return np.array([self._coefficient(h) for h in map(tuple, H.tolist())], dtype=np.complex128)

    def coefficient(self, h) -> complex:
        """Exact Fourier coefficient at the frequency index h, the one-row
        case of ``coefficients``."""
        return complex(self.coefficients([FrequencyIndex(h).components])[0])

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values; accepts a single point (d,) or a batch (n, d)."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[-1]}, expected {self.dim}")
        vals = self._evaluate(pts)
        return vals[0] if np.ndim(x) == 1 else vals

    def __repr__(self):
        return f"SpectralOracle({self.label or 'anonymous'}, dim={self.dim})"


# 1-D building blocks for the two benchmark functions.  The closed-form
# coefficients below come from integrating the defining formulas by parts;
# tests validate every one of them against adaptive quadrature.

_SQRT33 = math.sqrt(33.0)
_KINK_SCALE = 121.0 * _SQRT33 / 100.0   # normalizes the 1-D L2 norm to 1
_KINK_HALFWIDTH = 5.0 / 11.0


def _kink_coeff_1d(h: int) -> complex:
    if h == 0:
        return complex(5.0 / _SQRT33)
    a = 2.0 * pi * h
    ab = a * _KINK_HALFWIDTH
    sign = -1.0 if h % 2 else 1.0
    return complex(sign * _KINK_SCALE * 4.0 * (math.sin(ab) - ab * math.cos(ab)) / a**3)


def _kink_eval_1d(x: np.ndarray) -> np.ndarray:
    """_KINK_SCALE * max(25/121 - (x - 0.5)^2, 0) in a new array."""
    v = x - 0.5
    v *= v
    np.subtract(25.0 / 121.0, v, out=v)
    np.maximum(v, 0.0, out=v)
    v *= _KINK_SCALE
    return v


_SINE_EDGE = 1.0 / 24.0 - 1.0 / (16.0 * pi**2)   # coefficient magnitude at h = +-1


def _poly_sine_coeff_1d(h: int) -> complex:
    if h == 0:
        return 0j
    if h == 1:
        return 1j * _SINE_EDGE
    if h == -1:
        return -1j * _SINE_EDGE
    return 1j * h / (pi**2 * (1.0 - h * h) ** 2)


def _poly_sine_eval_1d(x: np.ndarray) -> np.ndarray:
    """(x - 0.5)^2 * sin(2*pi*x - pi) in a new array."""
    v = x - 0.5
    v *= v
    s = (2.0 * pi) * x
    s -= pi
    np.sin(s, out=s)
    v *= s
    return v


# Exact 1-D squared L2 norms (Parseval-checked in the test suite).
_KINK_NORM_SQ_1D = 1.0
_POLY_SINE_NORM_SQ_1D = 1.0 / 160.0 - 1.0 / (32.0 * pi**2) + 3.0 / (64.0 * pi**4)


def _product_oracle(dim, coeff_1d, eval_1d, norm_sq_1d, label):
    # The factors take the steps of their formulas in the same order, in
    # place on a new array, so every value is bitwise that of the formula:
    # numpy computes a square t**2 as t*t, and the product starts from the
    # first factor because 1.0*x = x exactly.
    def evaluate(pts):
        vals = eval_1d(pts[:, 0])
        for j in range(1, dim):
            vals *= eval_1d(pts[:, j])
        return vals

    return SpectralOracle(
        dim=dim,
        coefficient=None,
        l2_norm_sq=norm_sq_1d**dim,
        evaluate=evaluate,
        factor_coefficient=coeff_1d,
        label=label,
    )


def test_function_f1(d: int) -> SpectralOracle:
    """Product of scaled periodized kink factors.

    f1(x) = prod_j (121*sqrt(33)/100) * max{25/121 - (x_j - 1/2)^2, 0}.

    The factor has a kink where the support touches zero, so the function
    barely misses smoothness 3/2; its 1-D L2 norm is exactly 1.
    """
    return _product_oracle(d, _kink_coeff_1d, _kink_eval_1d, _KINK_NORM_SQ_1D, "f1")


def test_function_f2(d: int) -> SpectralOracle:
    """Product of smooth polynomial-times-sine factors.

    f2(x) = prod_j (x_j - 1/2)^2 * sin(2*pi*x_j - pi).

    The factor is C^1-periodic with a jump in the second derivative at the
    seam, so the function barely misses smoothness 5/2.  Its 1-D mean
    vanishes: every Fourier index with a zero component has coefficient 0.
    """
    return _product_oracle(d, _poly_sine_coeff_1d, _poly_sine_eval_1d, _POLY_SINE_NORM_SQ_1D, "f2")


def cosine_pair_oracle(h0: Sequence[int]) -> SpectralOracle:
    """The two-mode function cos(2*pi*h0.x) with coefficients 1/2 at +-h0.

    Used as a synthetic input whose approximation error must vanish whenever
    both modes lie inside the target index set.
    """
    h0 = _integer_tuple(h0, "h0")
    if all(c == 0 for c in h0):
        raise ValueError("h0 must be nonzero")
    d = len(h0)
    modes = {h0: complex(0.5), tuple(-c for c in h0): complex(0.5)}

    def evaluate(pts):
        return np.cos(2.0 * pi * (pts @ np.asarray(h0, dtype=float)))

    return SpectralOracle(
        dim=d,
        coefficient=None,
        l2_norm_sq=0.5,
        evaluate=evaluate,
        modes=modes,
        label=f"cos{h0}",
    )


# --------------------------------------------------------------------------
# Truncated Korobov norms
# --------------------------------------------------------------------------

_BOX_SCAN_LIMIT = 20_000_000


@functools.lru_cache(maxsize=64)
def _factor_norm_sq(coeff, box_radius: int, two_alpha: float, gamma: float) -> float:
    """sum over |m| <= box_radius of |coeff(m)|^2 * max(|m|^(2*alpha)/gamma, 1),
    the squared norm of one factor of a coordinate-product oracle.

    Memoised on (factor function, radius, 2*alpha, gamma): the harnesses and
    every ``epsilon_bound`` call ask for the same norm, which takes
    box_radius + 1 Python coefficient calls (1.3 ms at the default 4096).
    The key holds the function itself, so distinct factor functions never
    share an entry, and a factor function must be pure and hashable.
    """
    sq = [abs(coeff(m)) ** 2 for m in range(box_radius + 1)]
    terms = [sq[0]]
    for m in range(1, box_radius + 1):
        terms.append(2.0 * sq[m] * max(m**two_alpha / gamma, 1.0))
    return fsum(terms)


def korobov_norm_sq_truncated(
    f: SpectralOracle,
    params: SmoothnessParams,
    weights: ProductWeights,
    box_radius: int,
) -> float:
    """Truncated squared Korobov norm over the box ||h||_inf <= box_radius.

    Returns sum |f_hat(h)|^2 * r_{2*alpha,gamma}(h) restricted to the box;
    monotone non-decreasing in ``box_radius``.  No claim of an exact norm is
    made: functions of limited smoothness have divergent sums at their
    critical alpha, and the truncation radius is part of the reported value.

    Coordinate-product oracles and finite-mode oracles use exact factorized
    or mode-restricted sums, a product oracle's per-factor sums memoised
    (``_factor_norm_sq``); generic oracles fall back to a direct box scan,
    which is refused above ~2e7 points.
    """
    box_radius = _integer(box_radius, 0, "box_radius")
    if f.dim != params.dim:
        raise ValueError("oracle dimension does not match params")
    gammas = weights.require(params.dim)
    two_alpha = 2.0 * params.alpha

    if f.factor_coefficient is not None:
        out = 1.0
        for gj in gammas:
            out *= _factor_norm_sq(f.factor_coefficient, box_radius, two_alpha, gj)
        return out

    if f.modes is not None:
        terms = [
            abs(c) ** 2 * r_weight(FrequencyIndex(h), params, weights)
            for h, c in f.modes.items()
            if max(abs(x) for x in h) <= box_radius
        ]
        return fsum(terms)

    if (2 * box_radius + 1) ** params.dim > _BOX_SCAN_LIMIT:
        raise ValueError("box scan too large for a generic oracle; reduce box_radius")
    rng = range(-box_radius, box_radius + 1)
    terms = []
    import itertools

    for comps in itertools.product(rng, repeat=params.dim):
        c = f.coefficient(comps)
        if c != 0:
            terms.append(abs(c) ** 2 * r_weight(FrequencyIndex(comps), params, weights))
    return fsum(terms)
