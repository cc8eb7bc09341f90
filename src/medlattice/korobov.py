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
    that is not integral, NaN and infinities included, for a bool, and for
    ``values`` that is not a sequence."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (OverflowError, TypeError, ValueError):
        ints = None
    if ints != values or not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must be integers, got {values}")
    return ints


def _frequency_rows(values, d: int, what: str) -> np.ndarray:
    """``values`` as an (n, d) int64 array of frequency rows: a 2-D integer
    ndarray by vectorized checks, other rows through ``_integer_tuple``; a
    row of another length or outside int64 raises ValueError naming it."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 2:
        if values.shape[1] == d and (values.dtype.kind == "i" or values.max(initial=0) < 2**63):
            return values.astype(np.int64, copy=False)
        values = values.tolist()   # the row path names the offending row
    rows = [_integer_tuple(h, "frequencies") for h in values]
    for h in rows:
        if len(h) != d:
            raise ValueError(f"{what} {h} has {len(h)} components, not d = {d}")
        if min(h) < -(2**63) or max(h) >= 2**63:
            raise ValueError(f"{what} {h} must lie inside int64")
    return np.array(rows, dtype=np.int64).reshape(-1, d)


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
    forms zeta(2) and zeta(4) and against scipy.special.zeta.  Above
    q = 64, infinity included, it is 1.0.
    """
    if not q > 1.0:
        raise ValueError("zeta(q) requires q > 1")
    if q > 64.0:
        # the terms past the first sum to below 2^-63, under half an ulp of
        # 1; the steps below would meet 0*inf from q ~ 1e154 on
        return 1.0
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


def _r_factor(m: int, two_alpha: float, gamma: float) -> float:
    """max(|m|^(2*alpha)/gamma, 1), one coordinate's factor of r and the only
    place r is computed: 1.0 at m = 0, ``math.inf`` where it overflows."""
    if m == 0:
        return 1.0
    try:
        return max(math.pow(abs(m), two_alpha) / gamma, 1.0)
    except OverflowError:
        return math.inf


def _column_product(H: np.ndarray, factors, dtype) -> np.ndarray:
    """prod_j factors[j](H[i, j]) at each row i of H (int64, or Python ints
    in an object array), from 1 in coordinate order; each factor is called
    once per value its column holds, with a Python int."""
    out = np.ones(len(H), dtype=dtype)
    for column, factor in zip(H.T, factors):
        values, where = np.unique(column, return_inverse=True)
        out *= np.array([factor(v) for v in values.tolist()], dtype=dtype)[where]
    return out


def _r_rows(H: np.ndarray, params: SmoothnessParams, weights: ProductWeights) -> np.ndarray:
    """r_{2*alpha,gamma} at each row of H; inf where it overflows."""
    factors = [functools.partial(_r_factor, two_alpha=2.0 * params.alpha, gamma=g)
               for g in weights.require(params.dim)]
    with np.errstate(over="ignore"):
        return _column_product(H, factors, np.float64)


def r_weight(h, params: SmoothnessParams, weights: ProductWeights) -> float:
    """Evaluate r_{2*alpha,gamma}(h) = prod_j max(|h_j|^(2*alpha)/gamma_j, 1),
    always >= 1, at one frequency h of ``params.dim`` integer components of
    any size (a non-integral one raises ValueError); ``weights`` must supply
    at least ``params.dim`` weights.  The one-row case of the r that the
    truncated norm and the harnesses' default probes take at int64 rows.

    Returns ``math.inf`` when r overflows double precision; callers treat
    the sentinel as "outside every index set".
    """
    h = _integer_tuple(h, "frequencies")
    if len(h) != params.dim:
        raise ValueError(f"index has length {len(h)}, expected {params.dim}")
    return float(_r_rows(np.array([h], dtype=object), params, weights)[0])


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
        coefficient of the factor g at every integer m, negative m included:
        nothing assumes |g_hat(-m)| = |g_hat(m)|.  ``coefficients`` and
        truncated norms use it factor by factor.
    modes : dict or None
        For finite Fourier sums, the exact {index tuple: coefficient} map.

    The ``coefficient`` argument, a map from a tuple of ints to the
    coefficient there, may be None when either of these gives them all.
    An oracle takes exactly one of the three sources; none, or both of
    ``factor_coefficient`` and ``modes``, raise ValueError.
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
        if coefficient is None and factor_coefficient is None and modes is None:
            raise ValueError("give coefficient, factor_coefficient or modes")
        self.dim = _integer(dim, 1, "dim")
        self._coefficient = coefficient
        self.l2_norm_sq = float(l2_norm_sq)
        self._evaluate = evaluate
        self.factor_coefficient = factor_coefficient
        self.modes = dict(modes) if modes is not None else None
        self.label = label

    def coefficients(self, H) -> np.ndarray:
        """Exact Fourier coefficients at the rows of H, integer frequencies
        of dim components inside int64, as a complex128 vector."""
        H = _frequency_rows(H, self.dim, "frequency")
        if self.factor_coefficient is not None:
            return _column_product(H, [self.factor_coefficient] * self.dim, np.complex128)
        if self.modes is not None:
            rows = map(tuple, H.tolist())
            return np.array([self.modes.get(h, 0j) for h in rows], dtype=np.complex128)
        return np.array([self._coefficient(h) for h in map(tuple, H.tolist())], dtype=np.complex128)

    def coefficient(self, h) -> complex:
        """Exact Fourier coefficient at the frequency index h, the one-row
        case of ``coefficients``."""
        return complex(self.coefficients([h])[0])

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
_SLAB_ROWS = 2**14   # box points per slab of a generic oracle's scan


@functools.lru_cache(maxsize=64)
def _factor_norm_sq(coeff, box_radius: int, two_alpha: float, gamma: float) -> float:
    """sum over m = -box_radius..box_radius of |coeff(m)|^2 * r(m), the
    squared norm of one factor of a coordinate-product oracle; coeff(-m) is
    called, not assumed to match coeff(m) in magnitude.

    Memoised on (factor function, radius, 2*alpha, gamma): the harnesses and
    every ``epsilon_bound`` call ask for the same norm, which takes
    2*box_radius + 1 Python coefficient calls (about 10 ms at the default
    4096 on a 2-core Xeon).  The key holds the function itself, so distinct
    factor functions never share an entry, and a factor function must be
    pure and hashable.
    """
    return fsum(abs(coeff(m)) ** 2 * _r_factor(m, two_alpha, gamma)
                for m in range(-box_radius, box_radius + 1))


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

    Two paths: a coordinate-product oracle multiplies its factor's memoised
    sums over -box_radius..box_radius (``_factor_norm_sq``); any other
    oracle sums the nonzero terms at its rows in the box (its modes there,
    or the whole box, ~2e7 points at most, in slabs) with one ``fsum``.
    """
    box_radius = _integer(box_radius, 0, "box_radius")
    if f.dim != params.dim:
        raise ValueError("oracle dimension does not match params")
    gammas = weights.require(params.dim)
    if f.factor_coefficient is not None:
        return math.prod((_factor_norm_sq(f.factor_coefficient, box_radius, 2.0 * params.alpha, g)
                          for g in gammas), start=1.0)
    if f.modes is not None:
        inside = [h for h in f.modes if max(map(abs, h)) <= box_radius]
        slabs = [_frequency_rows(inside, f.dim, "mode")]
    else:
        shape = (2 * box_radius + 1,) * f.dim
        size = math.prod(shape)
        if size > _BOX_SCAN_LIMIT:
            raise ValueError("box scan too large for a generic oracle; reduce box_radius")
        slabs = (np.stack(np.unravel_index(np.arange(i, min(i + _SLAB_ROWS, size)), shape), axis=1)
                 - box_radius for i in range(0, size, _SLAB_ROWS))
    return fsum(abs(c) ** 2 * r
                for H in slabs
                for c, r in zip(f.coefficients(H).tolist(), _r_rows(H, params, weights).tolist())
                if c)
