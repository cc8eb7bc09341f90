"""
Tests for the Korobov-space domain types and the analytic test functions.

Every closed-form Fourier coefficient used by the package is validated here
against adaptive quadrature before anything downstream relies on it.
"""

import math
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta as scipy_zeta

import medlattice
from medlattice import (
    FrequencyIndex,
    LatticeConfig,
    ProductWeights,
    SmoothnessParams,
    SpectralOracle,
    cosine_pair_oracle,
    dual_membership,
    enumerate_hyperbolic_cross,
    estimate_coefficients,
    korobov_norm_sq_truncated,
    r_weight,
    riemann_zeta,
)

from medlattice.lattice import _lattice_nodes, rng_stream

# aliased so pytest does not try to collect the oracle factories as tests
from medlattice import test_function_f1 as function_f1
from medlattice import test_function_f2 as function_f2

# Support of the kink factor: 25/121 - (x - 1/2)^2 >= 0 on [1/22, 21/22].
_KINK_SUPPORT = (1.0 / 22.0, 21.0 / 22.0)


def _g1(x):
    return (121.0 * math.sqrt(33.0) / 100.0) * np.maximum(25.0 / 121.0 - (x - 0.5) ** 2, 0.0)


def _g2(x):
    return (x - 0.5) ** 2 * np.sin(2.0 * pi * x - pi)


def _quad_coefficient(g, h, points=None):
    """Fourier coefficient of g by adaptive quadrature: int g(x) e^{-2 pi i h x} dx."""
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    if points is not None:
        kw["points"] = list(points)
    re, _ = quad(lambda x: g(x) * math.cos(2.0 * pi * h * x), 0.0, 1.0, **kw)
    im, _ = quad(lambda x: -g(x) * math.sin(2.0 * pi * h * x), 0.0, 1.0, **kw)
    return complex(re, im)


class TestRiemannZeta:
    def test_closed_forms(self):
        """zeta(2) = pi^2/6 and zeta(4) = pi^4/90."""
        assert abs(riemann_zeta(2.0) - pi**2 / 6.0) < 1e-12
        assert abs(riemann_zeta(4.0) - pi**4 / 90.0) < 1e-12

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.7, 6.0])
    def test_against_euler_maclaurin(self, q):
        """Independent Euler-Maclaurin evaluation with two correction terms."""
        M = 2000
        partial = math.fsum(n ** (-q) for n in range(1, M))
        tail = M ** (1.0 - q) / (q - 1.0) + 0.5 * M ** (-q) + q * M ** (-q - 1.0) / 12.0
        assert abs(riemann_zeta(q) - (partial + tail)) < 1e-11 * riemann_zeta(q)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 300.0, exclude_min=True))
    @example(1.0 + 1e-12)
    @example(1.0 + 1e-6)
    @example(1.001)
    @example(13.97)
    @example(300.0)
    def test_against_scipy(self, q):
        """Euler-Maclaurin matches scipy.special.zeta on (1, 300]."""
        assert abs(riemann_zeta(q) - scipy_zeta(q, 1)) <= 4e-15 * scipy_zeta(q, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)
        with pytest.raises(ValueError):
            riemann_zeta(0.5)


class TestImportFootprint:
    def test_package_import_loads_no_scipy(self):
        """scipy is a test-only dependency: the package never imports it."""
        env = dict(os.environ)
        src = str(Path(medlattice.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, medlattice, medlattice.experiment\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestProductWeights:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            ProductWeights([0.5, 0.9])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProductWeights([1.5, 1.0])
        with pytest.raises(ValueError):
            ProductWeights([1.0, 0.0])

    def test_require_and_covers(self):
        w = ProductWeights([1.0, 0.5, 0.25])
        assert w.covers(3) and not w.covers(4)
        assert w.require(2) == (1.0, 0.5)
        with pytest.raises(ValueError):
            w.require(4)


class TestSmoothnessParams:
    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            SmoothnessParams(0.5, 1)
        SmoothnessParams(0.5000001, 1)

    def test_dim_domain(self):
        with pytest.raises(ValueError):
            SmoothnessParams(1.0, 0)


class TestRWeight:
    def test_simple_values(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        assert r_weight(FrequencyIndex([0]), p, w) == 1.0
        assert r_weight(FrequencyIndex([3]), p, w) == 9.0
        p15 = SmoothnessParams(1.5, 1)
        assert r_weight(FrequencyIndex([4]), p15, w) == 64.0

    def test_weights_divide(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 0.25])
        assert r_weight(FrequencyIndex([1, 2]), p, w) == 16.0

    def test_clamped_at_one(self):
        # |h_j|^(2 alpha) / gamma_j below one contributes a factor of one
        p = SmoothnessParams(0.75, 2)
        w = ProductWeights([1.0, 1.0])
        assert r_weight(FrequencyIndex([1, -1]), p, w) == 1.0

    def test_overflow_sentinel(self):
        p = SmoothnessParams(1.5, 1)
        w = ProductWeights([1.0])
        assert r_weight(FrequencyIndex([10**200]), p, w) == math.inf

    def test_length_mismatch(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 1.0])
        with pytest.raises(ValueError):
            r_weight(FrequencyIndex([1]), p, w)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5))
    def test_sign_invariance(self, comps):
        p = SmoothnessParams(1.25, len(comps))
        w = ProductWeights([1.0] * len(comps))
        h = FrequencyIndex(comps)
        assert r_weight(h, p, w) == r_weight(-h, p, w)
        assert r_weight(h, p, w) >= 1.0

    @given(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=3),
        st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=3),
    )
    def test_block_multiplicative(self, left, right):
        """r factorizes over coordinate blocks with matching weight slices."""
        gam = [1.0, 0.75, 0.5, 0.5, 0.25, 0.25][: len(left) + len(right)]
        alpha = 1.5
        whole = r_weight(
            FrequencyIndex(left + right),
            SmoothnessParams(alpha, len(left) + len(right)),
            ProductWeights(gam),
        )
        a = r_weight(FrequencyIndex(left), SmoothnessParams(alpha, len(left)), ProductWeights(gam[: len(left)]))
        b = r_weight(FrequencyIndex(right), SmoothnessParams(alpha, len(right)), ProductWeights(gam[len(left):]))
        assert whole == pytest.approx(a * b, rel=1e-12)


class TestFourierCoefficientsAgainstQuadrature:
    """The closed-form 1-D coefficients, pinned against adaptive quadrature."""

    @pytest.mark.parametrize("h", [0, 1, 2, 3, 5, 10, 17])
    def test_kink_factor(self, h):
        exact = function_f1(1).factor_coefficient(h)
        numeric = _quad_coefficient(_g1, h, points=_KINK_SUPPORT)
        assert abs(exact - numeric) < 1e-12

    @pytest.mark.parametrize("h", [0, 1, 2, 3, 5, 10, 17])
    def test_poly_sine_factor(self, h):
        exact = function_f2(1).factor_coefficient(h)
        numeric = _quad_coefficient(_g2, h)
        assert abs(exact - numeric) < 1e-12

    @pytest.mark.parametrize("h", [1, 2, 7])
    def test_conjugate_symmetry(self, h):
        for f in (function_f1(1), function_f2(1)):
            c_plus = f.factor_coefficient(h)
            c_minus = f.factor_coefficient(-h)
            assert abs(c_minus - c_plus.conjugate()) < 1e-15

    def test_kink_norm_is_one(self):
        val, _ = quad(lambda x: _g1(x) ** 2, 0.0, 1.0, points=list(_KINK_SUPPORT), epsabs=1e-14)
        assert abs(val - 1.0) < 1e-12
        assert function_f1(1).l2_norm_sq == 1.0

    def test_poly_sine_norm_closed_form(self):
        val, _ = quad(lambda x: _g2(x) ** 2, 0.0, 1.0, epsabs=1e-14)
        closed = 1.0 / 160.0 - 1.0 / (32.0 * pi**2) + 3.0 / (64.0 * pi**4)
        assert abs(val - closed) < 1e-14
        assert abs(function_f2(1).l2_norm_sq - closed) < 1e-16

    def test_parseval_partial_sums(self):
        """Sum of |coefficient|^2 over |h| <= 2000 recovers the L2 norm."""
        for f in (function_f1(1), function_f2(1)):
            total = math.fsum(
                abs(f.factor_coefficient(h)) ** 2 for h in range(-2000, 2001)
            )
            assert abs(total - f.l2_norm_sq) < 1e-9 * max(f.l2_norm_sq, 1.0)

    def test_product_coefficient(self):
        """One row against its factors; then the rows of a cross and of
        aliased frequencies in one call, equal to a Python product of the
        factors (a zero may differ in sign)."""
        f = function_f2(3)
        c = f.coefficient((1, 2, -3))
        g = function_f2(1).factor_coefficient
        assert abs(c - g(1) * g(2) * g(-3)) < 1e-18
        H = enumerate_hyperbolic_cross(12.0, SmoothnessParams(1.5, 3), ProductWeights([1.0] * 3)).H
        H = np.concatenate([H, 10903 * H - 5])
        for f in (function_f1(3), function_f2(3)):
            loop = [math.prod(f.factor_coefficient(c) for c in h) for h in H.tolist()]
            assert f.coefficients(H).tolist() == loop

    def test_zero_component_kills_f2(self):
        f = function_f2(2)
        assert f.coefficient((0, 5)) == 0j
        assert f.coefficient((5, 0)) == 0j


class TestSynthesis:
    """Partial Fourier sums converge to the pointwise evaluations."""

    def _partial_sum_1d(self, f, x, radius):
        hs = np.arange(-radius, radius + 1)
        coeffs = np.array([f.factor_coefficient(int(h)) for h in hs])
        return np.exp(2j * pi * np.outer(x, hs)) @ coeffs

    def test_one_dimensional(self):
        rng = np.random.default_rng(7)
        x = rng.random(100)
        f1, f2 = function_f1(1), function_f2(1)
        s1 = self._partial_sum_1d(f1, x, 512)
        s2 = self._partial_sum_1d(f2, x, 512)
        assert np.max(np.abs(s1 - f1.evaluate(x[:, None]))) < 5e-4
        assert np.max(np.abs(s2 - f2.evaluate(x[:, None]))) < 1e-6

    def test_two_dimensional(self):
        rng = np.random.default_rng(7)
        pts = rng.random((50, 2))
        for f, tol in ((function_f1(2), 1e-2), (function_f2(2), 1e-5)):
            per_axis = [self._partial_sum_1d(f, pts[:, j], 64) for j in range(2)]
            synth = per_axis[0] * per_axis[1]
            assert np.max(np.abs(synth - f.evaluate(pts))) < tol

    def test_single_point_and_batch_agree(self):
        f = function_f1(2)
        pt = np.array([0.3, 0.8])
        batch = f.evaluate(pt[None, :])
        assert batch.shape == (1,)
        assert f.evaluate(pt) == batch[0]

    def test_dimension_mismatch(self):
        f = function_f1(2)
        with pytest.raises(ValueError):
            f.evaluate(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            f.coefficient((1, 2, 3))


def _reference_f1(pts):
    """f1 as its formula, one new array per step and a product from 1."""
    scale = 121.0 * math.sqrt(33.0) / 100.0
    vals = np.ones(pts.shape[0])
    for j in range(pts.shape[1]):
        vals = vals * (scale * np.maximum(25.0 / 121.0 - (pts[:, j] - 0.5) ** 2, 0.0))
    return vals


def _reference_f2(pts):
    """f2 as its formula, one new array per step and a product from 1."""
    vals = np.ones(pts.shape[0])
    for j in range(pts.shape[1]):
        vals = vals * ((pts[:, j] - 0.5) ** 2 * np.sin(2.0 * pi * pts[:, j] - pi))
    return vals


class TestInPlaceEvaluation:
    """The product oracles evaluate in place on new arrays; every value is
    bitwise that of the formula."""

    CASES = [(function_f1, _reference_f1), (function_f2, _reference_f2)]

    @staticmethod
    def _point_sets(d):
        rng = np.random.default_rng(100 + d)
        edges = np.array([0.0, 0.5, 0.5 - 5.0 / 11.0, 0.5 + 5.0 / 11.0, 0.25, np.nextafter(1.0, 0.0)])
        config = LatticeConfig(39409, d)
        z = rng_stream(d, 0).integers(1, config.N, size=d)
        delta = rng_stream(d, 1).random(d)
        return [
            rng.random((1000, d)),
            np.repeat(edges[:, None], d, axis=1),
            _lattice_nodes(config, z, delta, np.arange(config.N)),  # coordinate-major, as the estimator passes them
        ]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bitwise_equal_to_the_formula(self, d):
        for make, reference in self.CASES:
            f = make(d)
            for pts in self._point_sets(d):
                assert f.evaluate(pts).tobytes() == reference(pts).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_read_only_input_left_unchanged(self, d):
        pts = self._point_sets(d)[2]
        before = pts.copy()
        pts.flags.writeable = False
        for make, reference in self.CASES:
            assert make(d).evaluate(pts).tobytes() == reference(before).tobytes()
            assert pts.tobytes() == before.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_new_array_on_every_call(self, d):
        pts = self._point_sets(d)[0]
        for make, _ in self.CASES:
            f = make(d)
            first, second = f.evaluate(pts), f.evaluate(pts)
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, pts)


class TestCosinePair:
    def test_modes_and_norm(self):
        f = cosine_pair_oracle((2, -1))
        assert f.coefficient((2, -1)) == 0.5
        assert f.coefficient((-2, 1)) == 0.5
        assert f.coefficient((1, 1)) == 0j
        assert f.l2_norm_sq == 0.5

    def test_pointwise(self):
        f = cosine_pair_oracle((3,))
        x = np.linspace(0.0, 1.0, 11)[:, None]
        assert np.allclose(f.evaluate(x), np.cos(6.0 * pi * x[:, 0]), atol=1e-15)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            cosine_pair_oracle((0, 0))


class TestTruncatedNorm:
    def test_constant_function(self):
        """f = 1 has truncated norm 1 in every space."""
        one = SpectralOracle(
            dim=2,
            coefficient=lambda c: 1.0 + 0j if c == (0, 0) else 0j,
            l2_norm_sq=1.0,
            evaluate=lambda pts: np.ones(pts.shape[0]),
            modes={(0, 0): 1.0 + 0j},
        )
        p = SmoothnessParams(1.5, 2)
        w = ProductWeights([1.0, 0.5])
        assert korobov_norm_sq_truncated(one, p, w, 4) == 1.0

    def test_single_pair(self):
        """cos(2 pi h0.x) contributes |1/2|^2 r(h0) for each of the two modes."""
        h0 = (1, 2)
        f = cosine_pair_oracle(h0)
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 0.5])
        expected = 0.5 * r_weight(FrequencyIndex(h0), p, w)
        assert korobov_norm_sq_truncated(f, p, w, 2) == pytest.approx(expected, rel=1e-14)
        # radius too small to see the modes
        assert korobov_norm_sq_truncated(f, p, w, 1) == 0.0

    def test_factorized_equals_box_scan(self):
        """The factorized product-oracle path agrees with a direct box scan."""
        f = function_f2(2)
        generic = SpectralOracle(
            dim=2,
            coefficient=f.coefficient,
            l2_norm_sq=f.l2_norm_sq,
            evaluate=f.evaluate,
        )
        p = SmoothnessParams(1.2, 2)
        w = ProductWeights([1.0, 0.5])
        a = korobov_norm_sq_truncated(f, p, w, 12)
        b = korobov_norm_sq_truncated(generic, p, w, 12)
        assert a == pytest.approx(b, rel=1e-12)

    def test_refuses_factor_and_modes(self):
        """An oracle takes a factor or modes, not both: given both, it would
        read the factor alone and ignore the modes."""
        f = function_f2(1)
        with pytest.raises(ValueError, match="factor_coefficient or modes, not both"):
            SpectralOracle(
                dim=1,
                coefficient=None,
                l2_norm_sq=f.l2_norm_sq,
                evaluate=f.evaluate,
                factor_coefficient=f.factor_coefficient,
                modes={(1,): 0.5, (-1,): 0.5},
            )

    def test_factorized_matches_direct_sum_1d(self):
        f = function_f1(1)
        p = SmoothnessParams(1.25, 1)
        w = ProductWeights([0.5])
        radius = 40
        direct = math.fsum(
            abs(f.factor_coefficient(h)) ** 2 * r_weight(FrequencyIndex([h]), p, w)
            for h in range(-radius, radius + 1)
        )
        assert korobov_norm_sq_truncated(f, p, w, radius) == pytest.approx(direct, rel=1e-13)

    def test_monotone_in_radius(self):
        f = function_f1(1)
        p = SmoothnessParams(1.4, 1)
        w = ProductWeights([1.0])
        vals = [korobov_norm_sq_truncated(f, p, w, r) for r in (0, 1, 4, 16, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_box_scan_refused_when_huge(self):
        f = function_f2(3)
        generic = SpectralOracle(
            dim=3, coefficient=f.coefficient, l2_norm_sq=f.l2_norm_sq, evaluate=f.evaluate
        )
        p = SmoothnessParams(1.5, 3)
        w = ProductWeights([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            korobov_norm_sq_truncated(generic, p, w, 200)

    def test_input_validation(self):
        f = function_f1(1)
        p = SmoothnessParams(1.5, 1)
        w = ProductWeights([1.0])
        with pytest.raises(ValueError):
            korobov_norm_sq_truncated(f, p, w, -1)
        with pytest.raises(ValueError):
            korobov_norm_sq_truncated(f, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]), 1)


def _reference_factorized_norm(f, params, weights, box_radius):
    """The factorized truncated norm as one loop over the coordinates, as it
    was before the per-factor sums were memoised."""
    coeff = f.factor_coefficient
    two_alpha = 2.0 * params.alpha
    sq = [abs(coeff(m)) ** 2 for m in range(box_radius + 1)]
    out = 1.0
    for gj in weights.require(params.dim):
        terms = [sq[0]]
        for m in range(1, box_radius + 1):
            terms.append(2.0 * sq[m] * max(m**two_alpha / gj, 1.0))
        out *= math.fsum(terms)
    return out


def _factor_oracle(factor_coefficient):
    return SpectralOracle(
        dim=1,
        coefficient=None,
        l2_norm_sq=1.0,
        evaluate=lambda pts: np.zeros(pts.shape[0]),
        factor_coefficient=factor_coefficient,
    )


class TestMemoisedNorm:
    """The factorized norm takes each factor's sum from a memo keyed by
    (factor function, radius, 2*alpha, gamma_j)."""

    @pytest.mark.parametrize("factory, alpha", [(function_f1, 1.5), (function_f2, 2.5)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("weighting", ["unit", "poly:2"])
    @pytest.mark.parametrize("radius", [0, 1, 4096])
    def test_bitwise_equal_to_the_loop(self, factory, alpha, d, weighting, radius):
        f = factory(d)
        p = SmoothnessParams(alpha, d)
        gammas = [1.0] * d if weighting == "unit" else [j**-2.0 for j in range(1, d + 1)]
        w = ProductWeights(gammas)
        expected = _reference_factorized_norm(f, p, w, radius)
        # cold or warm memo, the same bits
        for _ in range(2):
            assert korobov_norm_sq_truncated(f, p, w, radius).hex() == expected.hex()

    def test_second_evaluation_makes_no_coefficient_call(self):
        calls = []

        def counting(m):
            calls.append(m)
            return function_f1(1).factor_coefficient(m)

        f = _factor_oracle(counting)
        p, w = SmoothnessParams(1.5, 1), ProductWeights([1.0])
        first = korobov_norm_sq_truncated(f, p, w, 64)
        assert len(calls) == 65
        assert korobov_norm_sq_truncated(_factor_oracle(counting), p, w, 64) == first
        assert len(calls) == 65

    def test_distinct_factor_functions_never_share_an_entry(self):
        """Factor functions with equal code but different values, and with
        equal radius, alpha and gamma, each get their own sum."""

        def scaled(c):
            return lambda m: c * function_f2(1).factor_coefficient(m)

        p, w = SmoothnessParams(2.5, 1), ProductWeights([1.0])
        oracles = [_factor_oracle(scaled(c)) for c in (1.0, 2.0, 3.0)]
        norms = [korobov_norm_sq_truncated(f, p, w, 32) for f in oracles]
        for f, norm in zip(oracles, norms):
            assert norm == _reference_factorized_norm(f, p, w, 32)
        assert norms[1] == pytest.approx(4.0 * norms[0], rel=1e-14)
        assert norms[2] == pytest.approx(9.0 * norms[0], rel=1e-14)


class TestNormGrowthDiagnostic:
    """Growth of the truncated norm separates alpha at and below the critical
    smoothness of the kink function (3/2)."""

    def _ratio(self, alpha):
        f = function_f1(1)
        p = SmoothnessParams(alpha, 1)
        w = ProductWeights([1.0])
        lo = korobov_norm_sq_truncated(f, p, w, 2**10)
        hi = korobov_norm_sq_truncated(f, p, w, 2**12)
        return hi / lo

    def test_divergent_at_critical_alpha(self):
        assert self._ratio(1.5) > 1.05

    @pytest.mark.xfail(
        reason="at alpha=1.4 the radius-2^10 to 2^12 growth measures 1.0232; "
        "the sum converges but not to within 1.01 at these radii",
        strict=True,
    )
    def test_tight_convergence_below_critical(self):
        assert self._ratio(1.4) < 1.01

    def test_convergence_below_critical(self):
        # frozen observed value 1.023213; well separated from the 1.0858
        # measured at alpha = 3/2
        assert self._ratio(1.4) < 1.03


def test_oracle_constructors_reject_bad_dim():
    with pytest.raises(ValueError):
        function_f1(0)
    with pytest.raises(ValueError):
        function_f2(0)


def test_non_integral_components_rejected():
    """A frequency or generating-vector component with int(c) != c raises
    instead of being truncated toward zero."""
    cross = enumerate_hyperbolic_cross(4.0, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))
    f = function_f1(2)
    config = LatticeConfig(101, 2)
    estimate = lambda Z: estimate_coefficients(
        f.evaluate, config, Z, [[0.25, 0.5]], np.zeros((1, 2), dtype=np.int64)
    )
    calls = [
        lambda: (0.5, 1) in cross,
        lambda: f.coefficient((0.5, 1)),
        lambda: dual_membership((0.5, 0), config, (1, 2)),
        lambda: dual_membership((1, 0), config, (1.5, 2)),
        lambda: dual_membership((1, 0), config, np.array([3.0, 2.5])),
        lambda: estimate([[1.5, 2]]),
        lambda: estimate(np.array([[3.0, np.float64(2.5)]])),
        lambda: FrequencyIndex((0, np.float64(2.5))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be integers"):
            call()
    # integral values of other types still pass
    assert (1.0, np.int64(1)) in cross
    assert f.coefficient((0.0, 1.0)) == f.coefficient((0, 1))
    assert dual_membership((2, -3), config, (np.int64(3), 2.0))
    assert estimate([[3.0, 2.0]]).tobytes() == estimate(np.array([[3, 2]])).tobytes()


def test_bool_frequency_components_rejected():
    """True is refused, not read as the frequency component 1, as stream
    keys and every count refuse it."""
    for components in ((True, 0), (0, np.True_), (np.False_,)):
        with pytest.raises(ValueError, match="frequencies must be integers"):
            FrequencyIndex(components)
    assert FrequencyIndex((1, np.int64(0))).components == (1, 0)
