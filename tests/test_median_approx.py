"""
Tests for the median-of-estimates approximation: the componentwise complex
median, the repetition loop, the error functional epsilon(h), and the two
Monte-Carlo verification harnesses.
"""

import cmath
import dataclasses
import gc
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medlattice import (
    BudgetSpec,
    FrequencyIndex,
    ProductWeights,
    SmoothnessParams,
    compute_Nstar,
    compute_PN,
    cosine_pair_oracle,
    enumerate_hyperbolic_cross,
    epsilon_bound,
    evaluate,
    exact_squared_error,
    korobov_norm_sq_truncated,
    load_approximation,
    run,
    save_approximation,
    select_params,
    theorem1_bound,
    verify_concentration,
    verify_median_amplification,
)
from medlattice import index_set, median_approx
from medlattice import test_function_f1 as function_f1
from medlattice import test_function_f2 as function_f2
from medlattice.index_set import HyperbolicCross
from medlattice.korobov import SpectralOracle
from medlattice.lattice import (
    _BLOCK_BYTES,
    PURPOSE_GENVEC,
    PURPOSE_SHIFT,
    LatticeConfig,
    _chirp_plan,
    _draw_lattices,
    rng_stream,
)
from medlattice.median_approx import (
    _PURPOSE_VERIFY_SHIFT,
    AlgorithmParams,
    MedianApproximation,
    Provenance,
    _median,
    _repetitions,
    _report,
    lemma_bound_amplified,
    lemma_bound_single,
)

D1 = SmoothnessParams(2.5, 1)
W1 = ProductWeights([1.0])
D2 = SmoothnessParams(2.5, 2)
W2 = ProductWeights([1.0, 1.0])


def params_for(exponent, problem, weights, R=None, seed=42):
    sel = select_params(BudgetSpec(2**exponent, 0.01), problem, weights)
    params = sel.algorithm_params(seed)
    return params if R is None else dataclasses.replace(params, R=R)


def single_mode_oracle(h0):
    """One complex exponential e^{2 pi i h0.x}; aliases with nothing."""
    h0 = tuple(int(c) for c in h0)
    hv = np.asarray(h0, dtype=float)
    return SpectralOracle(
        dim=len(h0),
        coefficient=lambda c: 1.0 + 0j if c == h0 else 0j,
        l2_norm_sq=1.0,
        evaluate=lambda pts: np.exp(2j * np.pi * (pts @ hv)),
        modes={h0: 1.0 + 0j},
    )


def _unit_at_one(m):
    """The factor e(x): coefficient 1 at m = 1 and 0 at m = -1."""
    return 1.0 + 0j if m == 1 else 0j


def exponential_product_oracle(d):
    """single_mode_oracle((1,) * d) as the product of d factors e(x_j)."""
    hv = np.ones(d)
    return SpectralOracle(
        dim=d,
        coefficient=None,
        l2_norm_sq=1.0,
        evaluate=lambda pts: np.exp(2j * np.pi * (pts @ hv)),
        factor_coefficient=_unit_at_one,
    )


def untouched_oracle(dim):
    """An oracle whose every value or coefficient fails the test."""

    def untouched(*args):
        raise AssertionError("the oracle was called")

    return SpectralOracle(dim=dim, coefficient=untouched, l2_norm_sq=1.0, evaluate=untouched,
                          factor_coefficient=untouched)


@st.composite
def conjugate_symmetric_coefficients(draw):
    """{frequency tuple: coefficient} with c_{-h} = conj(c_h), d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    coeffs = {(0,) * d: complex(draw(parts))}
    for h in draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), max_size=30)):
        if h not in coeffs:
            c = complex(draw(parts), draw(parts))
            coeffs[h] = c
            coeffs[tuple(-v for v in h)] = c.conjugate()
    return coeffs


def box_coefficients(radii, seed):
    """{frequency tuple: coefficient}, conjugate-symmetric, on about half of
    the box |h_j| <= K_j, and reaching every radius K_j."""
    rng = np.random.default_rng(seed)
    d = len(radii)
    coeffs = {(0,) * d: complex(rng.uniform(-1.0, 1.0))}
    axes = {tuple(K if i == j else 0 for i in range(d)) for j, K in enumerate(radii)}
    for h in itertools.product(*[range(-K, K + 1) for K in radii]):
        if h not in coeffs and (h in axes or rng.random() < 0.5):
            c = complex(*rng.uniform(-1.0, 1.0, 2))
            coeffs[h] = c
            coeffs[tuple(-v for v in h)] = c.conjugate()
    return coeffs


def approximation_from(coeffs):
    """A MedianApproximation over exactly the frequencies of ``coeffs``."""
    d = len(next(iter(coeffs)))
    problem = SmoothnessParams(2.5, d)
    weights = ProductWeights([1.0] * d)
    cross = HyperbolicCross(
        L=1.0,
        params=problem,
        weights=weights,
        H=np.array(sorted(coeffs), dtype=np.int64),
    )
    return MedianApproximation(
        index_set=cross,
        coefficients={FrequencyIndex(h): c for h, c in coeffs.items()},
        provenance=Provenance(params=params_for(12, D1, W1), problem=problem, weights=weights),
        eval_count=0,
    )


odd_complex_lists = st.lists(
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
    min_size=1,
    max_size=9,
).map(lambda xs: xs if len(xs) % 2 == 1 else xs[:-1])


def median_of(values):
    """_median of an odd-length list of complex values."""
    return _median(np.asarray(values), axis=0)


class TestComplexMedian:
    def test_worked_example(self):
        assert median_of([1 + 1j, 2 + 3j, 5 + 2j]) == 2 + 2j

    @given(seed=st.integers(0, 2**32 - 1), axis=st.integers(0, 2))
    def test_along_an_axis_matches_sorting(self, seed, axis):
        """_median, which run and the amplification harness use, takes the
        middle sorted real and imaginary part of every lane."""
        rng = np.random.default_rng(seed)
        shape = [int(v) for v in rng.integers(1, 5, size=3)]
        shape[axis] = 2 * shape[axis] - 1
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _median(values, axis)
        lanes = np.moveaxis(values, axis, -1)
        k = shape[axis] // 2
        for idx in np.ndindex(lanes.shape[:-1]):
            lane = lanes[idx]
            assert got[idx] == complex(sorted(lane.real)[k], sorted(lane.imag)[k])

    def test_single_value(self):
        assert median_of([3.5 - 1.25j]) == 3.5 - 1.25j

    def test_permutation_invariance(self):
        values = [1 + 1j, 2 + 3j, 5 + 2j, -1 - 7j, 0.5 + 0j]
        expected = median_of(values)
        assert median_of(values[::-1]) == expected
        assert median_of(values[2:] + values[:2]) == expected

    @given(odd_complex_lists)
    def test_conjugate_equivariance(self, values):
        med = median_of(values)
        assert median_of([v.conjugate() for v in values]) == med.conjugate()

    @given(odd_complex_lists, st.randoms(use_true_random=False))
    def test_outlier_robustness(self, values, rnd):
        """Fewer than ceil(R/2) arbitrary outliers cannot drag the median
        outside the componentwise range of the untouched values."""
        R = len(values)
        k = R // 2
        if k == 0:
            return
        corrupted = list(values)
        positions = rnd.sample(range(R), k)
        for pos in positions:
            corrupted[pos] = complex(rnd.choice([-1e15, 1e15]), rnd.choice([-1e15, 1e15]))
        kept = [values[i] for i in range(R) if i not in positions]
        med = median_of(corrupted)
        assert min(v.real for v in kept) <= med.real <= max(v.real for v in kept)
        assert min(v.imag for v in kept) <= med.imag <= max(v.imag for v in kept)


class TestScaleQuantities:
    def test_PN_small_case(self):
        """d=1, gamma=1, tau=1, N=2: P = 1 + 2 (1 + log 2)."""
        got = compute_PN(1.0, SmoothnessParams(1.0, 1), ProductWeights([1.0]), 2)
        assert got == pytest.approx(1.0 + 2.0 * (1.0 + math.log(2.0)), rel=1e-14)
        assert got == pytest.approx(4.3863, abs=5e-5)

    def test_PN_product_structure(self):
        p1 = compute_PN(0.7, SmoothnessParams(1.5, 1), ProductWeights([0.6]), 211)
        p2 = compute_PN(0.7, SmoothnessParams(1.5, 2), ProductWeights([0.6, 0.6]), 211)
        assert p2 == pytest.approx(p1**2, rel=1e-13)

    def test_Nstar_dual_evaluation(self):
        """d=2, gamma=(1,1), tau=1, N=101 against the closed product form."""
        got = compute_Nstar(1.0, SmoothnessParams(1.0, 2), ProductWeights([1.0, 1.0]), 101)
        expected = 100.0 / (math.e * (1.0 + 2.0 * (1.0 + math.log(101.0))) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)


class TestAlgorithmParams:
    def test_from_problem_consistent(self):
        ap = params_for(14, D2, W2)
        assert ap.N_star == pytest.approx(
            (ap.N - 1) / (math.exp(1.0 / ap.tau) * ap.P_N), rel=1e-12
        )

    def test_even_R_rejected(self):
        with pytest.raises(ValueError):
            params_for(14, D2, W2, R=16)

    def test_composite_N_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmParams(N=100, R=3, tau=1.0, P_N=10.0, N_star=2.0, master_seed=0)

    def test_inconsistent_Nstar_rejected(self):
        ap = params_for(14, D2, W2)
        with pytest.raises(ValueError):
            AlgorithmParams(
                N=ap.N, R=ap.R, tau=ap.tau, P_N=ap.P_N, N_star=2.0 * ap.N_star, master_seed=0
            )

    def test_small_budget_rejected(self):
        """d=2 at N=101: no tau gives N_star >= 1, construction must refuse."""
        sel = select_params(BudgetSpec(1520, 0.01), D2, W2)
        assert sel.N_max == 101
        assert sel.N_star < 1.0
        with pytest.raises(ValueError, match="budget too small"):
            AlgorithmParams.from_problem(
                N=101, R=3, tau=sel.tau_star, master_seed=0, problem=D2, weights=W2
            )


class TestRun:
    def test_zero_function(self):
        ap = params_for(12, D1, W1)
        approx = run(lambda pts: np.zeros(pts.shape[0]), ap, D1, W1)
        assert all(c == 0j for c in approx.coefficients.values())
        assert approx.eval_count == ap.R * ap.N

    def test_exact_pair_recovery(self):
        """f = 2 cos(2 pi h0.x): coefficients at +-h0 recover 1."""
        ap = params_for(14, D2, W2, seed=20240805)
        cross = enumerate_hyperbolic_cross(ap.N_star, D2, W2)
        h0 = FrequencyIndex([1, 0])
        assert h0 in cross
        hv = np.array([1.0, 0.0])
        approx = run(lambda pts: 2.0 * np.cos(2 * np.pi * (pts @ hv)), ap, D2, W2)
        assert abs(approx.coefficients[h0] - 1.0) < 1e-10
        assert abs(approx.coefficients[-h0] - 1.0) < 1e-10
        others = [
            abs(c) for h, c in approx.coefficients.items() if tuple(h) not in ((1, 0), (-1, 0))
        ]
        assert max(others) < 1e-9

    def test_eval_count_by_wrapper(self):
        rows = []

        def f(pts):
            rows.append(pts.shape[0])
            return np.ones(pts.shape[0])

        ap = params_for(12, D1, W1)
        approx = run(f, ap, D1, W1)
        assert sum(rows) == ap.R * ap.N == approx.eval_count
        assert all(n == ap.N for n in rows)

    def test_workers_bit_identical(self):
        """At 2^15 the index set has at least log2(N) frequencies, so run
        takes the pair-packed FFTs, where a slice bound inside a pair would
        change the bits."""
        ap = params_for(15, D2, W2, seed=123)
        assert len(enumerate_hyperbolic_cross(ap.N_star, D2, W2)) >= math.log2(ap.N)
        f = function_f2(2)
        serial = run(f.evaluate, ap, D2, W2, workers=1)
        threaded = run(f.evaluate, ap, D2, W2, workers=4)
        assert serial.coefficients == threaded.coefficients

    @pytest.mark.parametrize("workers", [0, -2, 2.5, "2", None, True])
    def test_refuses_workers_that_are_not_a_positive_integer(self, workers):
        """Refused before any work, where 0 and -2 used to run one worker
        and 2.5 raised TypeError only once R >= 7."""
        ap = params_for(12, D1, W1)
        with pytest.raises(ValueError, match=f"workers = {workers!r} must be an integer >= 1"):
            run(function_f2(1).evaluate, ap, D1, W1, workers=workers)

    def test_numpy_integer_workers(self):
        ap = params_for(12, D1, W1)
        f = function_f2(1)
        serial = run(f.evaluate, ap, D1, W1, workers=1)
        assert run(f.evaluate, ap, D1, W1, workers=np.int64(2)).coefficients == serial.coefficients

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_value_raises(self, workers):
        """A NaN at one node of the last repetition raises, naming the count
        and that repetition; at workers=2 it lies in the second slice."""
        ap = params_for(12, D1, W1)
        last = ap.R - 1
        # node 0 of a lattice is its shift, which identifies the repetition
        shift = tuple(rng_stream(ap.master_seed, last, PURPOSE_SHIFT).random(1))

        def f(pts):
            vals = np.ones(pts.shape[0])
            if tuple(pts[0]) == shift:
                vals[5] = np.nan
            return vals

        assert ap.R > 2
        with pytest.raises(ValueError, match=f"1 non-finite values in repetition {last}$"):
            run(f, ap, D1, W1, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_non_finite_value_in_an_odd_repetition(self, workers):
        """A NaN in repetition R-2, the second lattice of the pair
        (R-3, R-2), names that repetition at every worker count."""
        ap = params_for(12, D1, W1)
        odd = ap.R - 2
        assert odd % 2 == 1
        # enough frequencies for the pair-packed FFTs, where R-2 is in a pair
        assert len(enumerate_hyperbolic_cross(ap.N_star, D1, W1)) >= math.log2(ap.N)
        shift = tuple(rng_stream(ap.master_seed, odd, PURPOSE_SHIFT).random(1))

        def f(pts):
            vals = np.cos(2 * np.pi * pts[:, 0])
            if tuple(pts[0]) == shift:
                vals[7] = np.nan
            return vals

        with pytest.raises(ValueError, match=f"1 non-finite values in repetition {odd}$"):
            run(f, ap, D1, W1, workers=workers)

    def test_coefficients_bitwise_across_workers(self):
        """For odd R, the coefficients are bitwise equal at workers 1, 2, 3
        and 8: every slice holds whole pairs of repetitions.  The index set
        has at least log2(N) frequencies, so run takes the pair-packed FFTs."""
        ap = params_for(15, D2, W2, seed=20240807)
        assert ap.R % 2 == 1
        assert len(enumerate_hyperbolic_cross(ap.N_star, D2, W2)) >= math.log2(ap.N)
        f = function_f2(2)
        outputs = []
        for workers in (1, 2, 3, 8):
            approx = run(f.evaluate, ap, D2, W2, workers=workers)
            outputs.append(np.array([approx.coefficients[h] for h in approx.index_set]).tobytes())
        assert outputs[1:] == outputs[:1] * 3

    def test_coefficients_bitwise_across_workers_one_lattice_blocks(self):
        """The same at 2^20 for f1 (N=39409, R=25), where a block holds one
        lattice and the transforms are chirp convolutions; at 5 workers an
        even split of 25 repetitions would cut the pair (4, 5)."""
        problem = SmoothnessParams(1.5, 2)
        ap = params_for(20, problem, W2, seed=7919)
        assert ap.R % 2 == 1 and _BLOCK_BYTES // (16 * ap.N) < 2
        f = function_f1(2)
        outputs = [
            run(f.evaluate, ap, problem, W2, workers=workers).coefficients.vector.tobytes()
            for workers in (1, 2, 3, 5)
        ]
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("workers", [2, 5])
    def test_cold_chirp_plan_is_thread_safe(self, workers):
        """Workers that all start on an empty plan cache give the
        coefficients of one worker bitwise (the 2^20 f1 problem above),
        also with more workers than cores and threads switched often."""
        problem = SmoothnessParams(1.5, 2)
        ap = params_for(20, problem, W2, seed=7919)
        f = function_f1(2)
        one = run(f.evaluate, ap, problem, W2).coefficients.vector.tobytes()
        _chirp_plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run(f.evaluate, ap, problem, W2, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert many.coefficients.vector.tobytes() == one

    def test_runs_share_one_live_index_set(self):
        """Two runs on one problem share one index set, which is freed with
        its last user; a cap violation still raises and stores nothing."""
        ap = params_for(12, D1, W1, seed=3)
        f = function_f2(1)
        first = run(f.evaluate, ap, D1, W1)
        second = run(f.evaluate, ap, D1, W1, workers=2)
        assert second.index_set is first.index_set
        cross = weakref.ref(first.index_set)
        del first, second
        gc.collect()
        assert cross() is None
        with pytest.raises(ValueError, match="exceeds the cap 1"):
            enumerate_hyperbolic_cross(ap.N_star, D1, W1, cap=1)
        assert (float(ap.N_star), D1, W1, 1) not in index_set._LIVE_CROSSES

    def test_conjugate_symmetry_real_input(self):
        ap = params_for(14, D2, W2, seed=7)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        worst = max(
            abs(approx.coefficients[-h] - approx.coefficients[h].conjugate())
            for h in approx.index_set
        )
        assert worst < 1e-12

    def test_coefficients_keyed_by_index_set(self):
        ap = params_for(14, D2, W2)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        assert set(approx.coefficients) == set(approx.index_set)
        with pytest.raises(ValueError):
            MedianApproximation(
                index_set=approx.index_set,
                coefficients={},
                provenance=approx.provenance,
                eval_count=approx.eval_count,
            )


def counting_oracle(f, evaluate=None):
    """``f`` with its evaluate (or ``evaluate``) wrapped to count the points
    it is called on, in the returned list's first entry."""
    points = [0]
    evaluate = evaluate or f.evaluate

    def counted(X):
        points[0] += X.shape[0]
        return evaluate(X)

    oracle = SpectralOracle(
        dim=f.dim,
        coefficient=f.coefficient,
        l2_norm_sq=f.l2_norm_sq,
        evaluate=counted,
        factor_coefficient=f.factor_coefficient,
    )
    return oracle, points


class TestRepetitions:
    """The one repetition core: ``run`` and both harnesses estimate
    through ``_repetitions``."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("exponent, fft", [(15, True), (14, False)], ids=["fft", "chirp"])
    def test_run_is_the_median_of_the_repetitions(self, exponent, fft, workers):
        """At 2^15 (d=2) the cross has at least log2(N) frequencies and the
        pairs share FFTs; at 2^14 it has fewer and takes chirp sums."""
        ap = params_for(exponent, D2, W2, seed=31)
        H = enumerate_hyperbolic_cross(ap.N_star, D2, W2).H
        assert (len(H) >= math.log2(ap.N)) == fft
        f = function_f2(2)
        config = LatticeConfig(ap.N, 2)
        keys = [(ap.master_seed, r) for r in range(ap.R)]
        Z, D = _draw_lattices(config, keys, PURPOSE_GENVEC, PURPOSE_SHIFT)
        ests = _repetitions(f.evaluate, config, Z, D, H, workers=workers)
        assert ests.shape == (ap.R, len(H)) and ests.dtype == np.complex128
        expected = _median(ests, axis=0).tobytes()
        approx = run(f.evaluate, ap, D2, W2, workers=workers)
        assert approx.coefficients.vector.tobytes() == expected

    @pytest.mark.parametrize("median, trials", [(True, 4), (False, 5)], ids=["median", "single"])
    def test_harness_evaluation_count(self, median, trials):
        """A harness evaluates f exactly trials*R*N (median) or trials*N
        (single) times."""
        ap = params_for(12, D1, W1, R=3, seed=2)
        oracle, points = counting_oracle(function_f2(1))
        harness = verify_median_amplification if median else verify_concentration
        report = harness(oracle, ap, D1, W1, trials=trials)
        assert points[0] == trials * (ap.R if median else 1) * ap.N
        assert all(r.trials == trials for r in report)

    def test_harness_evaluation_count_is_checked(self, monkeypatch):
        """A harness call that saw fewer evaluations than its lattices' N
        each fails, as run does."""
        def skip_f(f_eval, config, Z, D, H):
            return np.zeros((len(Z), len(H)), dtype=np.complex128)

        monkeypatch.setattr(median_approx, "estimate_coefficients", skip_f)
        ap = params_for(12, D1, W1, R=3, seed=2)
        message = rf"^evaluation count 0 != len\(Z\)\*N = {3 * ap.N}$"
        with pytest.raises(AssertionError, match=message):
            verify_median_amplification(function_f2(1), ap, D1, W1, trials=1)

    def test_non_finite_value_in_a_harness(self):
        """Two NaNs on the lattice of trial 1, repetition 1 of the median
        harness raise ValueError naming the count and the row, 1*R + 1."""
        ap = params_for(12, D1, W1, R=3, seed=4)
        shift = tuple(rng_stream(ap.master_seed, 1, 1, _PURPOSE_VERIFY_SHIFT).random(1))
        f = function_f2(1)

        def poisoned(X):
            vals = f.evaluate(X)
            if tuple(X[0]) == shift:
                vals[[3, 9]] = np.nan
            return vals

        oracle, _ = counting_oracle(f, poisoned)
        with pytest.raises(ValueError, match="f returned 2 non-finite values in repetition 4$"):
            verify_median_amplification(oracle, ap, D1, W1, trials=2)


class TestCoefficientView:
    """``MedianApproximation.coefficients``: a read-only mapping over one
    complex128 vector aligned with the index set."""

    @pytest.fixture(scope="class")
    def approx(self):
        return run(function_f2(2).evaluate, params_for(14, D2, W2, seed=5), D2, W2)

    def test_dict_built_equals_the_run(self, approx):
        as_dict = dict(approx.coefficients)
        rebuilt = dataclasses.replace(approx, coefficients=as_dict)
        assert rebuilt == approx
        assert rebuilt.coefficients == approx.coefficients == as_dict
        assert as_dict == approx.coefficients
        assert list(approx.coefficients) == list(approx.index_set.indices)
        assert all(type(c) is complex for c in approx.coefficients.values())
        assert rebuilt.coefficients.vector.tobytes() == approx.coefficients.vector.tobytes()

    def test_differing_value_is_unequal(self, approx):
        changed = dict(approx.coefficients)
        h = approx.index_set.indices[0]
        changed[h] = complex(np.nextafter(changed[h].real, np.inf), changed[h].imag)
        assert dataclasses.replace(approx, coefficients=changed) != approx
        assert approx.coefficients != changed

    def test_non_members_and_tuples_raise_key_error(self, approx):
        h = approx.index_set.indices[0]
        assert tuple(h) in approx.index_set
        for key in (tuple(h), FrequencyIndex([10**6, 0]), FrequencyIndex([0, 0, 0])):
            with pytest.raises(KeyError):
                approx.coefficients[key]
            assert key not in approx.coefficients
            assert approx.coefficients.get(key) is None

    def test_vector_is_read_only(self, approx):
        vector = approx.coefficients.vector
        assert vector.dtype == np.complex128 and vector.shape == (len(approx.index_set),)
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 0.0
        with pytest.raises(TypeError):
            approx.coefficients[approx.index_set.indices[0]] = 0j
        again = pickle.loads(pickle.dumps(approx))
        assert again == approx and not again.coefficients.vector.flags.writeable

    def test_caller_dict_is_copied(self, approx):
        as_dict = dict(approx.coefficients)
        rebuilt = dataclasses.replace(approx, coefficients=as_dict)
        as_dict[approx.index_set.indices[0]] = 5.0
        assert rebuilt.coefficients == approx.coefficients


def test_array_path_builds_no_frequency_index(monkeypatch, tmp_path):
    """run, the exact error, save, load and evaluate go through the (|A|, d)
    array alone: with FrequencyIndex unconstructible they all succeed, and
    the member tuple is never built."""
    problem = SmoothnessParams(1.5, 2)
    weights = ProductWeights([1.0, 1.0])
    params = params_for(15, problem, weights, seed=3)
    f = function_f1(2)

    def refuse(self, components):
        raise AssertionError("FrequencyIndex built")

    monkeypatch.setattr(FrequencyIndex, "__init__", refuse)
    approx = run(f.evaluate, params, problem, weights)
    assert exact_squared_error(f, approx) > 0.0
    path = tmp_path / "approx.csv"
    save_approximation(approx, path)
    back = load_approximation(path)
    assert np.array_equal(back.coefficients.vector, approx.coefficients.vector)
    points = np.random.default_rng(1).random((5, 2))
    assert np.array_equal(evaluate(back, points), evaluate(approx, points))
    for cross in (approx.index_set, back.index_set):
        assert "indices" not in vars(cross) and "_rows" not in vars(cross)


class TestErrorAgainstTheoremBound:
    """Theorem 1's bound as an empirical yardstick.  No runnable budget meets
    the theorem's hypotheses (at d=2 they first all hold at 2^41, with N
    above the 2^31 lattice limit; here, at 2^14, the contraction ratio
    exceeds one), so a pass shows the bound holding in practice, not the
    theorem."""

    def test_twenty_seeded_runs(self):
        """Exact squared error below the error-bound value on >= 19/20 runs."""
        f = function_f2(2)
        norm_sq = korobov_norm_sq_truncated(f, D2, W2, 2**12)
        sel = select_params(BudgetSpec(2**14, 0.01), D2, W2)
        bound = theorem1_bound(sel, D2, norm_sq)
        ok = 0
        for seed in range(20):
            ap = AlgorithmParams.from_problem(
                N=sel.N_max, R=sel.R, tau=sel.tau_star, master_seed=seed,
                problem=D2, weights=W2,
            )
            approx = run(f.evaluate, ap, D2, W2)
            if exact_squared_error(f, approx) <= bound:
                ok += 1
        assert ok >= 19


class TestEvaluate:
    def test_empty_approximation_is_zero(self):
        ap = params_for(12, D1, W1)
        empty = enumerate_hyperbolic_cross(0.5, D1, W1)
        approx = MedianApproximation(
            index_set=empty,
            coefficients={},
            provenance=Provenance(params=ap, problem=D1, weights=W1),
            eval_count=0,
        )
        assert evaluate(approx, np.array([0.3])) == 0.0

    def test_constant_mode(self):
        ap = params_for(12, D1, W1)
        approx = run(lambda pts: np.full(pts.shape[0], 2.5), ap, D1, W1)
        x = np.linspace(0, 1, 7)[:, None]
        assert np.allclose(evaluate(approx, x), 2.5, atol=1e-9)

    def test_tracks_input_function(self):
        ap = params_for(13, D1, W1, seed=3)
        f = function_f2(1)
        approx = run(f.evaluate, ap, D1, W1)
        x = np.random.default_rng(0).random((10, 1))
        gap = np.max(np.abs(evaluate(approx, x) - f.evaluate(x)))
        err = math.sqrt(exact_squared_error(f, approx))
        # L-infinity gap should be commensurate with the L2 error scale
        assert gap < 100.0 * max(err, 1e-12)

    def test_imaginary_residual_diagnostic(self):
        ap = params_for(12, D1, W1)
        cross = enumerate_hyperbolic_cross(ap.N_star, D1, W1)
        coeffs = {h: 0j for h in cross}
        coeffs[FrequencyIndex([1])] = 1.0 + 0j   # no conjugate partner
        bad = MedianApproximation(
            index_set=cross,
            coefficients=coeffs,
            provenance=Provenance(params=ap, problem=D1, weights=W1),
            eval_count=ap.R * ap.N,
        )
        with pytest.raises(ValueError, match="imaginary"):
            evaluate(bad, np.array([0.37]))

    @settings(max_examples=150, deadline=None)
    @given(
        data=conjugate_symmetric_coefficients(),
        rows=st.integers(2, 9),
        full_chunks=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_sum(self, data, rows, full_chunks, seed):
        """Against Re sum_h c_h e^{2 pi i h.x} over several chunks, the last
        one partial."""
        approx = approximation_from(data)
        H = np.array(list(data), dtype=float)
        c = np.array(list(data.values()))
        d = H.shape[1]
        rng = np.random.default_rng(seed)
        n = rows * full_chunks + int(rng.integers(1, rows))
        X = rng.uniform(-1.0, 2.0, (n, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                median_approx, "_CHUNK_BYTES", rows * approx._plan.bytes_per_point
            )
            assert approx._plan.chunk_rows == rows
            got = evaluate(approx, X)
        want = (np.exp(2j * np.pi * (X @ H.T)) @ c).real
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(c).sum()

    @settings(max_examples=60, deadline=None)
    @given(
        data=conjugate_symmetric_coefficients(),
        rows=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_points_equal_their_batch_values(self, data, rows, seed):
        """Bit for bit, in chunks of 1 to 9 points, for d = 1, 2, 3."""
        approx = approximation_from(data)
        d = len(next(iter(data)))
        X = np.random.default_rng(seed).uniform(-1.0, 2.0, (2 * rows + 1, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                median_approx, "_CHUNK_BYTES", rows * approx._plan.bytes_per_point
            )
            batch = evaluate(approx, X)
        assert np.array_equal([evaluate(approx, x) for x in X], batch)

    def test_single_point_equals_batch_bitwise(self):
        ap = params_for(14, D2, W2, seed=11)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        rows = approx._plan.chunk_rows
        X = np.random.default_rng(4).random((2 * rows + 1, 2))
        batch = evaluate(approx, X)
        singles = np.array([evaluate(approx, x) for x in X])
        assert np.array_equal(singles, batch)
        # the batch ends in a one-point chunk; other chunk boundaries too
        assert np.array_equal(evaluate(approx, X[rows - 1:]), batch[rows - 1:])

    def test_imaginary_residual_after_the_first_chunk(self):
        """Coefficients without their conjugate partners raise even when the
        first chunk's points, at x = 0, have no imaginary part."""
        ap = params_for(12, D1, W1)
        cross = enumerate_hyperbolic_cross(ap.N_star, D1, W1)
        coeffs = {h: 0j for h in cross}
        coeffs[FrequencyIndex([1])] = 1.0 + 0j
        bad = MedianApproximation(
            index_set=cross,
            coefficients=coeffs,
            provenance=Provenance(params=ap, problem=D1, weights=W1),
            eval_count=ap.R * ap.N,
        )
        rows = bad._plan.chunk_rows
        X = np.zeros((2 * rows + 1, 1))
        assert np.array_equal(evaluate(bad, X), np.ones(len(X)))
        for late in (rows, 2 * rows):
            X[late] = 0.37
            with pytest.raises(ValueError, match="imaginary"):
                evaluate(bad, X)
            X[late] = 0.0

    def test_memory_bounded(self):
        """One 65536-point call on |A| = 149 frequencies stays far below the
        16 * 65536 * 149 bytes of a dense (points, frequencies) matrix."""
        ap = params_for(18, D2, W2)
        cross = enumerate_hyperbolic_cross(ap.N_star, D2, W2)
        assert len(cross) == 149
        f = function_f2(2)
        approx = MedianApproximation(
            index_set=cross,
            coefficients={h: f.coefficient(h) for h in cross},
            provenance=Provenance(params=ap, problem=D2, weights=W2),
            eval_count=ap.R * ap.N,
        )
        X = np.random.default_rng(5).random((65536, 2))
        tracemalloc.start()
        try:
            evaluate(approx, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_non_finite_single_point_raises(self):
        approx = approximation_from(box_coefficients((2, 3), seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1 non-finite"):
                evaluate(approx, np.array([0.25, np.nan]))

    def test_inf_in_a_batch_raises(self):
        approx = approximation_from(box_coefficients((2, 3), seed=0))
        X = np.random.default_rng(1).random((50, 2))
        X[17, 0], X[30, 1] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2 non-finite"):
                evaluate(approx, X)

    def test_non_finite_coefficients_raise(self):
        """A NaN coefficient pair raises, naming the count, instead of
        evaluating to NaN with the residual check silenced."""
        coeffs = {(0,): 1 + 0j, (1,): complex("nan+0j"), (-1,): complex("nan+0j")}
        approx = approximation_from(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2 non-finite coefficients"):
                evaluate(approx, np.array([[0.1], [0.6]]))

    @pytest.mark.parametrize("shape", [(4, 3, 2), (1, 1, 2), (2, 1, 1, 2)])
    def test_points_with_more_than_two_axes_raise(self, shape):
        approx = approximation_from(box_coefficients((2, 3), seed=0))
        with pytest.raises(ValueError, match=r"expected \(2,\) or \(n, 2\)"):
            evaluate(approx, np.zeros(shape))

    def test_nan_point_does_not_hide_the_residual_check(self):
        """A NaN point raises; it never lets the other points of its chunk
        pass the conjugate-symmetry check unexamined."""
        ap = params_for(12, D1, W1)
        cross = enumerate_hyperbolic_cross(ap.N_star, D1, W1)
        coeffs = {h: 0j for h in cross}
        coeffs[FrequencyIndex([1])] = 1.0 + 0j   # no conjugate partner
        bad = MedianApproximation(
            index_set=cross,
            coefficients=coeffs,
            provenance=Provenance(params=ap, problem=D1, weights=W1),
            eval_count=ap.R * ap.N,
        )
        X = np.full((8, 1), 0.37)
        X[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(bad, X)
        X[3] = 0.37
        with pytest.raises(ValueError, match="imaginary"):
            evaluate(bad, X)

    @pytest.mark.parametrize("K", [0, 1, 2, 3, 5, 8, 100, 4096])
    def test_phase_table_accuracy(self, K):
        """Each entry against e(k x) with k x mod 1 reduced exactly, as a
        Fraction of the float x, within c * eps * (1 + K max|x|), c = 8.  The
        closed form cos/sin(x * 2 pi k) meets the same bound."""
        c = 8.0
        x = np.concatenate([np.random.default_rng(K).uniform(-1.0, 2.0, 10), [-1.0, 0.0]])
        table = median_approx._phase_table(
            x[:, None], np.empty((2 * K + 1, len(x)), dtype=np.complex128)
        )
        k = np.arange(-K, K + 1)
        exact = np.array([
            [cmath.exp(2j * math.pi * float(kk * Fraction(xi) % 1)) for xi in x.tolist()]
            for kk in k.tolist()
        ])
        closed = np.cos(x * (2.0 * math.pi * k[:, None])) + 1j * np.sin(
            x * (2.0 * math.pi * k[:, None])
        )
        bound = c * np.finfo(float).eps * (1.0 + K * np.abs(x).max())
        assert np.abs(table - exact).max() <= bound
        assert np.abs(closed - exact).max() <= bound

    @pytest.mark.parametrize("radii", [(0, 5), (7, 1), (3, 0, 9)])
    @pytest.mark.parametrize("rows", [2, 5, 9])
    def test_uneven_radii(self, radii, rows):
        """Unequal radii, one of them 0, over chunks of 2 to 9 points: the
        dense sum, the batch value of a lone point, and one complex
        exponential per coordinate and point."""
        data = box_coefficients(radii, seed=rows)
        approx = approximation_from(data)
        assert tuple(np.abs(approx._plan.H).max(axis=0)) == radii
        H = np.array(list(data), dtype=float)
        c = np.array(list(data.values()))
        d = len(radii)
        n = 3 * rows + 1
        X = np.random.default_rng(rows).uniform(-1.0, 2.0, (n, d))
        calls = {"exp": 0}

        def counted(name):
            ufunc = getattr(np, name)

            def wrapper(arg, *args, **kwargs):
                calls[name] += np.size(arg)
                return ufunc(arg, *args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                median_approx, "_CHUNK_BYTES", rows * approx._plan.bytes_per_point
            )
            mp.setattr(np, "exp", counted("exp"))
            got = evaluate(approx, X)
            assert approx._plan.chunk_rows == rows
            assert 0 < calls["exp"] <= n * d
            calls.update(exp=0)
            singles = np.array([evaluate(approx, x) for x in X])
            assert 0 < calls["exp"] <= n * d
        want = (np.exp(2j * np.pi * (X @ H.T)) @ c).real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(c).sum()
        assert np.array_equal(singles, got)


def exact_cross_approximation(exponent, alpha, d, multiple, H=None):
    """f2's exact coefficients on A_d(multiple * N_star) for the budget
    2^exponent at smoothness alpha, unit weights; ``H``, if given, maps the
    cross's rows to the rows kept, in any order."""
    problem = SmoothnessParams(alpha, d)
    weights = ProductWeights([1.0] * d)
    params = select_params(BudgetSpec(2**exponent, 0.01), problem, weights).algorithm_params(7)
    cross = enumerate_hyperbolic_cross(multiple * params.N_star, problem, weights)
    if H is not None:
        cross = HyperbolicCross(L=cross.L, params=problem, weights=weights, H=H(cross.H))
    vector = np.asarray(function_f2(d).coefficients(cross.H), dtype=np.complex128)
    return MedianApproximation(
        index_set=cross,
        coefficients=median_approx._CoefficientView(cross, vector.copy()),
        provenance=Provenance(params=params, problem=problem, weights=weights),
        eval_count=0,
    )


# (budget exponent, alpha, d, multiple of N_star, |A|): d=2 at 2^24's N_star
# (as in a 2^24 f2 run), d=2 at 10 N_star of 2^20's f1 selection, and d=3
GENUINE_CROSSES = [(24, 2.5, 2, 1, 7653), (20, 1.5, 2, 10, 8309), (22, 1.5, 3, 10, 9397)]


class TestRaggedFold:
    """evaluate on hyperbolic crosses, where each prefix has its own range
    of the last component."""

    @pytest.mark.parametrize(
        "group_cost", [0, median_approx._GROUP_COST], ids=["classes", "merged"])
    @pytest.mark.parametrize("cross", GENUINE_CROSSES, ids=["2^24", "10N*", "d=3"])
    def test_singles_and_dense_sum(self, cross, group_cost, monkeypatch):
        """Single points equal their batch values bit for bit over chunks
        ending in a lone point, and the batch matches the dense sum.  With
        no cost per product the groups are the power-of-two classes, and
        the zero prefix is a group of its own."""
        *case, size = cross
        monkeypatch.setattr(median_approx, "_GROUP_COST", group_cost)
        approx = exact_cross_approximation(*case)
        assert len(approx.index_set) == size
        plan = approx._plan
        counts = [p1 - p0 for p0, p1, _ in plan.groups]
        assert len(counts) > 1
        if group_cost == 0:
            assert 1 in counts
        d = case[2]
        rows = plan.chunk_rows
        X = np.random.default_rng(size).uniform(-1.0, 2.0, (2 * rows + 1, d))
        batch = evaluate(approx, X)
        assert np.array_equal([evaluate(approx, x) for x in X], batch)
        assert np.array_equal(evaluate(approx, X[rows - 1:]), batch[rows - 1:])
        c = approx.coefficients.vector
        want = (np.exp(2j * np.pi * (X @ approx.index_set.H.T)) @ c).real
        assert np.max(np.abs(batch - want)) <= 1e-12 * np.abs(c).sum()

    def test_rows_in_any_order(self):
        """A cross given with its rows shuffled evaluates bit for bit as the
        sorted one."""
        rng = np.random.default_rng(3)
        approx = exact_cross_approximation(24, 2.5, 2, 1)
        shuffled = exact_cross_approximation(24, 2.5, 2, 1, H=lambda H: rng.permutation(H))
        assert not np.array_equal(shuffled.index_set.H, approx.index_set.H)
        X = np.random.default_rng(4).random((100, 2))
        assert np.array_equal(evaluate(shuffled, X), evaluate(approx, X))

    def test_cross_lacking_some_negatives(self):
        """Without some -h the real and imaginary folds still match the
        dense sum, point by point as in the batch, and evaluate raises; an
        empty batch still gives an empty array."""
        rng = np.random.default_rng(5)
        approx = exact_cross_approximation(
            24, 2.5, 2, 1, H=lambda H: H[rng.random(len(H)) < 0.9])
        H = approx.index_set.H
        members = set(map(tuple, H.tolist()))
        assert any(tuple(-v for v in h) not in members for h in members)
        plan = approx._plan
        assert plan.S_imag is not None
        X = np.random.default_rng(6).uniform(-1.0, 2.0, (2 * plan.chunk_rows + 1, 2))
        c = approx.coefficients.vector
        want = np.exp(2j * np.pi * (X @ H.T)) @ c
        tol = 1e-12 * np.abs(c).sum()
        for S, part in ((plan.S, want.real), (plan.S_imag, want.imag)):
            got = plan.real_parts(X, S)
            assert np.max(np.abs(got - part)) <= tol
            assert np.array_equal([plan.real_parts(x[None], S)[0] for x in X], got)
        with pytest.raises(ValueError, match="imaginary residual .* not conjugate-symmetric"):
            evaluate(approx, X)
        assert evaluate(approx, X[:0]).shape == (0,)

    @pytest.mark.parametrize(
        "cross", GENUINE_CROSSES + [(20, 1.5, 2, 100, 110801)],
        ids=["2^24", "10N*", "d=3", "100N*"])
    def test_fold_has_at_most_A_entries(self, cross):
        """The blocks hold at most |A| coefficients: half the cross, padded
        less than twice, where at d=2 the (#prefixes, 2K_d+1) box held 41 to
        330 times |A|."""
        *case, size = cross
        plan = exact_cross_approximation(*case)._plan
        assert size / 2 <= plan.entries <= size
        assert plan.S_imag is None

    def test_large_cross_memory(self):
        """4096 points on the 100 N_star cross at 2^20 (|A| = 110,801), plan
        included, stay under 64 MiB; its (#prefixes, 2K_d+1) box alone was
        558 MiB."""
        approx = exact_cross_approximation(20, 1.5, 2, 100)
        X = np.random.default_rng(7).random((4096, 2))
        tracemalloc.start()
        try:
            values = evaluate(approx, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.array_equal(values[:3], [evaluate(approx, x) for x in X[:3]])


class TestThreads:
    """A batch of several chunks is split over the usable CPUs, in runs of
    whole chunks; its values do not depend on how many there are."""

    @staticmethod
    def per_cpu_count(compute):
        """compute() with 1, 2, 3 and 8 usable CPUs, as bytes, and the
        number of runs each fanned out to (1 where it ran inline)."""
        values, runs = [], []

        def spy(task, bounds):
            runs[-1] = len(bounds) - 1
            return fan_out(task, bounds)

        fan_out = median_approx._fan_out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(median_approx, "_fan_out", spy)
            for cpus in (1, 2, 3, 8):
                mp.setattr(median_approx, "_usable_cpus", lambda: cpus)
                runs.append(1)
                values.append(compute().tobytes())
        return values, runs

    @settings(max_examples=40, deadline=None)
    @given(
        data=conjugate_symmetric_coefficients(),
        rows=st.integers(1, 5),
        chunks=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_for_any_cpu_count(self, data, rows, chunks, seed):
        """Bit for bit those of one CPU, over batches ending in a lone
        point, and at rows = 1, where every chunk is one."""
        approx = approximation_from(data)
        d = len(next(iter(data)))
        X = np.random.default_rng(seed).uniform(-1.0, 2.0, (chunks * rows + 1, d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(median_approx, "_CHUNK_BYTES", rows * approx._plan.bytes_per_point)
            values, runs = self.per_cpu_count(lambda: evaluate(approx, X))
        assert values[1:] == values[:1] * 3
        assert runs == [1, 2, 3, min(8, chunks + 1)]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_imaginary_fold_for_any_cpu_count(self, rows):
        """The fold of a plan with S_imag as well: a cross lacking some -h."""
        rng = np.random.default_rng(5)
        approx = exact_cross_approximation(
            24, 2.5, 2, 1, H=lambda H: H[rng.random(len(H)) < 0.9])
        plan = approx._plan
        assert plan.S_imag is not None
        X = np.random.default_rng(rows).uniform(-1.0, 2.0, (9 * rows + 1, 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(median_approx, "_CHUNK_BYTES", rows * plan.bytes_per_point)
            for S in (plan.S, plan.S_imag):
                values, runs = self.per_cpu_count(lambda: plan.real_parts(X, S))
                assert values[1:] == values[:1] * 3
                assert runs == [1, 2, 3, 8]

    def test_concurrent_callers(self):
        """Four threads that evaluate one fresh approximation at once, and
        so build its plan in a race, each get the serial values, with more
        threads than cores, switched often."""
        serial_approx = exact_cross_approximation(24, 2.5, 2, 1)
        X = np.random.default_rng(8).random((3 * serial_approx._plan.chunk_rows + 1, 2))
        serial = evaluate(serial_approx, X).tobytes()
        approx = exact_cross_approximation(24, 2.5, 2, 1)
        start = threading.Barrier(4)

        def call():
            start.wait(timeout=60)
            return evaluate(approx, X).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(call) for _ in range(4)]
                values = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert values == [serial] * 4


class TestEpsilonBound:
    def test_finite_modes_no_tail(self):
        """All modes inside (-N/2, N/2)^d: epsilon^2 is the truncation term alone."""
        ap = params_for(14, D2, W2)
        f = cosine_pair_oracle((1, 2))
        norm_sq = korobov_norm_sq_truncated(f, D2, W2, 2**12)
        got = epsilon_bound(FrequencyIndex([0, 0]), f, ap, D2, W2)
        expected = math.sqrt(
            (1.0 / ap.tau + log(ap.N_star))
            * norm_sq / (ap.N_star ** (2 * D2.alpha) * (ap.N - 1))
        )
        assert got == pytest.approx(expected, rel=1e-12)
        assert epsilon_bound(FrequencyIndex([0, 0]), f, ap, D2, W2, tail_radius=0) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("tail_radius", [2.5, -1, True])
    def test_refuses_a_tail_radius_that_is_not_a_count(self, tail_radius):
        """2.5 used to end in np.indices' TypeError, after the norm."""
        with pytest.raises(ValueError, match=f"^tail_radius = {tail_radius} must be an integer >= 0$"):
            epsilon_bound(FrequencyIndex([0]), untouched_oracle(1), params_for(12, D1, W1), D1, W1,
                          tail_radius=tail_radius)

    def test_stabilizes_quickly(self):
        ap = params_for(14, D2, W2)
        f = function_f2(2)
        h = FrequencyIndex([0, 0])
        vals = [epsilon_bound(h, f, ap, D2, W2, tail_radius=r) for r in (2, 4, 8)]
        assert abs(vals[1] - vals[2]) / vals[2] < 1e-6
        assert vals[0] <= vals[1] + 1e-15 and vals[1] <= vals[2] + 1e-15


    @pytest.mark.parametrize("h", [[1], [1, 0, 0]])
    def test_rejects_wrong_length(self, h):
        """At d=2 a frequency of one or three components is refused by name,
        by epsilon_bound and by the harnesses."""
        ap = params_for(14, D2, W2, R=3)
        f = function_f2(2)
        with pytest.raises(ValueError, match=f"{len(h)} components, not d = 2"):
            epsilon_bound(h, f, ap, D2, W2)
        with pytest.raises(ValueError, match=f"{len(h)} components, not d = 2"):
            verify_concentration(f, ap, D2, W2, trials=1, indices=[h])

    @pytest.mark.parametrize("h", [[2**63, 0], [0, -(2**63) - 1], [2.0**64, 1]])
    def test_rejects_probe_outside_int64(self, h):
        """A probe outside int64 is refused by name, not by numpy's
        OverflowError, by epsilon_bound and by both harnesses."""
        ap = params_for(14, D2, W2, R=3)
        f = function_f2(2)
        message = rf"^probe \({int(h[0])}, {h[1]}\) must lie inside int64$"
        with pytest.raises(ValueError, match=message):
            epsilon_bound(h, f, ap, D2, W2)
        for harness in (verify_concentration, verify_median_amplification):
            with pytest.raises(ValueError, match=message):
                harness(f, ap, D2, W2, trials=1, indices=[[1, 0], h])

    @pytest.mark.parametrize("harness", [verify_concentration, verify_median_amplification])
    @pytest.mark.parametrize(
        "indices, message",
        [
            ([[1], [1, 0]], r"probe \(1,\) has 1 components, not d = 2"),
            ([[1, 0], [0, 1, 0]], r"probe \(0, 1, 0\) has 3 components, not d = 2"),
        ],
        ids=["short", "long"],
    )
    def test_harness_rejects_probes_of_another_length(
        self, harness, indices, message, monkeypatch
    ):
        """Probes of differing lengths are refused by name, before any
        lattice is drawn, not by numpy's inhomogeneous-shape error."""
        def no_draw(*args):
            raise AssertionError("a lattice was drawn")

        monkeypatch.setattr(median_approx, "_draw_lattices", no_draw)
        ap = params_for(14, D2, W2, R=3)
        with pytest.raises(ValueError, match=message):
            harness(function_f2(2), ap, D2, W2, trials=1, indices=indices)

    @pytest.mark.parametrize("harness", [verify_concentration, verify_median_amplification])
    def test_harness_epsilon_is_epsilon_bound(self, harness):
        """The harnesses compute the norm once per call; each probe's epsilon
        still equals epsilon_bound(h, ...) exactly."""
        ap = params_for(14, D2, W2, R=3, seed=5)
        f = function_f2(2)
        for tail_radius in (8, 3):
            rep = harness(f, ap, D2, W2, trials=2, tail_radius=tail_radius)
            assert len(tuple(rep)) > 1
            for r in rep:
                assert r.epsilon == epsilon_bound(r.h, f, ap, D2, W2, tail_radius=tail_radius)

    @pytest.mark.parametrize("radius", [0, 1, 3, 8])
    def test_epsilons_equal_a_direct_sum(self, radius):
        """On every member of a d=2 cross, _epsilons equals with == the
        direct sum over the probe's own box of coarse shifts, and it warns
        exactly where the direct epsilon at half the radius moves, naming
        both values: for f2, whose tails have converged, and for an oracle
        whose tails have not."""
        ap = params_for(16, D2, W2)
        H = enumerate_hyperbolic_cross(ap.N_star, D2, W2).H
        slow = SpectralOracle(
            dim=2,
            coefficient=None,
            l2_norm_sq=1.0,
            evaluate=lambda pts: np.zeros(len(pts)),
            factor_coefficient=lambda m: (1.0 + abs(m)) ** -0.6,
        )

        def direct(h, f, norm_sq, r):
            shifts = [ap.N * np.array(ell) + h
                      for ell in itertools.product(range(-r, r + 1), repeat=2) if any(ell)]
            coeffs = f.coefficients(np.array(shifts)) if shifts else []
            tail = math.fsum(abs(complex(c)) ** 2 for c in coeffs)
            lead = norm_sq / (ap.N_star ** (2 * D2.alpha) * (ap.N - 1))
            return math.sqrt((1.0 / ap.tau + log(ap.N_star)) * (lead + tail))

        f2 = function_f2(2)
        for f, norm_sq in ((f2, korobov_norm_sq_truncated(f2, D2, W2, 2**12)), (slow, 1e-12)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = median_approx._epsilons(H, f, ap, D2, norm_sq, radius, stacklevel=1)
            assert got == [direct(h, f, norm_sq, radius) for h in H]
            expected = []
            for h, e in zip(H, got):
                half = direct(h, f, norm_sq, radius // 2)
                if radius >= 2 and abs(e - half) >= 1e-4 * e:
                    expected.append(f"aliasing tail at radius {radius} not converged: epsilon "
                                    f"moves from {half:.6e} (radius {radius // 2}) to {e:.6e}")
            assert [str(w.message) for w in caught] == expected
            if f is slow:
                assert len(expected) == (len(H) if radius >= 2 else 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, ap: epsilon_bound(FrequencyIndex([1]), f, ap, D1, W1),
            lambda f, ap: verify_concentration(f, ap, D1, W1, trials=2),
            lambda f, ap: verify_median_amplification(f, ap, D1, W1, trials=2),
        ],
        ids=["epsilon_bound", "verify_concentration", "verify_median_amplification"],
    )
    def test_convergence_warning_names_the_caller(self, monkeypatch, call):
        """A tail that moves between radius 4 and 8 warns, and the warning
        points at the line here that called the public function."""
        ap = params_for(12, D1, W1, R=3, seed=1)
        f = function_f2(1)
        exact = f.coefficients
        # one at every frequency of the aliasing tails, |h| >= N - 1, so the
        # tail grows with its radius; the probes keep their own coefficients
        monkeypatch.setattr(
            f, "coefficients",
            lambda H: np.where(np.abs(H).max(axis=1) >= ap.N // 2, 1.0 + 0j, exact(H)),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(f, ap)
        assert caught
        for w in caught:
            assert "not converged" in str(w.message)
            assert w.filename == __file__


class TestProductOracleEpsilon:
    """epsilon(h) of a product oracle whose factor has |g_hat(-1)| != |g_hat(1)|
    is that of the same function given by its one mode (at d=1 and 2^12 it
    read 0.00912 against 0.00645)."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_epsilon_bound(self, d):
        problem, weights, exponent = (D1, W1, 12) if d == 1 else (D2, W2, 14)
        ap = params_for(exponent, problem, weights)
        product, mode = exponential_product_oracle(d), single_mode_oracle((1,) * d)
        for h in ([0] * d, [1] * d, [-1] * d):
            assert (epsilon_bound(h, product, ap, problem, weights)
                    == epsilon_bound(h, mode, ap, problem, weights))

    @pytest.mark.parametrize("harness", [verify_concentration, verify_median_amplification])
    def test_harness_reports(self, harness):
        ap = params_for(14, D2, W2, R=3)
        product, mode = (harness(f, ap, D2, W2, trials=2)
                         for f in (exponential_product_oracle(2), single_mode_oracle((1, 1))))
        assert [r.epsilon for r in product] == [r.epsilon for r in mode]
        assert product == mode


class TestVerifyConcentration:
    def test_single_mode_never_fails(self):
        ap = params_for(12, D1, W1, seed=99)
        h0 = (1,)
        rep = verify_concentration(
            single_mode_oracle(h0), ap, D1, W1, trials=50, indices=[FrequencyIndex(h0)]
        )
        (res,) = tuple(rep)
        assert res.failures == 0
        assert not res.vacuous

    def test_bounded_failure_rate(self):
        """d=1 at the 2^12 selection: analytic bound 0.6776, observed rate far below."""
        ap = params_for(12, D1, W1, seed=42)
        assert lemma_bound_single(ap) == pytest.approx(0.677585, abs=1e-6)
        rep = verify_concentration(function_f2(1), ap, D1, W1, trials=400)
        assert [tuple(r.h) for r in rep] == [(0,), (-1,), (1,)]
        for r in rep:
            margin = 3.0 * math.sqrt(r.bound / r.trials)
            assert r.rate <= r.bound + margin
            assert not r.vacuous

    @pytest.mark.parametrize("function", [function_f1, function_f2], ids=["f1", "f2"])
    def test_bounded_failure_rate_at_d2(self, function):
        """d=2 at the 2^18 selection (N=10903, N_star=10.3): bound 0.661 at
        each of 9 probes.  At d=1 and prime N every generating vector gives
        the same node set, so the checks there sample only the shift; here
        each trial draws z and the shift together."""
        ap = params_for(18, D2, W2)
        assert ap.N == 10903 and lemma_bound_single(ap) == pytest.approx(0.660529, abs=1e-6)
        rep = verify_concentration(function(2), ap, D2, W2, trials=2000)
        assert len(rep.results) == 9
        for r in rep:
            assert r.rate <= r.bound + 3.0 * math.sqrt(r.bound / r.trials)
            assert not r.vacuous

    def test_median_failures_fall_as_R_grows_at_d2(self):
        """f1 at d=2, alpha 1.5 and the 2^14 selection (N=863): the median
        harness's failures at the 9 probes, 400 trials each, fall from 20
        with R=1 to none with R=3, where each trial draws z and the shift."""
        problem = SmoothnessParams(1.5, 2)
        counts = []
        for R in (1, 3):
            ap = params_for(14, problem, W2, R=R, seed=8)
            assert ap.N == 863
            rep = verify_median_amplification(function_f1(2), ap, problem, W2, trials=400)
            counts.append([r.failures for r in rep])
        assert counts == [[0, 2, 3, 2, 3, 3, 2, 3, 2], [0] * 9]

    @pytest.mark.parametrize("harness", [verify_concentration, verify_median_amplification])
    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 2.5}, "trials = 2.5 must be an integer >= 1"),
        ({"trials": 0}, "trials = 0 must be an integer >= 1"),
        ({"tail_radius": 2.5}, "tail_radius = 2.5 must be an integer >= 0"),
        ({"tail_radius": -1}, "tail_radius = -1 must be an integer >= 0"),
        ({"indices": []}, "indices must name at least one probe"),
        ({"trials": True}, "trials = True must be an integer >= 1"),
        ({"tail_radius": True}, "tail_radius = True must be an integer >= 0"),
    ])
    def test_refuses_bad_arguments_before_any_work(self, harness, kwargs, message):
        """A float trials or tail_radius used to end in range's or
        np.indices' TypeError, and no probes in the estimator's error after
        every lattice was drawn; each is now refused before the oracle is
        called."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            harness(untouched_oracle(1), params_for(12, D1, W1), D1, W1, **{"trials": 2, **kwargs})

    def test_vacuous_regime_flagged(self):
        """N small enough that N_star <= e makes the bound >= 1."""
        ap = AlgorithmParams.from_problem(
            N=53, R=3, tau=1.0, master_seed=1, problem=D1, weights=W1
        )
        assert ap.N_star < math.e
        assert lemma_bound_single(ap) >= 1.0
        rep = verify_concentration(function_f2(1), ap, D1, W1, trials=10)
        assert rep.vacuous()


class TestVerifyMedianAmplification:
    def test_rates_non_increasing_in_R(self):
        rates_by_R = []
        for R in (1, 3, 5):
            ap = params_for(12, D1, W1, R=R, seed=42)
            rep = verify_median_amplification(function_f2(1), ap, D1, W1, trials=200)
            rates_by_R.append([r.rate for r in rep])
        for probe in range(len(rates_by_R[0])):
            seq = [rates[probe] for rates in rates_by_R]
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_amplified_bound_value(self):
        ap = params_for(12, D1, W1, R=5, seed=42)
        assert lemma_bound_amplified(ap) == pytest.approx(
            (4.0 * lemma_bound_single(ap)) ** 3, rel=1e-13
        )

    def test_vacuous_when_amplified_bound_exceeds_one(self):
        ap = params_for(12, D1, W1, R=3, seed=0)
        assert lemma_bound_amplified(ap) >= 1.0
        rep = verify_median_amplification(function_f2(1), ap, D1, W1, trials=10)
        assert rep.vacuous()
        assert rep.kind == "median"


class TestExceedanceCounts:
    @given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([1.0, 2.0]))
    def test_report_matches_loop(self, seed, factor):
        rng = np.random.default_rng(seed)
        rows, probes = rng.integers(1, 12), rng.integers(1, 6)
        estimates = rng.normal(size=(rows, probes)) + 1j * rng.normal(size=(rows, probes))
        truth = [complex(v) for v in rng.normal(size=probes)]
        eps = [float(v) for v in rng.uniform(0.2, 2.0, size=probes)]
        report = _report(
            [FrequencyIndex([i]) for i in range(probes)], eps, factor, 0.5, estimates, truth, "single"
        )
        for i, r in enumerate(report):
            expected = sum(
                abs(complex(est) - truth[i]) ** 2 > factor * eps[i] ** 2 for est in estimates[:, i]
            )
            assert r.failures == expected and r.trials == rows

    def test_failure_counts_at_a_fixed_seed(self):
        """Both harnesses on f2 plus pseudo-random node noise, which every
        probe sees: the per-probe failure counts the harnesses reported before
        the exceedance count and the median were vectorised."""
        f = function_f2(2)

        def noisy(X):
            cells = np.floor(X * 2**20).astype(np.int64) @ np.arange(1, 3)
            return f.evaluate(X) + 2.0 * ((cells * 2654435761 % 1009) / 1009 - 0.5)

        oracle = SpectralOracle(
            dim=2,
            coefficient=f.coefficient,
            l2_norm_sq=f.l2_norm_sq,
            evaluate=noisy,
            factor_coefficient=f.factor_coefficient,
        )
        ap = params_for(14, D2, W2, R=5, seed=8)
        single = verify_concentration(oracle, ap, D2, W2, trials=100)
        median = verify_median_amplification(oracle, ap, D2, W2, trials=20)
        assert [r.failures for r in single] == [53, 77, 81, 83, 81, 81, 83, 81, 77]
        assert [r.failures for r in median] == [3, 10, 4, 3, 7, 7, 3, 4, 10]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ap = params_for(14, D2, W2, seed=11)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        back = load_approximation(path)
        assert back.coefficients == approx.coefficients
        assert list(back.index_set.indices) == list(approx.index_set.indices)
        assert back.provenance.params == approx.provenance.params
        assert back.eval_count == approx.eval_count

    def test_header_and_format(self, tmp_path):
        ap = params_for(14, D2, W2, seed=11)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        heads = [ln.split("=")[0] for ln in lines if ln.startswith("#")]
        for key in ("#N", "#R", "#tau", "#N_star", "#seed", "#d", "#alpha", "#gamma"):
            assert key in heads
        cols = next(ln for ln in lines if not ln.startswith("#"))
        assert cols == "h_1,h_2,re,im"

    def test_non_finite_coefficients_rejected(self, tmp_path):
        ap = params_for(14, D2, W2, seed=11)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        lines = path.read_text().splitlines()
        rows = [i for i, ln in enumerate(lines) if ln[0] not in "#h"]
        for i, value in zip(rows[:3], ("nan", "inf", "-inf")):
            cols = lines[i].split(",")
            cols[-2] = value
            lines[i] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="3 non-finite coefficients"):
            load_approximation(path)

    def test_repeated_frequency_rejected(self, tmp_path):
        """A second row for a stored frequency does not replace the first."""
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        (h,) = approx.index_set.indices[0].components
        with open(path, "a") as fh:
            fh.write(f"{h},123.0,0\n")
        with pytest.raises(ValueError, match=f"row '{h},123.0,0' repeats frequency"):
            load_approximation(path)

    def test_first_repeat_in_file_order_named(self, tmp_path):
        """Of two repeated frequencies, the error names the one whose repeat
        comes first in the file, not the lesser frequency."""
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        (low,), (high,) = approx.index_set.H[[0, -1]].tolist()
        with open(path, "a") as fh:
            fh.write(f"{high},1.0,0\n{low},2.0,0\n")
        with pytest.raises(ValueError, match=f"^row '{high},1.0,0' repeats frequency \\({high},\\)$"):
            load_approximation(path)

    def test_column_line_must_match_d(self, tmp_path):
        """Without its column line, a file's first row would be read as one."""
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith("h_")))
        with pytest.raises(ValueError, match="expected 'h_1,re,im'$"):
            load_approximation(path)

    @pytest.mark.parametrize("row", ["7,0.5", "7,0.5,0,0"])
    def test_wrong_field_count_rejected(self, tmp_path, row):
        """A d = 1 row has three fields; the error names the row (a short
        one used to raise IndexError)."""
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=f"row '{row}' has .* fields, expected 3"):
            load_approximation(path)

    @pytest.mark.parametrize("row, why", [
        ("1.5,0.5,0", "invalid literal for int"),
        ("x,0.5,0", "invalid literal for int"),
        ("7,x,0", "could not convert string to float"),
    ])
    def test_unparsable_field_names_its_row(self, tmp_path, row, why):
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=f"^row '{row}': {why}"):
            load_approximation(path)

    def test_frequency_outside_int64_named(self, tmp_path):
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        with open(path, "a") as fh:
            fh.write(f"{2**63},0.5,0\n")
        with pytest.raises(ValueError, match=rf"^frequency \({2**63},\) must lie inside int64$"):
            load_approximation(path)

    @pytest.mark.parametrize("key", ["N", "R", "tau", "N_star", "seed", "d", "alpha", "gamma"])
    def test_missing_header_key_named(self, tmp_path, key):
        """N_star is re-derived, so only its absence is harmless."""
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith(f"#{key}=")))
        if key == "N_star":
            assert load_approximation(path) == approx
            return
        with pytest.raises(ValueError, match=f"header has no #{key}= line"):
            load_approximation(path)

    @pytest.mark.parametrize("key, value", [("R", "x17"), ("d", "2.5"), ("gamma", "1,a"),
                                            ("tau", ""), ("eval_count", "many")])
    def test_malformed_header_value_named(self, tmp_path, key, value):
        approx = run(function_f2(1).evaluate, params_for(12, D1, W1), D1, W1)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            f"#{key}={value}\n" if ln.startswith(f"#{key}=") else ln for ln in lines
        ))
        with pytest.raises(ValueError, match=f"header #{key}='{value}': "):
            load_approximation(path)

    def test_tampered_file_rejected(self, tmp_path):
        ap = params_for(14, D2, W2, seed=11)
        approx = run(function_f2(2).evaluate, ap, D2, W2)
        path = tmp_path / "approx.csv"
        save_approximation(approx, path)
        text = path.read_text()
        # shift one stored frequency out of the enumerated index set
        tampered = text.replace("\n1,1,", "\n9,9,")
        path.write_text(tampered)
        with pytest.raises(ValueError):
            load_approximation(path)
