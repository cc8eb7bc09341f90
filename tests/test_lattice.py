"""
Tests for rank-1 lattice sampling: seeded draws, the shifted-lattice
coefficient estimator, and dual-lattice membership.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from medlattice import (
    FrequencyIndex,
    GeneratingVector,
    LatticeConfig,
    RandomShift,
    draw_generating_vector,
    draw_shift,
    dual_membership,
    estimate_coefficients,
    rng_stream,
)
from medlattice.lattice import (
    _BLOCK_BYTES,
    PURPOSE_GENVEC,
    PURPOSE_SHIFT,
    NonFiniteValueError,
    _ChirpBlock,
    _chirp,
    _chirp_plan,
    _lattice_nodes,
    roots_of_unity,
)


class TestStreams:
    def test_determinism(self):
        a = rng_stream(12345, 3, PURPOSE_GENVEC).integers(0, 2**63, size=8)
        b = rng_stream(12345, 3, PURPOSE_GENVEC).integers(0, 2**63, size=8)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = rng_stream(12345, 3, PURPOSE_GENVEC).integers(0, 2**63, size=8)
        for key in ((12345, 4, PURPOSE_GENVEC), (12345, 3, PURPOSE_SHIFT), (12346, 3, PURPOSE_GENVEC)):
            other = rng_stream(*key).integers(0, 2**63, size=8)
            assert not np.array_equal(base, other)

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            rng_stream(-1, 0, 0)
        with pytest.raises(ValueError):
            rng_stream(0, -1, 0)
        with pytest.raises(ValueError):
            rng_stream(0, 1, 2, -3)

    def test_four_part_key_is_the_seed_sequence_of_the_key(self):
        """rng_stream(s, t, r, p) draws what the median harness's inline
        Philox(SeedSequence([s, t, r, p])) construction drew."""
        key = [20240801, 5, 17, PURPOSE_SHIFT]
        inline = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
        assert np.array_equal(
            rng_stream(*key).integers(0, 2**63, size=8), inline.integers(0, 2**63, size=8)
        )


class TestDrawGeneratingVector:
    def test_singleton_support(self):
        """N=2 leaves only z_j = 1."""
        config = LatticeConfig(2, 4)
        z = draw_generating_vector(config, rng_stream(5, 0, PURPOSE_GENVEC))
        assert z.z == (1, 1, 1, 1)

    def test_range(self):
        config = LatticeConfig(101, 3)
        rng = rng_stream(5, 0, PURPOSE_GENVEC)
        for _ in range(200):
            z = draw_generating_vector(config, rng)
            assert all(1 <= v <= 100 for v in z.z)

    def test_deterministic(self):
        config = LatticeConfig(1009, 2)
        z1 = draw_generating_vector(config, rng_stream(77, 4, PURPOSE_GENVEC))
        z2 = draw_generating_vector(config, rng_stream(77, 4, PURPOSE_GENVEC))
        assert z1.z == z2.z

    def test_chi_square_uniformity(self):
        """10^5 draws per component, chi-square on {1..100} at significance 1e-3."""
        config = LatticeConfig(101, 2)
        rng = rng_stream(2024, 0, PURPOSE_GENVEC)
        draws = np.array([draw_generating_vector(config, rng).z for _ in range(100_000)])
        for j in range(2):
            counts = np.bincount(draws[:, j], minlength=101)[1:]
            expected = 100_000 / 100.0
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            p = stats.chi2.sf(chi2, df=99)
            assert p > 1e-3, f"component {j}: chi2={chi2:.1f}, p={p:.2e}"


class TestDrawShift:
    def test_range_and_determinism(self):
        config = LatticeConfig(101, 5)
        d1 = draw_shift(config, rng_stream(9, 1, PURPOSE_SHIFT))
        d2 = draw_shift(config, rng_stream(9, 1, PURPOSE_SHIFT))
        assert d1.delta == d2.delta
        assert all(0.0 <= v < 1.0 for v in d1.delta)

    def test_kolmogorov_smirnov_uniformity(self):
        config = LatticeConfig(101, 2)
        rng = rng_stream(2025, 0, PURPOSE_SHIFT)
        draws = np.array([draw_shift(config, rng).delta for _ in range(100_000)])
        for j in range(2):
            p = stats.kstest(draws[:, j], "uniform").pvalue
            assert p > 1e-3, f"component {j}: KS p={p:.2e}"


class TestRootsOfUnity:
    @pytest.mark.parametrize("N", [1, 2, 5, 101, 1024, 1619, 4099])
    def test_against_direct_exponentials(self, N):
        table = roots_of_unity(N)
        k = np.arange(N)
        exact = np.exp(-2j * np.pi * k / N)
        assert np.max(np.abs(table - exact)) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            roots_of_unity(0)


class TestEstimator:
    def _setup(self, N=101, d=2, seed=11):
        config = LatticeConfig(N, d)
        z = draw_generating_vector(config, rng_stream(seed, 0, PURPOSE_GENVEC))
        delta = draw_shift(config, rng_stream(seed, 0, PURPOSE_SHIFT))
        return config, z, delta

    def test_constant_at_zero_mode(self):
        config, z, delta = self._setup()
        (out,) = estimate_coefficients(
            lambda pts: np.ones(pts.shape[0]), config, [(z, delta)], [FrequencyIndex([0, 0])]
        )
        assert abs(out[0] - 1.0) < 1e-14

    def test_exponential_mode_recovered(self):
        """f = e^{2 pi i h.x} estimated at the same h gives exactly 1."""
        config, z, delta = self._setup()
        h = FrequencyIndex([3, -2])
        hv = np.array([3.0, -2.0])
        (out,) = estimate_coefficients(
            lambda pts: np.exp(2j * np.pi * (pts @ hv)), config, [(z, delta)], [h]
        )
        assert abs(out[0] - 1.0) < 1e-12

    def test_full_cancellation(self):
        """Constant input at a non-dual frequency sums a full set of N-th roots."""
        config, z, delta = self._setup()
        h = FrequencyIndex([1, 0])
        assert not dual_membership(h, config, z)
        (out,) = estimate_coefficients(
            lambda pts: np.ones(pts.shape[0]), config, [(z, delta)], [h]
        )
        assert abs(out[0]) < 1e-10

    def test_conjugate_symmetry(self):
        config, z, delta = self._setup(N=241)
        f = lambda pts: np.cos(2 * np.pi * pts[:, 0]) + pts[:, 1] * (1 - pts[:, 1])
        targets = [FrequencyIndex([2, 1]), FrequencyIndex([-2, -1])]
        (out,) = estimate_coefficients(f, config, [(z, delta)], targets)
        assert abs(out[1] - out[0].conjugate()) < 1e-12

    def test_single_batched_evaluation(self):
        """f sees exactly one batch of exactly N nodes however many targets."""
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[0])

        config, z, delta = self._setup(N=61)
        targets = [FrequencyIndex([i, 0]) for i in range(-5, 6)]
        estimate_coefficients(f, config, [(z, delta)], targets)
        assert calls == [(61, 2)]

    def test_rejects_empty_targets(self):
        config, z, delta = self._setup()
        with pytest.raises(ValueError):
            estimate_coefficients(lambda pts: np.ones(pts.shape[0]), config, [(z, delta)], [])

    def test_nodes_shifted_correctly(self):
        """Estimator sees {k z / N + delta} mod 1: check via a recorded batch."""
        seen = {}

        def f(pts):
            seen["pts"] = pts.copy()
            return np.ones(pts.shape[0])

        config, z, delta = self._setup(N=13)
        estimate_coefficients(f, config, [(z, delta)], [FrequencyIndex([0, 0])])
        k = np.arange(13)[:, None]
        expected = (k * np.asarray(z.z)[None, :] / 13.0 + np.asarray(delta.delta)) % 1.0
        assert np.max(np.abs(seen["pts"] - expected)) < 1e-14


_SMALL_PRIMES = [p for p in range(2, 128) if all(p % q for q in range(2, p))]


def _direct_sum(f, config, z, delta, h):
    """(1/N) sum_k f(x_k) exp(-2 pi i h.x_k) over x_k = {k z / N + delta}.

    k z is reduced mod N in exact integers before the division, so the nodes
    carry no rounding from the unreduced products k z_j.
    """
    k = np.arange(config.N)[:, None]
    nodes = ((k * np.asarray(z.z)[None, :]) % config.N / config.N + np.asarray(delta.delta)) % 1.0
    phases = np.exp(-2j * np.pi * (nodes @ np.asarray(h.components, dtype=float)))
    return complex(np.mean(f(nodes) * phases))


@st.composite
def _lattice_case(draw):
    N = draw(st.sampled_from(_SMALL_PRIMES))
    d = draw(st.integers(1, 3))
    lattices = [
        (
            GeneratingVector([draw(st.integers(1, N - 1)) for _ in range(d)]),
            RandomShift([draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(d)]),
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    # negative components and |h_j| >= N both occur
    comp = st.integers(-2 * N, 2 * N)
    # counts on both sides of the rule: fewer than log2(N) targets take the
    # chirp sums, the rest the FFT
    targets = [
        FrequencyIndex([draw(comp) for _ in range(d)])
        for _ in range(draw(st.integers(1, 2 * math.ceil(math.log2(N)) + 1)))
    ]
    mode = np.asarray([draw(st.integers(-N, N)) for _ in range(d)], dtype=float)
    if draw(st.booleans()):
        f = lambda pts: np.cos(2 * np.pi * (pts @ mode) + 0.3) + pts[:, 0] * (1 - pts[:, -1])
    else:
        f = lambda pts: np.exp(2j * np.pi * (pts @ mode)) * (1 + 0.5j * pts[:, 0])
    return LatticeConfig(N, d), lattices, targets, f


class TestFFTAgainstDirectSum:
    @settings(max_examples=200, deadline=None)
    @given(_lattice_case())
    def test_matches_direct_sum(self, case):
        """Every row of the estimator, by chirp sums or by FFT and gather,
        equals the defining direct sum on its lattice.  Rows equal the call
        on their own pair (2k, 2k+1) bit for bit when f is real, and the
        one-lattice call when f is complex or the lattice is an odd trailing
        one."""
        config, lattices, targets, f = case
        out = estimate_coefficients(f, config, lattices, targets)
        assert out.shape == (len(lattices), len(targets))
        for row, (z, delta) in zip(out, lattices):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12
        group = 1 if np.iscomplexobj(f(np.zeros((1, config.dim)))) else 2
        for start in range(0, len(lattices), group):
            alone = estimate_coefficients(f, config, lattices[start:start + group], targets)
            assert out[start:start + group].tobytes() == alone.tobytes()

    def test_rows_span_blocks_bitwise(self):
        """A call spanning several FFT blocks evaluates f once per lattice on
        its (N, d) nodes, and each row equals the call on its own pair bit
        for bit (the odd trailing lattice, alone in the second block: the
        one-lattice call), so results do not depend on how pairs are
        grouped into blocks."""
        N, d, count = 10903, 2, 13
        assert count > 2 * (_BLOCK_BYTES // (16 * N))
        config = LatticeConfig(N, d)
        lattices = [
            (
                draw_generating_vector(config, rng_stream(3, r, PURPOSE_GENVEC)),
                draw_shift(config, rng_stream(3, r, PURPOSE_SHIFT)),
            )
            for r in range(count)
        ]
        targets = [FrequencyIndex([a, b]) for a in range(-3, 4) for b in (-1, 0, 2)]
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.cos(2 * np.pi * pts[:, 0]) + pts[:, 1] ** 2

        out = estimate_coefficients(f, config, lattices, targets)
        assert calls == [(N, d)] * count
        for start in range(0, count, 2):
            pair = estimate_coefficients(f, config, lattices[start:start + 2], targets)
            assert out[start:start + 2].tobytes() == pair.tobytes()

    def test_non_finite_value_raises(self):
        """One NaN at one node of the second lattice raises, naming the
        count and the row."""
        config = LatticeConfig(101, 2)
        lattices = [
            (
                draw_generating_vector(config, rng_stream(8, r, PURPOSE_GENVEC)),
                draw_shift(config, rng_stream(8, r, PURPOSE_SHIFT)),
            )
            for r in range(3)
        ]
        calls = []

        def f(pts):
            vals = np.ones(pts.shape[0])
            if len(calls) == 1:
                vals[17] = np.nan
            calls.append(pts.shape)
            return vals

        with pytest.raises(ValueError, match="1 non-finite values on lattice row 1") as info:
            estimate_coefficients(f, config, lattices, [FrequencyIndex([0, 0])])
        assert isinstance(info.value, NonFiniteValueError)
        assert (info.value.count, info.value.row) == (1, 1)

    def test_mixed_real_and_complex_values(self):
        """f complex on some lattices and real on others: packed rows for
        real pairs, lone rows for the complex lattices, their real partners
        and the odd trailing one, with a real lattice closing a full block
        whose complex partner opens the next; every row equals the direct
        sum."""
        N, d, count = 10903, 2, 15
        config = LatticeConfig(N, d)
        lattices = [
            (
                draw_generating_vector(config, rng_stream(4, r, PURPOSE_GENVEC)),
                draw_shift(config, rng_stream(4, r, PURPOSE_SHIFT)),
            )
            for r in range(count)
        ]
        # five packed pairs and lone lattice 10 fill the first block's six
        # rows; 11 and 12 are complex, so 13 and the trailing 14 are alone
        assert _BLOCK_BYTES // (16 * N) == 6
        complex_shifts = {lattices[r][1].delta for r in (11, 12)}
        mode = np.array([2.0, -1.0])

        def f(pts):
            # node 0 of a lattice is its shift, which identifies the lattice
            vals = np.cos(2 * np.pi * (pts @ mode) + 0.3) + pts[:, 0] * (1 - pts[:, 1])
            if tuple(pts[0]) in complex_shifts:
                return vals * (1 + 0.5j * pts[:, 1])
            return vals

        targets = [FrequencyIndex([a, b]) for a in (-2, 0, 2, 5, 7) for b in (-1, 1, N + 3)]
        assert len(targets) >= math.log2(N)
        out = estimate_coefficients(f, config, lattices, targets)
        for row, (z, delta) in zip(out, lattices):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12

    def test_non_finite_value_in_a_packed_pair(self):
        """A NaN in the second lattice of a packed pair, in the second
        block, names that lattice's row, not its partner's or the block's."""
        N, d = 10903, 2
        config = LatticeConfig(N, d)
        lattices = [
            (
                draw_generating_vector(config, rng_stream(9, r, PURPOSE_GENVEC)),
                draw_shift(config, rng_stream(9, r, PURPOSE_SHIFT)),
            )
            for r in range(15)
        ]
        bad_shift = lattices[13][1].delta

        def f(pts):
            vals = np.cos(2 * np.pi * pts[:, 0])
            if tuple(pts[0]) == bad_shift:
                vals[40] = np.nan
                vals[41] = np.inf
            return vals

        targets = [FrequencyIndex([a, 0]) for a in range(14)]
        assert len(targets) >= math.log2(N)
        with pytest.raises(NonFiniteValueError, match="2 non-finite values on lattice row 13$") as info:
            estimate_coefficients(f, config, lattices, targets)
        assert (info.value.count, info.value.row) == (2, 13)

    def test_rejects_oversized_N_before_evaluating(self):
        """N above 2^31 raises ValueError without evaluating f."""
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[0])

        config = LatticeConfig(2147483659, 1)
        with pytest.raises(ValueError):
            estimate_coefficients(
                f, config, [(GeneratingVector([1]), RandomShift([0.0]))], [FrequencyIndex([1])]
            )
        assert calls == []


def _lattices(config, seed, count):
    return [
        (
            draw_generating_vector(config, rng_stream(seed, r, PURPOSE_GENVEC)),
            draw_shift(config, rng_stream(seed, r, PURPOSE_SHIFT)),
        )
        for r in range(count)
    ]


class TestChirpSums:
    """Calls with fewer than log2(N) targets, which take the chirp sums."""

    N, d = 10903, 2
    TARGETS = [FrequencyIndex([1, 0]), FrequencyIndex([0, 0]), FrequencyIndex([-3, N + 2])]

    def _case(self, seed=6, count=5):
        config = LatticeConfig(self.N, self.d)
        assert len(self.TARGETS) < math.log2(self.N)
        return config, _lattices(config, seed, count)

    @staticmethod
    def _f(pts):
        return np.cos(2 * np.pi * (pts @ np.array([1.0, -2.0])) + 0.3) + pts[:, 0] * pts[:, 1]

    def test_agree_with_the_transform(self):
        """The same targets, padded past log2(N) so that the call takes the
        FFT, give the same estimates to 1e-12; real and complex f."""
        config, lattices = self._case()
        padded = self.TARGETS + [FrequencyIndex([a, 5]) for a in range(12)]
        for f in (self._f, lambda pts: self._f(pts) * np.exp(2j * np.pi * pts[:, 1])):
            few = estimate_coefficients(f, config, lattices, self.TARGETS)
            many = estimate_coefficients(f, config, lattices, padded)
            assert np.max(np.abs(few - many[:, : len(self.TARGETS)])) < 1e-12

    def test_complex_values_match_direct_sum(self):
        config, lattices = self._case(count=2)
        f = lambda pts: np.exp(2j * np.pi * (pts @ np.array([1.0, -3.0]))) * (1 + 0.5j * pts[:, 0])
        out = estimate_coefficients(f, config, lattices, self.TARGETS)
        for row, (z, delta) in zip(out, lattices):
            for j, h in enumerate(self.TARGETS):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12

    # for real f: h = 0 twice, the pair {(1, 0), (-1, 0)} with -h repeated,
    # the pair {(2, -3), (-2, 3)} with h repeated, the unpaired (5, 1), and
    # (N - 5, -1), which is -(5, 1) mod N but not its negation
    PAIRED = [
        FrequencyIndex(h)
        for h in ([0, 0], [1, 0], [-1, 0], [2, -3], [-2, 3], [2, -3], [-1, 0],
                  [5, 1], [N - 5, -1], [0, 0])
    ]

    @pytest.mark.parametrize("targets", [PAIRED, PAIRED[:1], PAIRED[:1] * 2, PAIRED[7:9]])
    def test_real_pairs_agree_with_the_transform_and_direct_sum(self, targets):
        config, lattices = self._case(count=4)
        assert len(targets) < math.log2(self.N)
        few = estimate_coefficients(self._f, config, lattices, targets)
        padded = targets + [FrequencyIndex([a, 5]) for a in range(14)]
        many = estimate_coefficients(self._f, config, lattices, padded)
        assert np.max(np.abs(few - many[:, : len(targets)])) < 1e-12
        for row, (z, delta) in zip(few, lattices):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(self._f, config, z, delta, h)) < 1e-12

    def test_minus_h_is_the_conjugate_of_h_bitwise(self):
        config, lattices = self._case()
        out = estimate_coefficients(self._f, config, lattices, self.PAIRED)
        for h, minus in ((1, 2), (3, 4), (5, 4), (1, 6)):
            assert out[:, minus].tobytes() == np.conj(out[:, h]).tobytes()
        # repeated targets read the same estimate
        for j, k in ((0, 9), (3, 5), (2, 6)):
            assert out[:, j].tobytes() == out[:, k].tobytes()
        # h = 0 is the mean of the real values
        assert not np.any(out[:, 0].imag)
        # (N - 5, -1) has the residue of -(5, 1) but its own shift phase
        assert np.min(np.abs(out[:, 8] - np.conj(out[:, 7]))) > 1e-3

    def test_rows_equal_the_one_lattice_call_bitwise(self):
        config, lattices = self._case()
        for targets in (self.TARGETS, self.PAIRED):
            out = estimate_coefficients(self._f, config, lattices, targets)
            for i, lattice in enumerate(lattices):
                alone = estimate_coefficients(self._f, config, [lattice], targets)
                assert out[i].tobytes() == alone[0].tobytes()

    def test_non_finite_value_names_its_row(self):
        config, lattices = self._case()
        bad_shift = lattices[3][1].delta

        def f(pts):
            vals = self._f(pts)
            if tuple(pts[0]) == bad_shift:
                vals[7] = np.nan
            return vals

        with pytest.raises(NonFiniteValueError, match="1 non-finite values on lattice row 3$") as info:
            estimate_coefficients(f, config, lattices, self.TARGETS)
        assert (info.value.count, info.value.row) == (1, 3)

    @pytest.mark.parametrize("shape", [(10902,), (10903, 1), ()])
    def test_wrong_output_shape_raises(self, shape):
        config, lattices = self._case(count=1)
        with pytest.raises(ValueError, match=r"expected \(10903,\)"):
            estimate_coefficients(lambda pts: np.ones(shape), config, lattices, self.TARGETS)


class TestCostModel:
    """Which calls transform: none below log2(N) targets, one per block of
    rows above it."""

    def _count_ffts(self, monkeypatch, targets, count):
        N = 10903
        config = LatticeConfig(N, 2)
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        estimate_coefficients(
            lambda pts: np.cos(2 * np.pi * pts[:, 0]), config, _lattices(config, 2, count), targets
        )
        return calls

    def test_few_targets_make_no_transform(self, monkeypatch):
        targets = [FrequencyIndex([a, 0]) for a in (-1, 0, 1)]
        assert self._count_ffts(monkeypatch, targets, 9) == []

    @pytest.mark.parametrize("real, sums", [(True, 1), (False, 3)])
    def test_real_conjugate_pair_takes_one_sum_per_lattice(self, monkeypatch, real, sums):
        """Targets {0, h, -h}: one length-N chirp sum per lattice when f is
        real (h = 0 is the mean, -h the conjugate of h), three when not."""
        N, count = 10903, 9
        config = LatticeConfig(N, 2)
        lengths = []
        einsum = np.einsum

        def counted(subscripts, *operands, **kwargs):
            lengths.append(operands[0].shape)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        phase = 1.0 if real else np.exp(0.25j)
        estimate_coefficients(
            lambda pts: np.cos(2 * np.pi * pts[:, 0]) * phase,
            config,
            _lattices(config, 2, count),
            [FrequencyIndex(h) for h in ([0, 0], [1, 0], [-1, 0])],
        )
        assert lengths == [(N,)] * (sums * count)

    @pytest.mark.parametrize("count", [1, 12, 13, 25])
    def test_many_targets_make_one_transform_per_block(self, monkeypatch, count):
        N = 10903
        targets = [FrequencyIndex([a, 1]) for a in range(math.ceil(math.log2(N)))]
        rows = _BLOCK_BYTES // (16 * N)
        pairs = (count + 1) // 2
        assert len(self._count_ffts(monkeypatch, targets, count)) == -(-pairs // rows)

    @pytest.mark.parametrize("N", [32771, 39409])
    def test_one_lattice_blocks_plan_no_length_N(self, monkeypatch, N):
        """When 1 MiB holds a single lattice, numpy transforms only short
        lengths: no fft or ifft call has length N."""
        assert _BLOCK_BYTES // (16 * N) < 2
        lengths = []

        def recording(transform):
            def recorded(a, n=None, axis=-1, *args, **kwargs):
                lengths.append(n or np.shape(a)[axis])
                return transform(a, n, axis, *args, **kwargs)

            return recorded

        monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
        config = LatticeConfig(N, 2)
        targets = [FrequencyIndex([a, 1]) for a in range(math.ceil(math.log2(N)))]
        estimate_coefficients(
            lambda pts: np.cos(2 * np.pi * pts[:, 0]), config, _lattices(config, 2, 3), targets
        )
        assert lengths
        assert N not in lengths


class TestChirpConvolution:
    """N > 2^15, where a 1 MiB block holds one lattice and the length-N DFT
    is a chirp convolution over short batched FFTs (``_ChirpBlock``), with
    its tables from one read-only plan per N (``_chirp_plan``)."""

    PRIMES = [32771, 39409]  # the smallest prime above 2^15, and the solve workload's N

    @staticmethod
    def _f(pts):
        return np.cos(2 * np.pi * (pts @ np.array([3.0, -1.0])) + 0.3) + pts[:, 0] * (1 - pts[:, 1])

    @staticmethod
    def _transform(N, x):
        block = _ChirpBlock(N)
        block.rows[0] = x
        block.transform(1)
        return block.spectrum(0, np.arange(N))

    @pytest.mark.parametrize("N", PRIMES)
    def test_agrees_with_numpy_fft(self, N):
        """Within 2e-15 * max|Y| of np.fft.fft, on what the estimator
        transforms (a packed pair of real node values u + i*v) and on white
        noise.  Both transforms round: against a long-double transform of
        the same inputs, numpy's is up to 9.6e-16 * max|Y| off at N=32771
        and this one up to 1.0e-15 at N=39409."""
        assert _BLOCK_BYTES // (16 * N) < 2
        config = LatticeConfig(N, 2)
        u, v = (self._f(_lattice_nodes(config, *lattice)) for lattice in _lattices(config, 5, 2))
        rng = np.random.default_rng(N)
        noise = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for x in (u + 1j * v, noise):
            Y = np.fft.fft(x)
            assert np.max(np.abs(self._transform(N, x) - Y)) <= 2e-15 * np.max(np.abs(Y))

    @pytest.mark.parametrize("N", PRIMES)
    def test_estimates_equal_direct_sum(self, N):
        """Real f (a packed pair and an odd trailing lattice) and complex f
        against the defining sum, at a few targets of a call with log2(N) or
        more."""
        config = LatticeConfig(N, 2)
        lattices = _lattices(config, 7, 3)
        targets = [FrequencyIndex([a, 2 - a]) for a in range(-8, 8)] + [FrequencyIndex([N + 1, -3])]
        assert len(targets) >= math.log2(N)
        complex_f = lambda pts: self._f(pts) * np.exp(2j * np.pi * pts[:, 1])
        for f in (self._f, complex_f):
            out = estimate_coefficients(f, config, lattices, targets)
            for row, (z, delta) in zip(out, lattices):
                for j in (0, 9, len(targets) - 1):
                    assert abs(row[j] - _direct_sum(f, config, z, delta, targets[j])) < 1e-12

    @pytest.mark.parametrize("N", PRIMES)
    def test_rows_equal_the_pair_call_bitwise(self, N):
        config = LatticeConfig(N, 2)
        lattices = _lattices(config, 8, 5)
        targets = [FrequencyIndex([a, 1]) for a in range(math.ceil(math.log2(N)))]
        out = estimate_coefficients(self._f, config, lattices, targets)
        for start in range(0, len(lattices), 2):
            pair = estimate_coefficients(self._f, config, lattices[start:start + 2], targets)
            assert out[start:start + 2].tobytes() == pair.tobytes()

    def test_second_call_at_the_same_N_builds_no_table(self, monkeypatch):
        counted = self._count_chirps(monkeypatch)
        for _ in range(2):
            estimate_coefficients(self._f, *self._call(39409))
        assert counted == [39409]

    def test_plan_tables_are_read_only(self):
        plan = _chirp_plan(39409)
        for table in (plan.w, plan.twiddles, plan.filter):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                table *= 1.0

    def test_another_N_replaces_the_plan(self, monkeypatch):
        counted = self._count_chirps(monkeypatch)
        for N in self.PRIMES + self.PRIMES[:1]:
            estimate_coefficients(self._f, *self._call(N))
            assert _chirp_plan.cache_info().currsize == 1
        assert counted == self.PRIMES + self.PRIMES[:1]

    @pytest.mark.parametrize("N", PRIMES)
    def test_cold_and_warm_plan_estimates_bitwise(self, N):
        _chirp_plan.cache_clear()
        cold = estimate_coefficients(self._f, *self._call(N))
        warm = estimate_coefficients(self._f, *self._call(N))
        assert cold.tobytes() == warm.tobytes()

    @staticmethod
    def _call(N):
        """A pair-packed call of 3 lattices at N, with log2(N) targets."""
        config = LatticeConfig(N, 2)
        targets = [FrequencyIndex([a, 1]) for a in range(math.ceil(math.log2(N)))]
        return config, _lattices(config, 9, 3), targets

    @staticmethod
    def _count_chirps(monkeypatch):
        """Clear the plan and record the N of every chirp table built."""
        _chirp_plan.cache_clear()
        counted = []

        def counting(N, window):
            counted.append(N)
            return _chirp(N, window)

        monkeypatch.setattr("medlattice.lattice._chirp", counting)
        return counted


def _outer_product_nodes(config, z, delta):
    """Reference nodes: all d coordinates at once, as an outer product on a
    point-major (N, d) array."""
    k = np.arange(config.N, dtype=np.int64)
    frac = np.multiply.outer(k, np.asarray(z.z, dtype=np.int64))
    frac %= config.N
    nodes = frac.astype(float)
    nodes /= config.N
    nodes += np.asarray(delta.delta, dtype=float)
    nodes -= np.floor(nodes)
    return nodes


class TestLatticeNodes:
    """``_lattice_nodes`` builds one coordinate at a time into a
    coordinate-major array; every node is bitwise the reference's."""

    LAST_BELOW_ONE = np.nextafter(1.0, 0.0)

    def _cases(self, N, d, seed):
        rng = np.random.default_rng(seed)
        zs = [rng.integers(1, N, d) for _ in range(3)] + [np.ones(d, int), np.full(d, N - 1)]
        # z_1 = 1 and z_d = N - 1 beside random components
        zs[1][0], zs[1][-1] = 1, N - 1
        shifts = [rng.random(d) for _ in range(2)] + [np.zeros(d), np.full(d, self.LAST_BELOW_ONE)]
        shifts[1][0], shifts[1][-1] = 0.0, self.LAST_BELOW_ONE
        for z in zs:
            for delta in shifts:
                yield GeneratingVector(z), RandomShift(delta)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("N", [2, 3, 13, 101, 10903, 39409])
    def test_equal_to_the_outer_product_formula(self, N, d):
        config = LatticeConfig(N, d)
        for z, delta in self._cases(N, d, seed=N + d):
            nodes = _lattice_nodes(config, z, delta)
            expected = _outer_product_nodes(config, z, delta)
            assert nodes.shape == (N, d)
            assert np.array_equal(nodes, expected)
            assert np.all((nodes >= 0.0) & (nodes < 1.0))
            for j in range(d):
                assert nodes[:, j].flags.c_contiguous

    def test_new_array_on_every_call(self):
        config = LatticeConfig(101, 3)
        lattice = next(self._cases(101, 3, seed=1))
        first, second = (_lattice_nodes(config, *lattice) for _ in range(2))
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("count", [3, 14])
    def test_f_that_overwrites_its_inputs_changes_no_other_lattice(self, count):
        """An f that keeps every input it was given and overwrites them all
        in place after evaluating leaves the estimates bitwise those of a
        well-behaved f, by chirp sums (3 targets) and by FFT (14)."""
        N = 10903
        config = LatticeConfig(N, 2)
        lattices = _lattices(config, 8, 13)
        targets = [FrequencyIndex([a, 1 - a]) for a in range(count)]

        def f(pts):
            return np.cos(2 * np.pi * (pts @ np.array([1.0, -2.0]))) + pts[:, 0] * pts[:, 1]

        kept = []

        def overwriting(pts):
            vals = f(pts)
            kept.append(pts)
            for x in kept:
                x[:] = 0.5
            return vals

        # the overwriting call goes first, so nodes kept for a later call
        # would reach the well-behaved one overwritten
        got = estimate_coefficients(overwriting, config, lattices, targets)
        expected = estimate_coefficients(f, config, lattices, targets)
        assert len(kept) == len(lattices)
        assert got.tobytes() == expected.tobytes()

    def test_f_may_keep_its_inputs(self):
        """Inputs kept by f still hold their own lattice's nodes after the
        call: no later lattice writes into them."""
        config = LatticeConfig(10903, 2)
        lattices = _lattices(config, 9, 13)
        kept = []

        def keeping(pts):
            kept.append(pts)
            return np.cos(2 * np.pi * pts[:, 0])

        estimate_coefficients(keeping, config, lattices, [FrequencyIndex([a, 1]) for a in range(14)])
        assert len(kept) == len(lattices)
        for pts, lattice in zip(kept, lattices):
            assert np.array_equal(pts, _outer_product_nodes(config, *lattice))


class TestAliasing:
    """The estimator sees e^{2 pi i h'.x} at target h as exp(2 pi i (h'-h).delta)
    when h - h' is in the dual lattice, and as 0 otherwise."""

    def _dual_vector(self, rng, config, z):
        # solve z . ell = 0 (mod N) for the last component
        N, d = config.N, config.dim
        while True:
            ell = [int(rng.integers(-3, 4)) for _ in range(d - 1)]
            rest = sum(int(zj) * lj for zj, lj in zip(z.z[:-1], ell))
            inv = pow(int(z.z[-1]), -1, N)
            last = (-rest * inv) % N
            if last > N // 2:
                last -= N
            if last == 0 and not any(ell):
                last = N   # N e_d is always in the dual lattice
            candidate = ell + [last]
            if any(candidate):
                return FrequencyIndex(candidate)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_over_random_draws(self, d):
        rng = np.random.default_rng(314 + d)
        for trial in range(15):
            N = int(rng.choice([53, 101, 149]))
            config = LatticeConfig(N, d)
            z = draw_generating_vector(config, rng_stream(trial, 0, PURPOSE_GENVEC))
            delta = draw_shift(config, rng_stream(trial, 0, PURPOSE_SHIFT))
            h = FrequencyIndex([int(rng.integers(-4, 5)) for _ in range(d)])

            ell = self._dual_vector(rng, config, z)
            h_src = FrequencyIndex([a + b for a, b in zip(h, ell)])
            assert dual_membership(FrequencyIndex([a - b for a, b in zip(h_src, h)]), config, z)
            hv = np.asarray(list(h_src), dtype=float)
            (out,) = estimate_coefficients(
                lambda pts: np.exp(2j * np.pi * (pts @ hv)), config, [(z, delta)], [h]
            )
            diff = np.asarray(list(h_src), dtype=float) - np.asarray(list(h), dtype=float)
            expected = np.exp(2j * np.pi * float(diff @ np.asarray(delta.delta)))
            assert abs(out[0] - expected) < 1e-10

            # a non-dual offset must vanish
            h_far = FrequencyIndex([c + 1 for c in h_src])
            if not dual_membership(
                FrequencyIndex([a - b for a, b in zip(h_far, h)]), config, z
            ):
                hv2 = np.asarray(list(h_far), dtype=float)
                (out2,) = estimate_coefficients(
                    lambda pts: np.exp(2j * np.pi * (pts @ hv2)), config, [(z, delta)], [h]
                )
                assert abs(out2[0]) < 1e-10


class TestDualMembership:
    def test_zero_always_member(self):
        config = LatticeConfig(5, 2)
        z = GeneratingVector([1, 2])
        assert dual_membership(FrequencyIndex([0, 0]), config, z)

    def test_coarse_lattice_members(self):
        config = LatticeConfig(7, 3)
        z = GeneratingVector([1, 2, 3])
        assert dual_membership(FrequencyIndex([7, -14, 21]), config, z)

    def test_hand_computed_case(self):
        config = LatticeConfig(5, 2)
        z = GeneratingVector([1, 2])
        assert dual_membership(FrequencyIndex([1, 2]), config, z)
        assert not dual_membership(FrequencyIndex([1, 1]), config, z)

    def test_huge_components_no_overflow(self):
        N = 2147483647
        config = LatticeConfig(N, 2)
        z = GeneratingVector([N - 1, N - 2])
        assert dual_membership(FrequencyIndex([N, 2 * N]), config, z)
        assert dual_membership(FrequencyIndex([1, (N - 1) * pow(N - 2, -1, N) * -1 % N]), config, z)

    def test_collision_rate(self):
        """Random z hits a fixed nonzero ell with frequency about 1/(N-1)."""
        N = 101
        config = LatticeConfig(N, 2)
        ell = FrequencyIndex([3, -5])
        rng = rng_stream(909, 0, PURPOSE_GENVEC)
        hits = sum(
            dual_membership(ell, config, draw_generating_vector(config, rng))
            for _ in range(10_000)
        )
        p = 1.0 / (N - 1)
        assert hits / 10_000 <= p + 3.0 * math.sqrt(p * (1 - p) / 10_000)


class TestConfigValidation:
    def test_composite_N_rejected(self):
        with pytest.raises(ValueError):
            LatticeConfig(100, 2)

    def test_generating_vector_range(self):
        with pytest.raises(ValueError):
            GeneratingVector([0, 1])

    def test_shift_range(self):
        with pytest.raises(ValueError):
            RandomShift([0.5, 1.0])
        with pytest.raises(ValueError):
            RandomShift([-0.1])
