"""
Tests for rank-1 lattice sampling: seeded draws, the shifted-lattice
coefficient estimator, and dual-lattice membership.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from medlattice import (
    FrequencyIndex,
    LatticeConfig,
    dual_membership,
    estimate_coefficients,
    rng_stream,
)
from medlattice import lattice
from medlattice.lattice import (
    _BLOCK_BYTES,
    PURPOSE_GENVEC,
    PURPOSE_SHIFT,
    NonFiniteValueError,
    _ChirpBlock,
    _chirp,
    _chirp_plan,
    _draw_lattices,
    _lattice_nodes,
    roots_of_unity,
)


def _lattices(config, seed, count):
    """(Z, D) of the lattices keyed (seed, r), r < count, with run's purposes."""
    return _draw_lattices(config, [(seed, r) for r in range(count)], PURPOSE_GENVEC, PURPOSE_SHIFT)


def _freqs(*rows):
    """The frequencies ``rows`` as an (m, d) int64 target array."""
    return np.array(rows, dtype=np.int64)


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

    def test_rejects_non_integral_keys(self):
        """1.5 is refused, not truncated to the stream of key 1, and so are
        inf and NaN; numpy integers key the stream of the equal Python
        ints."""
        for key in ((1.5,), (0, 2.5, 0), (math.inf,), (0, math.nan)):
            with pytest.raises(ValueError, match="stream key components must be integers"):
                rng_stream(*key)
        ref = rng_stream(7, 1).integers(0, 2**63, size=8)
        assert np.array_equal(rng_stream(np.int64(7), np.uint8(1)).integers(0, 2**63, size=8), ref)

    def test_rejects_bool_keys(self):
        """True is refused, not read as the stream of key 1."""
        for key in ((True,), (7, False), (np.True_, 0)):
            with pytest.raises(ValueError, match="stream key components must be integers"):
                rng_stream(*key)

    def test_four_part_key_is_the_seed_sequence_of_the_key(self):
        """rng_stream(s, t, r, p) draws what the median harness's inline
        Philox(SeedSequence([s, t, r, p])) construction drew."""
        key = [20240801, 5, 17, PURPOSE_SHIFT]
        inline = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
        assert np.array_equal(
            rng_stream(*key).integers(0, 2**63, size=8), inline.integers(0, 2**63, size=8)
        )


@functools.lru_cache(maxsize=1)
def _uniformity_sample():
    """(Z, D) of 10^5 lattices at N=101, d=2, drawn once for both tests."""
    return _lattices(LatticeConfig(101, 2), 2024, 100_000)


class TestDrawGeneratingVector:
    """Column j of Z holds the components z_j of the drawn lattices."""

    def test_singleton_support(self):
        """N=2 leaves only z_j = 1."""
        Z, _ = _lattices(LatticeConfig(2, 4), 5, 3)
        assert Z.dtype == np.int64
        assert np.array_equal(Z, np.ones((3, 4), dtype=np.int64))

    def test_range(self):
        Z, _ = _lattices(LatticeConfig(101, 3), 5, 200)
        assert Z.shape == (200, 3)
        assert Z.min() >= 1 and Z.max() <= 100

    def test_deterministic(self):
        config = LatticeConfig(1009, 2)
        keys = [(77, 4), (77, 5)]
        Z1, D1 = _draw_lattices(config, keys, PURPOSE_GENVEC, PURPOSE_SHIFT)
        Z2, D2 = _draw_lattices(config, keys[::-1], PURPOSE_GENVEC, PURPOSE_SHIFT)
        assert Z1.tobytes() == Z2[::-1].tobytes() and D1.tobytes() == D2[::-1].tobytes()
        # row r is the draw of its own streams
        assert np.array_equal(Z1[1], rng_stream(77, 5, PURPOSE_GENVEC).integers(1, 1009, size=2))
        assert np.array_equal(D1[1], rng_stream(77, 5, PURPOSE_SHIFT).random(2))

    def test_chi_square_uniformity(self):
        """10^5 draws per component, chi-square on {1..100} at significance 1e-3."""
        Z, _ = _uniformity_sample()
        for j in range(Z.shape[1]):
            counts = np.bincount(Z[:, j], minlength=101)[1:]
            expected = len(Z) / 100.0
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            p = stats.chi2.sf(chi2, df=99)
            assert p > 1e-3, f"component {j}: chi2={chi2:.1f}, p={p:.2e}"


class TestDrawShift:
    """Column j of D holds the shift components Delta_j of the drawn lattices."""

    def test_range_and_determinism(self):
        config = LatticeConfig(101, 5)
        _, D1 = _lattices(config, 9, 4)
        _, D2 = _lattices(config, 9, 4)
        assert D1.dtype == np.float64 and D1.shape == (4, 5)
        assert D1.tobytes() == D2.tobytes()
        assert np.all((D1 >= 0.0) & (D1 < 1.0))

    def test_kolmogorov_smirnov_uniformity(self):
        _, D = _uniformity_sample()
        for j in range(D.shape[1]):
            p = stats.kstest(D[:, j], "uniform").pvalue
            assert p > 1e-3, f"component {j}: KS p={p:.2e}"


class TestPinnedDraws:
    """The drawn Z and D equal literal values, for run's purposes and for the
    harnesses' (2, 3), including master seeds 0 and 2^63 - 1."""

    # (N, d, purposes, keys, Z, D)
    CASES = [
        (39409, 3, (PURPOSE_GENVEC, PURPOSE_SHIFT), [(0, 0), (0, 1), (2**63 - 1, 0), (7919, 24)],
         [[5345, 555, 36955], [4585, 23936, 20790], [11192, 2076, 39045], [8848, 1935, 15257]],
         [[0.9645594021303441, 0.38009964438079247, 0.7398519961848009],
          [0.9799939816368156, 0.09974389385865956, 0.27164086479515837],
          [0.9882700133395879, 0.5676957361251382, 0.7908549903560673],
          [0.7804290056126559, 0.0338571846146547, 0.10328063451018843]]),
        (39409, 3, (2, 3), [(0, 0), (2**63 - 1, 3), (42, 5, 17)],
         [[37188, 23494, 37413], [20122, 31668, 14937], [12782, 8285, 37105]],
         [[0.19545389172725525, 0.6597508747330528, 0.7920424706377294],
          [0.9913408304490064, 0.7996089271920672, 0.5475712101634557],
          [0.17027449853908316, 0.8056970319840903, 0.7280291013763536]]),
        (2147483647, 2, (PURPOSE_GENVEC, PURPOSE_SHIFT), [(0, 0), (2**63 - 1, 0), (7919, 24)],
         [[291248085, 30208729], [609878285, 113091480], [482122024, 105444766]],
         [[0.9645594021303441, 0.38009964438079247],
          [0.9882700133395879, 0.5676957361251382],
          [0.7804290056126559, 0.0338571846146547]]),
        (2147483647, 2, (2, 3), [(0, 0), (2**63 - 1, 3), (42, 5, 17)],
         [[2026472792, 1280252668], [1096466016, 1725657267], [696496236, 451425255]],
         [[0.19545389172725525, 0.6597508747330528],
          [0.9913408304490064, 0.7996089271920672],
          [0.17027449853908316, 0.8056970319840903]]),
    ]

    @pytest.mark.parametrize("N, d, purposes, keys, Z, D", CASES)
    def test_literal_values(self, N, d, purposes, keys, Z, D):
        got_Z, got_D = _draw_lattices(LatticeConfig(N, d), keys, *purposes)
        assert got_Z.dtype == np.int64 and got_Z.tolist() == Z
        assert got_D.dtype == np.float64 and got_D.tolist() == D


def _component_words(c):
    """The number of uint32 words SeedSequence makes of the component c."""
    return max(1, -(-c.bit_length() // 32))


# stream key components around every word boundary: one word (0, 2^32 - 1),
# two (2^32, 2^63 - 1) and three (above 2^64)
_KEY_COMPONENTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**64 + 12345]),
    st.integers(0, 2**70),
)


class TestBulkDraws:
    """``_draw_lattices`` hashes every stream key of a call at once and
    re-keys one Philox generator per stream; each row is still exactly the
    per-key ``rng_stream`` draw."""

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(st.lists(_KEY_COMPONENTS, min_size=1, max_size=4).map(tuple),
                      min_size=1, max_size=8),
        d=st.integers(1, 12),
        N=st.sampled_from([2, 3, 101, 39409, 2**31 - 1]),
        purposes=st.sampled_from([(PURPOSE_GENVEC, PURPOSE_SHIFT), (2, 3), (2**32 + 1, 0)]),
    )
    @example(keys=[(0,), (2**32 - 1,), (2**32,), (2**63 - 1,), (2**64 + 1, 7, 2**32, 5)],
             d=3, N=39409, purposes=(PURPOSE_GENVEC, PURPOSE_SHIFT))
    @example(keys=[(2**63 - 1, 2**64 + 1, 2**32, 2**40), (0,)], d=1, N=2, purposes=(2, 3))
    def test_equals_rng_stream(self, keys, d, N, purposes):
        """Keys of 2 to 5 components with their purpose, of 2 to 14 words,
        mixed in one call (more than 4 words take SeedSequence's extra
        mixing); N = 2 consumes no draw for z."""
        genvec, shift = purposes
        Z, D = _draw_lattices(LatticeConfig(N, d), keys, genvec, shift)
        assert Z.shape == D.shape == (len(keys), d)
        assert Z.dtype == np.int64 and D.dtype == np.float64
        for r, key in enumerate(keys):
            assert np.array_equal(Z[r], rng_stream(*key, genvec).integers(1, N, size=d))
            assert np.array_equal(D[r], rng_stream(*key, shift).random(d))

    def test_philox_keys_are_the_seed_sequence_state(self):
        """Every word count from 1 to 12 in one call, against numpy's own
        SeedSequence hash."""
        rng = np.random.default_rng(5)
        keys = [tuple(int(c) for c in rng.integers(0, 2**32, size=count)) for count in range(1, 12)]
        keys += [(2**64 + 3, 2**63 - 1), (0, 0, 0)]
        assert {sum(map(_component_words, k)) + 1 for k in keys} >= set(range(2, 13))
        got = lattice._philox_keys([(*k, PURPOSE_SHIFT) for k in keys])
        want = [np.random.SeedSequence([*k, PURPOSE_SHIFT]).generate_state(2, np.uint64)
                for k in keys]
        assert got.dtype == np.uint64 and np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [(-1,), (0, -3), (1.5,), (0, math.nan), (True,), (3, np.True_)])
    def test_refuses_what_rng_stream_refuses(self, bad):
        """A negative, non-integral or bool component raises ValueError with
        rng_stream's message for the first stream of that key."""
        with pytest.raises(ValueError) as expected:
            rng_stream(*bad, PURPOSE_GENVEC)
        with pytest.raises(ValueError) as got:
            _draw_lattices(LatticeConfig(101, 2), [(0, 1), bad], PURPOSE_GENVEC, PURPOSE_SHIFT)
        assert str(got.value) == str(expected.value)


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
        Z, D = _lattices(config, seed, 1)
        return config, Z, D

    def test_constant_at_zero_mode(self):
        config, Z, D = self._setup()
        (out,) = estimate_coefficients(
            lambda pts: np.ones(pts.shape[0]), config, Z, D, _freqs([0, 0])
        )
        assert abs(out[0] - 1.0) < 1e-14

    def test_exponential_mode_recovered(self):
        """f = e^{2 pi i h.x} estimated at the same h gives exactly 1."""
        config, Z, D = self._setup()
        hv = np.array([3.0, -2.0])
        (out,) = estimate_coefficients(
            lambda pts: np.exp(2j * np.pi * (pts @ hv)), config, Z, D, _freqs([3, -2])
        )
        assert abs(out[0] - 1.0) < 1e-12

    def test_full_cancellation(self):
        """Constant input at a non-dual frequency sums a full set of N-th roots."""
        config, Z, D = self._setup()
        assert not dual_membership([1, 0], config, Z[0])
        (out,) = estimate_coefficients(
            lambda pts: np.ones(pts.shape[0]), config, Z, D, _freqs([1, 0])
        )
        assert abs(out[0]) < 1e-10

    def test_conjugate_symmetry(self):
        config, Z, D = self._setup(N=241)
        f = lambda pts: np.cos(2 * np.pi * pts[:, 0]) + pts[:, 1] * (1 - pts[:, 1])
        (out,) = estimate_coefficients(f, config, Z, D, _freqs([2, 1], [-2, -1]))
        assert abs(out[1] - out[0].conjugate()) < 1e-12

    def test_single_batched_evaluation(self):
        """f sees exactly one batch of exactly N nodes however many targets."""
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[0])

        config, Z, D = self._setup(N=61)
        estimate_coefficients(f, config, Z, D, _freqs(*([i, 0] for i in range(-5, 6))))
        assert calls == [(61, 2)]

    def test_rejects_empty_targets(self):
        config, Z, D = self._setup()
        for targets in ([], np.empty((0, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="targets must be nonempty"):
                estimate_coefficients(lambda pts: np.ones(pts.shape[0]), config, Z, D, targets)

    def test_nodes_shifted_correctly(self):
        """Estimator sees {k z / N + delta} mod 1: check via a recorded batch."""
        seen = {}

        def f(pts):
            seen["pts"] = pts.copy()
            return np.ones(pts.shape[0])

        config, Z, D = self._setup(N=13)
        estimate_coefficients(f, config, Z, D, _freqs([0, 0]))
        k = np.arange(13)[:, None]
        expected = (k * Z[0][None, :] / 13.0 + D[0]) % 1.0
        assert np.max(np.abs(seen["pts"] - expected)) < 1e-14

    def test_targets_outside_int64_rejected(self):
        """A uint64 target above 2^63 - 1 raises instead of wrapping to a
        negative frequency (2^64 - 1 would read as h = -1)."""
        config = LatticeConfig(101, 1)
        Z, D = np.array([[3]]), np.array([[0.25]])
        f = lambda pts: np.exp(-2j * np.pi * pts[:, 0])
        for h in (2**64 - 1, 2**63):
            with pytest.raises(ValueError, match="inside int64"):
                estimate_coefficients(f, config, Z, D, np.array([[h]], dtype=np.uint64))
        top = np.array([[2**63 - 1]], dtype=np.uint64)
        assert estimate_coefficients(f, config, Z, D, top).tobytes() == estimate_coefficients(
            f, config, Z, D, top.astype(np.int64)
        ).tobytes()


_SMALL_PRIMES = [p for p in range(2, 128) if all(p % q for q in range(2, p))]


def _direct_sum(f, config, z, delta, h):
    """(1/N) sum_k f(x_k) exp(-2 pi i h.x_k) over x_k = {k z / N + delta}.

    k z is reduced mod N in exact integers before the division, so the nodes
    carry no rounding from the unreduced products k z_j.
    """
    k = np.arange(config.N)[:, None]
    nodes = ((k * np.asarray(z)[None, :]) % config.N / config.N + np.asarray(delta)) % 1.0
    phases = np.exp(-2j * np.pi * (nodes @ np.asarray(h, dtype=float)))
    return complex(np.mean(f(nodes) * phases))


@st.composite
def _lattice_case(draw):
    N = draw(st.sampled_from(_SMALL_PRIMES))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    Z = np.array([[draw(st.integers(1, N - 1)) for _ in range(d)] for _ in range(n)])
    unit = st.floats(0.0, 1.0, exclude_max=True)
    D = np.array([[draw(unit) for _ in range(d)] for _ in range(n)])
    # negative components and |h_j| >= N both occur
    comp = st.integers(-2 * N, 2 * N)
    # counts on both sides of the rule: fewer than log2(N) targets take the
    # chirp sums, the rest the FFT
    targets = _freqs(*(
        [draw(comp) for _ in range(d)]
        for _ in range(draw(st.integers(1, 2 * math.ceil(math.log2(N)) + 1)))
    ))
    mode = np.asarray([draw(st.integers(-N, N)) for _ in range(d)], dtype=float)
    if draw(st.booleans()):
        f = lambda pts: np.cos(2 * np.pi * (pts @ mode) + 0.3) + pts[:, 0] * (1 - pts[:, -1])
    else:
        f = lambda pts: np.exp(2j * np.pi * (pts @ mode)) * (1 + 0.5j * pts[:, 0])
    return LatticeConfig(N, d), (Z, D), targets, f


class TestFFTAgainstDirectSum:
    @settings(max_examples=200, deadline=None)
    @given(_lattice_case())
    def test_matches_direct_sum(self, case):
        """Every row of the estimator, by chirp sums or by FFT and gather,
        equals the defining direct sum on its lattice.  Rows equal the call
        on their own pair (2k, 2k+1) bit for bit when f is real, and the
        one-lattice call when f is complex or the lattice is an odd trailing
        one."""
        config, (Z, D), targets, f = case
        out = estimate_coefficients(f, config, Z, D, targets)
        assert out.shape == (len(Z), len(targets))
        for row, z, delta in zip(out, Z, D):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12
        group = 1 if np.iscomplexobj(f(np.zeros((1, config.dim)))) else 2
        for start in range(0, len(Z), group):
            part = slice(start, start + group)
            alone = estimate_coefficients(f, config, Z[part], D[part], targets)
            assert out[part].tobytes() == alone.tobytes()

    def test_rows_span_blocks_bitwise(self):
        """A call spanning several FFT blocks evaluates f once per lattice on
        its (N, d) nodes, and each row equals the call on its own pair bit
        for bit (the odd trailing lattice, alone in the second block: the
        one-lattice call), so results do not depend on how pairs are
        grouped into blocks."""
        N, d, count = 10903, 2, 13
        assert count > 2 * (_BLOCK_BYTES // (16 * N))
        config = LatticeConfig(N, d)
        Z, D = _lattices(config, 3, count)
        targets = _freqs(*([a, b] for a in range(-3, 4) for b in (-1, 0, 2)))
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.cos(2 * np.pi * pts[:, 0]) + pts[:, 1] ** 2

        out = estimate_coefficients(f, config, Z, D, targets)
        assert calls == [(N, d)] * count
        for start in range(0, count, 2):
            pair = estimate_coefficients(f, config, Z[start:start + 2], D[start:start + 2], targets)
            assert out[start:start + 2].tobytes() == pair.tobytes()

    def test_non_finite_value_raises(self):
        """One NaN at one node of the second lattice raises, naming the
        count and the row."""
        config = LatticeConfig(101, 2)
        Z, D = _lattices(config, 8, 3)
        calls = []

        def f(pts):
            vals = np.ones(pts.shape[0])
            if len(calls) == 1:
                vals[17] = np.nan
            calls.append(pts.shape)
            return vals

        with pytest.raises(ValueError, match="1 non-finite values on lattice row 1") as info:
            estimate_coefficients(f, config, Z, D, _freqs([0, 0]))
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
        Z, D = _lattices(config, 4, count)
        # five packed pairs and lone lattice 10 fill the first block's six
        # rows; 11 and 12 are complex, so 13 and the trailing 14 are alone
        assert _BLOCK_BYTES // (16 * N) == 6
        complex_shifts = {tuple(D[r]) for r in (11, 12)}
        mode = np.array([2.0, -1.0])

        def f(pts):
            # node 0 of a lattice is its shift, which identifies the lattice
            vals = np.cos(2 * np.pi * (pts @ mode) + 0.3) + pts[:, 0] * (1 - pts[:, 1])
            if tuple(pts[0]) in complex_shifts:
                return vals * (1 + 0.5j * pts[:, 1])
            return vals

        targets = _freqs(*([a, b] for a in (-2, 0, 2, 5, 7) for b in (-1, 1, N + 3)))
        assert len(targets) >= math.log2(N)
        out = estimate_coefficients(f, config, Z, D, targets)
        for row, z, delta in zip(out, Z, D):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12

    def test_non_finite_value_in_a_packed_pair(self):
        """A NaN in the second lattice of a packed pair, in the second
        block, names that lattice's row, not its partner's or the block's."""
        N, d = 10903, 2
        config = LatticeConfig(N, d)
        Z, D = _lattices(config, 9, 15)
        bad_shift = tuple(D[13])

        def f(pts):
            vals = np.cos(2 * np.pi * pts[:, 0])
            if tuple(pts[0]) == bad_shift:
                vals[40] = np.nan
                vals[41] = np.inf
            return vals

        targets = _freqs(*([a, 0] for a in range(14)))
        assert len(targets) >= math.log2(N)
        with pytest.raises(NonFiniteValueError, match="2 non-finite values on lattice row 13$") as info:
            estimate_coefficients(f, config, Z, D, targets)
        assert (info.value.count, info.value.row) == (2, 13)

    @pytest.mark.parametrize("count", [3, 14])
    def test_opposite_infinities_name_their_row(self, count):
        """+inf and -inf on one lattice sum to NaN, not to a finite number:
        the lattice's row and its two values are named, by chirp sums
        (3 targets) and by FFT (14)."""
        N = 10903
        config = LatticeConfig(N, 2)
        Z, D = _lattices(config, 10, 5)
        bad_shift = tuple(D[2])

        def f(pts):
            vals = np.cos(2 * np.pi * pts[:, 0])
            if tuple(pts[0]) == bad_shift:
                vals[3], vals[4000] = np.inf, -np.inf
            return vals

        targets = _freqs(*([a, 1] for a in range(count)))
        with pytest.raises(NonFiniteValueError, match="2 non-finite values on lattice row 2$") as info:
            estimate_coefficients(f, config, Z, D, targets)
        assert (info.value.count, info.value.row) == (2, 2)

    @pytest.mark.parametrize("count", [3, 14])
    @pytest.mark.parametrize("sign", ["+", "-", "+-"])
    def test_finite_values_whose_sum_overflows_pass(self, count, sign):
        """Values of +-1e308 are finite, though their sum overflows: no
        NonFiniteValueError, by chirp sums and by FFT.  The estimates
        overflow, and numpy's warnings of it are silenced here."""
        N = 10903
        config = LatticeConfig(N, 2)
        lattices = _lattices(config, 11, 3)

        def f(pts):
            if sign == "+-":
                return np.where(pts[:, 0] < 0.5, 1e308, -1e308)
            return np.full(len(pts), float(sign + "1e308"))

        with np.errstate(over="ignore", invalid="ignore"):
            for z, delta in zip(*lattices):
                vals = f(_lattice_nodes(config, z, delta, np.arange(N)))
                assert np.all(np.isfinite(vals)) and not np.isfinite(np.add.reduce(vals))
            out = estimate_coefficients(f, config, *lattices, _freqs(*([a, 1] for a in range(count))))
        assert out.shape == (3, count)

    def test_rejects_oversized_N_before_evaluating(self):
        """N above 2^31 raises ValueError without evaluating f."""
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[0])

        config = LatticeConfig(2147483659, 1)
        with pytest.raises(ValueError):
            estimate_coefficients(f, config, np.array([[1]]), np.array([[0.0]]), _freqs([1]))
        assert calls == []


def _reference_pairs(H):
    """The dict loop that once chose how real f's targets share chirp sums,
    kept as the reference for the array pairing.

    Returns (own, source, conj): ``own`` lists the targets that take a sum,
    the first of each pair {h, -h} of nonzero rows to occur; target j reads
    the estimate of ``own[source[j]]``, conjugated where ``conj[j]``, and
    ``source[j]`` is -1 for h = 0.
    """
    own, source, conj = [], [], []
    seen = {}
    for j, h in enumerate(map(tuple, H.tolist())):
        if not any(h):
            source.append(-1)
            conj.append(False)
            continue
        if h not in seen:
            seen[h] = (len(own), False)
            seen[tuple(-c for c in h)] = (len(own), True)
            own.append(j)
        k, flip = seen[h]
        source.append(k)
        conj.append(flip)
    return own, source, conj


_INT64_MIN = int(np.iinfo(np.int64).min)
_PAIRING_N = 1009


@st.composite
def _paired_targets(draw):
    """Fewer than log2(N) targets built from three base rows: h, -h, h = 0
    and the residue twin -h + N*e_1, each possibly repeated.  A base row may
    hold -2^63, which has no negation in int64, or 2^63 - 1."""
    d = draw(st.integers(1, 3))
    comp = st.one_of(st.integers(-3, 3), st.sampled_from([_INT64_MIN, -_INT64_MIN - 1]))
    bases = [[draw(comp) for _ in range(d)] for _ in range(3)]
    rows = []
    for _ in range(draw(st.integers(1, math.ceil(math.log2(_PAIRING_N)) - 1))):
        h = draw(st.sampled_from(bases))
        small = all(abs(c) <= 3 for c in h)
        kind = draw(st.sampled_from(["h", "-h", "zero", "twin"]))
        if kind == "zero":
            h = [0] * d
        elif kind == "-h":
            # -(-2^63) wraps to -2^63 in int64: then this row is no negation
            h = [c if c == _INT64_MIN else -c for c in h]
        elif kind == "twin" and small:
            h = [_PAIRING_N - h[0]] + [-c for c in h[1:]]
        rows.append(h)
    return _freqs(*rows)


class TestChirpSums:
    """Calls with fewer than log2(N) targets, which take the chirp sums."""

    N, d = 10903, 2
    TARGETS = _freqs([1, 0], [0, 0], [-3, N + 2])

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
        padded = np.vstack([self.TARGETS, _freqs(*([a, 5] for a in range(12)))])
        for f in (self._f, lambda pts: self._f(pts) * np.exp(2j * np.pi * pts[:, 1])):
            few = estimate_coefficients(f, config, *lattices, self.TARGETS)
            many = estimate_coefficients(f, config, *lattices, padded)
            assert np.max(np.abs(few - many[:, : len(self.TARGETS)])) < 1e-12

    def test_complex_values_match_direct_sum(self):
        config, lattices = self._case(count=2)
        f = lambda pts: np.exp(2j * np.pi * (pts @ np.array([1.0, -3.0]))) * (1 + 0.5j * pts[:, 0])
        out = estimate_coefficients(f, config, *lattices, self.TARGETS)
        for row, z, delta in zip(out, *lattices):
            for j, h in enumerate(self.TARGETS):
                assert abs(row[j] - _direct_sum(f, config, z, delta, h)) < 1e-12

    # for real f: h = 0 twice, the pair {(1, 0), (-1, 0)} with -h repeated,
    # the pair {(2, -3), (-2, 3)} with h repeated, the unpaired (5, 1), and
    # (N - 5, -1), which is -(5, 1) mod N but not its negation
    PAIRED = _freqs([0, 0], [1, 0], [-1, 0], [2, -3], [-2, 3], [2, -3], [-1, 0],
                    [5, 1], [N - 5, -1], [0, 0])

    @pytest.mark.parametrize("targets", [PAIRED, PAIRED[:1], PAIRED[[0, 0]], PAIRED[7:9]])
    def test_real_pairs_agree_with_the_transform_and_direct_sum(self, targets):
        config, lattices = self._case(count=4)
        assert len(targets) < math.log2(self.N)
        few = estimate_coefficients(self._f, config, *lattices, targets)
        padded = np.vstack([targets, _freqs(*([a, 5] for a in range(14)))])
        many = estimate_coefficients(self._f, config, *lattices, padded)
        assert np.max(np.abs(few - many[:, : len(targets)])) < 1e-12
        for row, z, delta in zip(few, *lattices):
            for j, h in enumerate(targets):
                assert abs(row[j] - _direct_sum(self._f, config, z, delta, h)) < 1e-12

    def test_minus_h_is_the_conjugate_of_h_bitwise(self):
        config, lattices = self._case()
        out = estimate_coefficients(self._f, config, *lattices, self.PAIRED)
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
            out = estimate_coefficients(self._f, config, *lattices, targets)
            for i, (z, delta) in enumerate(zip(*lattices)):
                alone = estimate_coefficients(self._f, config, [z], [delta], targets)
                assert out[i].tobytes() == alone[0].tobytes()

    def test_non_finite_value_names_its_row(self):
        config, lattices = self._case()
        bad_shift = tuple(lattices[1][3])

        def f(pts):
            vals = self._f(pts)
            if tuple(pts[0]) == bad_shift:
                vals[7] = np.nan
            return vals

        with pytest.raises(NonFiniteValueError, match="1 non-finite values on lattice row 3$") as info:
            estimate_coefficients(f, config, *lattices, self.TARGETS)
        assert (info.value.count, info.value.row) == (1, 3)

    @pytest.mark.parametrize("shape", [(10902,), (10903, 1), ()])
    def test_wrong_output_shape_raises(self, shape):
        config, lattices = self._case(count=1)
        with pytest.raises(ValueError, match=r"expected \(10903,\)"):
            estimate_coefficients(lambda pts: np.ones(shape), config, *lattices, self.TARGETS)

    @settings(max_examples=150, deadline=None)
    @given(_paired_targets())
    @example(_freqs([0, 0], [1, 0], [-1, 0], [2, -3], [-2, 3], [-1, 0], [5, 1],
                    [_PAIRING_N - 5, -1], [0, 0]))
    @example(_freqs([_INT64_MIN, 0], [_INT64_MIN, 0], [_INT64_MIN, 1], [_INT64_MIN, -1],
                    [-_INT64_MIN - 1, 1], [_INT64_MIN + 1, -1]))
    @example(_freqs([_INT64_MIN]))
    def test_pairing_matches_the_dict_reference(self, targets):
        """For real f, the targets that take a sum, the estimate each target
        reads and whether it conjugates it are those of the dict loop.  The
        call reduces one residue matrix for all its lattices and targets,
        and each lattice sums at the residues of ``targets[own]`` only."""
        config = LatticeConfig(_PAIRING_N, targets.shape[1])
        N = config.N
        Z, D = _lattices(config, 3, 2)
        mode = np.arange(1.0, config.dim + 1)

        def f(pts):
            return np.cos(2 * np.pi * (pts @ mode) + 0.3) + pts[:, 0]

        matrices, summed = [], []
        residues, einsum = lattice._residues, np.einsum
        window = lattice._chirp_window(N)[1]

        def recording(H_mod, Z, N):
            matrices.append((H_mod.copy(), Z.copy()))
            return residues(H_mod, Z, N)

        def located(subscripts, xw, part):
            # the sum at residue m reads the window from entry N - 1 - m on
            offset = part.__array_interface__["data"][0] - window.__array_interface__["data"][0]
            summed.append(N - 1 - offset // window.itemsize)
            return einsum(subscripts, xw, part)

        with mock.patch.object(lattice, "_residues", recording), \
                mock.patch.object(np, "einsum", located):
            out = estimate_coefficients(f, config, Z, D, targets)
        own, source, conj = _reference_pairs(targets)
        # one residue matrix for the call: every target on every lattice
        assert len(matrices) == 1
        H_mod, Z_seen = matrices[0]
        assert H_mod.tobytes() == (targets % N).tobytes() and Z_seen.tobytes() == Z.tobytes()
        # one sum per lattice and pair, at the residue of the pair's first row
        assert summed == [sum(h * z for h, z in zip(row, map(int, z_row))) % N
                          for z_row in Z for row in targets[own].tolist()]
        for j, (k, flip) in enumerate(zip(source, conj)):
            if k < 0:
                means = [np.add.reduce(f(_lattice_nodes(config, z, delta, np.arange(N)))) / N
                         for z, delta in zip(Z, D)]
                want = np.array(means, dtype=np.complex128)
            else:
                want = np.conj(out[:, own[k]]) if flip else out[:, own[k]]
            assert out[:, j].tobytes() == want.tobytes()

    def test_second_call_at_the_same_N_builds_no_table(self, monkeypatch):
        """The chirp and its window are built once per N, read-only."""
        lattice._chirp_window.cache_clear()
        counted = []

        def counting(N, window):
            counted.append(N)
            return _chirp(N, window)

        monkeypatch.setattr("medlattice.lattice._chirp", counting)
        config, lattices = self._case(count=2)
        first = estimate_coefficients(self._f, config, *lattices, self.TARGETS)
        second = estimate_coefficients(self._f, config, *lattices, self.TARGETS)
        assert counted == [self.N]
        assert first.tobytes() == second.tobytes()
        for table in lattice._chirp_window(self.N):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


class TestResidues:
    """``_residues`` reduces mod N after every coordinate, so each entry of
    the (lattices x targets) matrix is the exact h.z mod N, the same as the
    one-lattice reduction."""

    EXTREMES = [2**62, -(2**62), _INT64_MIN, -_INT64_MIN - 1, 0, 1, -1]

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("N", [2, 3, 10903, 39409, 2**31 - 1])
    def test_matrix_equals_the_per_row_reduction(self, N, d):
        rng = np.random.default_rng(N + d)
        Z = rng.integers(1, N, (6, d)) if N > 2 else np.ones((6, d), dtype=np.int64)
        Z[0] = N - 1
        comps = self.EXTREMES + rng.integers(_INT64_MIN, -_INT64_MIN - 1, 8).tolist()
        H = np.array([[comps[(t + j) % len(comps)] for j in range(d)]
                      for t in range(len(comps))], dtype=np.int64)
        M = lattice._residues(H % N, Z, N)
        assert M.shape == (len(Z), len(H)) and M.dtype == np.int64
        for i, z in enumerate(Z):
            assert M[i].tobytes() == lattice._residues(H % N, Z[i:i + 1], N)[0].tobytes()
            exact = [sum(h * int(zj) for h, zj in zip(row, z)) % N for row in H.tolist()]
            assert M[i].tolist() == exact


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
            lambda pts: np.cos(2 * np.pi * pts[:, 0]), config, *_lattices(config, 2, count), targets
        )
        return calls

    def test_few_targets_make_no_transform(self, monkeypatch):
        targets = _freqs([-1, 0], [0, 0], [1, 0])
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
            *_lattices(config, 2, count),
            _freqs([0, 0], [1, 0], [-1, 0]),
        )
        assert lengths == [(N,)] * (sums * count)

    @pytest.mark.parametrize("count", [1, 12, 13, 25])
    def test_many_targets_make_one_transform_per_block(self, monkeypatch, count):
        N = 10903
        targets = _freqs(*([a, 1] for a in range(math.ceil(math.log2(N)))))
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
        targets = _freqs(*([a, 1] for a in range(math.ceil(math.log2(N)))))
        estimate_coefficients(
            lambda pts: np.cos(2 * np.pi * pts[:, 0]), config, *_lattices(config, 2, 3), targets
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
        return block.spectrum(np.array([0]), np.arange(N)[np.newaxis])[0]

    @pytest.mark.parametrize("N", PRIMES)
    def test_agrees_with_numpy_fft(self, N):
        """Within 2e-15 * max|Y| of np.fft.fft, on what the estimator
        transforms (a packed pair of real node values u + i*v) and on white
        noise.  Both transforms round: against a long-double transform of
        the same inputs, numpy's is up to 9.6e-16 * max|Y| off at N=32771
        and this one up to 1.0e-15 at N=39409."""
        assert _BLOCK_BYTES // (16 * N) < 2
        config = LatticeConfig(N, 2)
        Z, D = _lattices(config, 5, 2)
        u, v = (self._f(_lattice_nodes(config, z, delta, np.arange(N))) for z, delta in zip(Z, D))
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
        targets = _freqs(*([a, 2 - a] for a in range(-8, 8)), [N + 1, -3])
        assert len(targets) >= math.log2(N)
        complex_f = lambda pts: self._f(pts) * np.exp(2j * np.pi * pts[:, 1])
        for f in (self._f, complex_f):
            out = estimate_coefficients(f, config, *lattices, targets)
            for row, z, delta in zip(out, *lattices):
                for j in (0, 9, len(targets) - 1):
                    assert abs(row[j] - _direct_sum(f, config, z, delta, targets[j])) < 1e-12

    @pytest.mark.parametrize("N", PRIMES)
    def test_rows_equal_the_pair_call_bitwise(self, N):
        config = LatticeConfig(N, 2)
        Z, D = _lattices(config, 8, 5)
        targets = _freqs(*([a, 1] for a in range(math.ceil(math.log2(N)))))
        out = estimate_coefficients(self._f, config, Z, D, targets)
        for start in range(0, len(Z), 2):
            pair = slice(start, start + 2)
            got = estimate_coefficients(self._f, config, Z[pair], D[pair], targets)
            assert out[pair].tobytes() == got.tobytes()

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
        targets = _freqs(*([a, 1] for a in range(math.ceil(math.log2(N)))))
        return config, *_lattices(config, 9, 3), targets

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
    frac = np.multiply.outer(k, np.asarray(z, dtype=np.int64))
    frac %= config.N
    nodes = frac.astype(float)
    nodes /= config.N
    nodes += np.asarray(delta, dtype=float)
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
                yield z, delta

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("N", [2, 3, 13, 101, 10903, 39409])
    def test_equal_to_the_outer_product_formula(self, N, d):
        config = LatticeConfig(N, d)
        for z, delta in self._cases(N, d, seed=N + d):
            nodes = _lattice_nodes(config, z, delta, np.arange(N))
            expected = _outer_product_nodes(config, z, delta)
            assert nodes.shape == (N, d)
            assert np.array_equal(nodes, expected)
            assert np.all((nodes >= 0.0) & (nodes < 1.0))
            for j in range(d):
                assert nodes[:, j].flags.c_contiguous

    def test_new_array_on_every_call(self):
        config = LatticeConfig(101, 3)
        lattice = next(self._cases(101, 3, seed=1))
        first, second = (_lattice_nodes(config, *lattice, np.arange(101)) for _ in range(2))
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("count", [3, 14])
    def test_f_that_overwrites_its_inputs_changes_no_other_lattice(self, count):
        """An f that keeps every input it was given and overwrites them all
        in place after evaluating leaves the estimates bitwise those of a
        well-behaved f, by chirp sums (3 targets) and by FFT (14)."""
        N = 10903
        config = LatticeConfig(N, 2)
        lattices = _lattices(config, 8, 13)
        targets = _freqs(*([a, 1 - a] for a in range(count)))

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
        got = estimate_coefficients(overwriting, config, *lattices, targets)
        expected = estimate_coefficients(f, config, *lattices, targets)
        assert len(kept) == 13
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

        estimate_coefficients(keeping, config, *lattices, _freqs(*([a, 1] for a in range(14))))
        assert len(kept) == 13
        for pts, z, delta in zip(kept, *lattices):
            assert np.array_equal(pts, _outer_product_nodes(config, z, delta))


class TestAliasing:
    """The estimator sees e^{2 pi i h'.x} at target h as exp(2 pi i (h'-h).delta)
    when h - h' is in the dual lattice, and as 0 otherwise."""

    def _dual_vector(self, rng, config, z):
        # solve z . ell = 0 (mod N) for the last component
        N, d = config.N, config.dim
        while True:
            ell = [int(rng.integers(-3, 4)) for _ in range(d - 1)]
            rest = sum(int(zj) * lj for zj, lj in zip(z[:-1], ell))
            inv = pow(int(z[-1]), -1, N)
            last = (-rest * inv) % N
            if last > N // 2:
                last -= N
            if last == 0 and not any(ell):
                last = N   # N e_d is always in the dual lattice
            candidate = ell + [last]
            if any(candidate):
                return candidate

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_over_random_draws(self, d):
        rng = np.random.default_rng(314 + d)
        for trial in range(15):
            N = int(rng.choice([53, 101, 149]))
            config = LatticeConfig(N, d)
            Z, D = _draw_lattices(config, [(trial, 0)], PURPOSE_GENVEC, PURPOSE_SHIFT)
            z, delta = Z[0], D[0]
            h = [int(rng.integers(-4, 5)) for _ in range(d)]

            ell = self._dual_vector(rng, config, z)
            h_src = [a + b for a, b in zip(h, ell)]
            assert dual_membership([a - b for a, b in zip(h_src, h)], config, z)
            hv = np.asarray(h_src, dtype=float)
            (out,) = estimate_coefficients(
                lambda pts: np.exp(2j * np.pi * (pts @ hv)), config, Z, D, _freqs(h)
            )
            diff = np.asarray(h_src, dtype=float) - np.asarray(h, dtype=float)
            expected = np.exp(2j * np.pi * float(diff @ delta))
            assert abs(out[0] - expected) < 1e-10

            # a non-dual offset must vanish
            h_far = [c + 1 for c in h_src]
            if not dual_membership([a - b for a, b in zip(h_far, h)], config, z):
                hv2 = np.asarray(h_far, dtype=float)
                (out2,) = estimate_coefficients(
                    lambda pts: np.exp(2j * np.pi * (pts @ hv2)), config, Z, D, _freqs(h)
                )
                assert abs(out2[0]) < 1e-10


class TestDualMembership:
    def test_zero_always_member(self):
        config = LatticeConfig(5, 2)
        assert dual_membership(FrequencyIndex([0, 0]), config, [1, 2])

    def test_coarse_lattice_members(self):
        config = LatticeConfig(7, 3)
        assert dual_membership(FrequencyIndex([7, -14, 21]), config, (1, 2, 3))

    def test_hand_computed_case(self):
        config = LatticeConfig(5, 2)
        z = np.array([1, 2])
        assert dual_membership(FrequencyIndex([1, 2]), config, z)
        assert not dual_membership(FrequencyIndex([1, 1]), config, z)

    def test_huge_components_no_overflow(self):
        """Exact Python-int products, for a sequence and for an int64 row of Z,
        where int64 arithmetic would overflow."""
        N = 2147483647
        config = LatticeConfig(N, 2)
        for z in ([N - 1, N - 2], np.array([[N - 1, N - 2]], dtype=np.int64)[0]):
            assert dual_membership(FrequencyIndex([N, 2 * N]), config, z)
            assert dual_membership(
                FrequencyIndex([1, (N - 1) * pow(N - 2, -1, N) * -1 % N]), config, z
            )
            assert dual_membership([2**62 * N, 3 * N], config, z)

    def test_collision_rate(self):
        """Random z hits a fixed nonzero ell with frequency about 1/(N-1)."""
        N = 101
        config = LatticeConfig(N, 2)
        ell = FrequencyIndex([3, -5])
        Z, _ = _lattices(config, 909, 10_000)
        hits = sum(dual_membership(ell, config, z) for z in Z)
        p = 1.0 / (N - 1)
        assert hits / 10_000 <= p + 3.0 * math.sqrt(p * (1 - p) / 10_000)

    def test_rejects_bool_generating_vector_components(self):
        """(True, 2) is refused, not read as the generating vector (1, 2)."""
        config = LatticeConfig(5, 2)
        for z in ((True, 2), (1, np.True_), np.array([True, False])):
            with pytest.raises(ValueError, match="generating vector components must be integers"):
                dual_membership([3, 1], config, z)
        assert dual_membership([3, 1], config, (1, 2))

    def test_rejects_a_z_of_another_dimension(self):
        with pytest.raises(ValueError, match="lattice dimension"):
            dual_membership([1, 2], LatticeConfig(5, 2), [1, 2, 3])


class TestConfigValidation:
    """The refusals of the lattice inputs, made on the whole Z and D arrays
    before f is evaluated."""

    @staticmethod
    def _estimate(Z, D, N=101, d=2):
        calls = []

        def f(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[0])

        estimate_coefficients(f, LatticeConfig(N, d), Z, D, _freqs(*([[0] * d] * 20)))
        return calls

    def test_composite_N_rejected(self):
        with pytest.raises(ValueError):
            LatticeConfig(100, 2)

    def test_generating_vector_range(self):
        inside = [[3, 5], [1, 100]]
        for Z in ([[0, 1]], [[1, 101]], [[-3, 5]], inside + [[200, 1]]):
            with pytest.raises(ValueError, match=r"must lie in \{1,...,N-1\}"):
                self._estimate(Z, np.zeros((len(Z), 2)))
        with pytest.raises(ValueError, match=r"must lie in \{1,...,N-1\}"):
            self._estimate(np.array([[2**63 + 5]], dtype=np.uint64), [[0.5]], d=1)
        assert self._estimate(inside, np.zeros((2, 2))) == [(101, 2)] * 2

    def test_shift_range(self):
        for D in ([[0.5, 1.0]], [[-0.1, 0.5]], [[np.nan, 0.5]], [[0.5, np.inf]], [[0.5, -np.inf]]):
            with pytest.raises(ValueError, match=r"shift components must lie in \[0, 1\)"):
                self._estimate([[1, 2]], D)
        assert self._estimate([[1, 2]], [[0.0, np.nextafter(1.0, 0.0)]]) == [(101, 2)]

    def test_shapes_must_match_the_dimension(self):
        for Z, D in (
            ([[1, 2, 3]], [[0.1, 0.2, 0.3]]),  # d = 3 against config.dim = 2
            ([[1, 2]], [[0.1, 0.2], [0.3, 0.4]]),  # two shifts for one z
            ([[1, 2]], [0.1, 0.2]),
            ([1, 2], [0.1, 0.2]),
        ):
            with pytest.raises(ValueError, match="z and delta must match the lattice dimension"):
                self._estimate(Z, D)
        with pytest.raises(ValueError, match="lattices must be nonempty"):
            self._estimate(np.empty((0, 2), dtype=np.int64), np.empty((0, 2)))
