"""
Tests for hyperbolic-cross enumeration and the cardinality bounds.

The enumerator is checked against an independent box scan; the
three bounds are checked against worked closed-form values and against the
brute-force cardinality over random parameter draws.
"""

import math
import warnings

import numpy as np
import pytest

from medlattice import (
    FrequencyIndex,
    PolynomialDecayWeights,
    ProductWeights,
    SmoothnessParams,
    bound_basic,
    bound_min_q,
    bound_refined,
    corollary_cap,
    enumerate_hyperbolic_cross,
)
from medlattice.index_set import _H, _admits, _log_costs, read_indices_csv, write_indices_csv


def box_scan(L, params, weights):
    """Independent enumeration: scan the box {-floor(L)..floor(L)}^d.

    Every admissible h has |h_j| <= L * gamma_j^(1/(2 alpha)) <= L, so the
    box is large enough.  Uses the product form of the membership predicate
    directly, as an outer product of one factor row per coordinate, with
    none of the package's enumeration.
    """
    if L < 1.0:
        return set()
    R = int(L)
    axis = np.arange(-R, R + 1)
    prod = np.ones(())
    for g in weights.require(params.dim):
        factor = np.where(axis != 0, np.abs(axis) * g ** (-1.0 / (2.0 * params.alpha)), 1.0)
        prod = np.multiply.outer(prod, factor)
    keep = np.argwhere(prod <= L * (1.0 + 1e-12)) - R
    return {tuple(row) for row in keep.tolist()}


def random_draws(count, seed=20240811):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.6, 3.0))
        gammas = np.sort(rng.uniform(0.05, 1.0, size=d))[::-1]
        L = float(rng.uniform(1.0, 12.0))
        yield SmoothnessParams(alpha, d), ProductWeights(gammas), L


class TestEnumerate:
    def test_one_dimensional_interval(self):
        """d=1, unit weight: the set is just {-floor(L)..floor(L)}."""
        p = SmoothnessParams(1.5, 1)
        w = ProductWeights([1.0])
        cross = enumerate_hyperbolic_cross(2.5, p, w)
        assert [tuple(h) for h in cross.indices] == [(-2,), (-1,), (0,), (1,), (2,)]
        assert len(cross) == 5

    def test_unit_level_two_dimensional(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 1.0])
        cross = enumerate_hyperbolic_cross(1.0, p, w)
        assert len(cross) == 9
        assert {tuple(h) for h in cross} == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}

    def test_level_two_cardinality(self):
        p = SmoothnessParams(2.0, 2)
        w = ProductWeights([1.0, 1.0])
        cross = enumerate_hyperbolic_cross(2.0, p, w)
        assert len(cross) == 21
        assert {tuple(h) for h in cross} == box_scan(2.0, p, w)

    def test_below_one_is_empty(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 1.0])
        assert len(enumerate_hyperbolic_cross(0.999, p, w)) == 0
        assert len(enumerate_hyperbolic_cross(0.0, p, w)) == 0

    def test_membership_lookup(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 0.5])
        cross = enumerate_hyperbolic_cross(3.0, p, w)
        assert FrequencyIndex([0, 0]) in cross
        assert (0, 0) in cross
        for h in cross:
            assert -h in cross
        assert (50, 50) not in cross

    def test_matches_box_scan(self):
        """Random draws, then a grid of d, alpha, unit and poly:2 weights and
        radii, whose integer L put members exactly on the boundary."""
        grid = [
            (SmoothnessParams(alpha, d), weights.take(d), L)
            for d in (1, 2, 3)
            for alpha in (0.75, 1.5, 2.5)
            for weights in (PolynomialDecayWeights(0.0), PolynomialDecayWeights(2.0))
            for L in (1.0, 2.0, 7.5, 30.0, 60.0)
        ]
        for p, w, L in list(random_draws(50)) + grid:
            got = {tuple(h) for h in enumerate_hyperbolic_cross(L, p, w).H.tolist()}
            assert got == box_scan(L, p, w), (
                f"mismatch at d={p.dim} alpha={p.alpha} gammas={w.gammas} L={L}"
            )

    def test_matches_exact_check_on_every_row(self):
        """The enumeration checks only rows near the boundary exactly; it
        equals the box filtered by that exact check on every row.  Integer L
        (unit weights, and gamma = 4^(-alpha), which costs exactly log 2)
        and L within a few slacks of them put rows on the boundary; at
        L * (1 - 1.5e-9) the exact check drops rows the running budget kept."""
        cases = [
            (SmoothnessParams(alpha, d), ProductWeights(gammas), base * scale)
            for d, bases in ((1, (2, 7, 64)), (2, (6, 12, 36)), (3, (4, 6, 12)), (4, (2, 4, 6)))
            for alpha in (0.75, 1.0, 2.5)
            for gammas in ([1.0] * d, [1.0] + [4.0 ** -alpha] * (d - 1), [4.0 ** -alpha] * d)
            for base in bases
            for scale in (1.0, 1 - 1e-10, 1 + 1e-10, 1 - 1.5e-9, 1 - 3e-9, 1 + 3e-9)
        ]
        for p, w, L in cases:
            box = np.array(sorted(box_scan(L * (1 + 1e-6), p, w)), dtype=np.int64)
            costs = _log_costs(p, w)
            want = box[[_admits(h, math.log(L), costs) for h in box.tolist()]]
            got = enumerate_hyperbolic_cross(L, p, w).H
            assert np.array_equal(got, want), (
                f"mismatch at d={p.dim} alpha={p.alpha} gammas={w.gammas} L={L!r}"
            )

    def test_symmetric_and_odd(self):
        for p, w, L in random_draws(20, seed=3):
            cross = enumerate_hyperbolic_cross(L, p, w)
            members = {tuple(h) for h in cross}
            assert all(tuple(-c for c in h) in members for h in members)
            assert len(cross) % 2 == 1

    def test_nesting(self):
        p = SmoothnessParams(1.1, 2)
        w = ProductWeights([1.0, 0.3])
        smaller, larger = None, None
        for L in (1.0, 2.0, 4.0, 8.0):
            larger = {tuple(h) for h in enumerate_hyperbolic_cross(L, p, w)}
            if smaller is not None:
                assert smaller <= larger
            smaller = larger

    def test_lexicographic_order(self):
        p = SmoothnessParams(0.8, 3)
        w = ProductWeights([1.0, 0.6, 0.4])
        cross = enumerate_hyperbolic_cross(4.0, p, w)
        comps = [tuple(h) for h in cross.indices]
        assert comps == sorted(comps)
        assert len(set(comps)) == len(comps)

    def test_cardinality_cap(self):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 1.0])
        with pytest.raises(ValueError, match=r"exceeds the cap 10; raise `cap` explicitly"):
            enumerate_hyperbolic_cross(200.0, p, w, cap=10)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_refuses_non_finite_L(self, L):
        """inf and NaN are refused by name, before numpy casts them to a
        bogus integer with a RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"L = {L!r} must be finite"):
                enumerate_hyperbolic_cross(L, SmoothnessParams(1.5, 2), ProductWeights([1.0, 1.0]))

    def test_weights_must_cover_dim(self):
        p = SmoothnessParams(1.0, 3)
        w = ProductWeights([1.0, 1.0])
        with pytest.raises(ValueError):
            enumerate_hyperbolic_cross(2.0, p, w)


class TestBoundBasic:
    def test_closed_form_at_L_equals_e(self):
        """d=1, gamma=1, tau=1, L=e collapses to 1 + (5/2) e^2."""
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        got = bound_basic(math.e, 1.0, p, w)
        assert got == pytest.approx(1.0 + 2.5 * math.e**2, rel=1e-12)

    def test_log_term_vanishes_at_L_equals_one(self):
        """L=1: the bound is 1 + e^(1/tau) * prod(1 + 2 gamma_j^(1/(2 alpha)))."""
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 0.25])
        got = bound_basic(1.0, 1.0, p, w)
        expected = 1.0 + math.e * (1.0 + 2.0) * (1.0 + 2.0 * 0.5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dual_evaluation(self):
        """Cross-check against a direct product-form evaluation."""
        p = SmoothnessParams(1.5, 2)
        w = ProductWeights([1.0, 1.0])
        tau, L = 0.5, 10.0
        factor = 1.0
        for g in w.require(2):
            factor *= 1.0 + 2.0 * g ** (1.0 / (2.0 * p.alpha)) * (1.0 + tau * math.log(L))
        expected = 1.0 + L * math.exp(1.0 / tau) / (1.0 + tau * math.log(L)) * factor
        got = bound_basic(L, tau, p, w)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(966.7501502805170, rel=1e-9)

    def test_domain(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        with pytest.raises(ValueError):
            bound_basic(0.5, 1.0, p, w)
        with pytest.raises(ValueError):
            bound_basic(2.0, 0.0, p, w)


class TestBoundMinQ:
    def test_single_point_grid_closed_form(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        zeta2 = math.pi**2 / 6.0
        got = bound_min_q(5.0, p, w, q_grid=[2.0])
        expected = 1.0 + 25.0 / zeta2 * (1.0 + 2.0 * zeta2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(66.198, abs=5e-4)

    def test_at_L_equals_one(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        got = bound_min_q(1.0, p, w, q_grid=[2.0])
        assert got == pytest.approx(3.0 + 6.0 / math.pi**2, rel=1e-12)

    def test_grid_minimum(self):
        p = SmoothnessParams(1.2, 2)
        w = ProductWeights([1.0, 0.5])
        grid = (1.1, 1.5, 2.0, 3.0)
        combined = bound_min_q(6.0, p, w, q_grid=grid)
        singles = [bound_min_q(6.0, p, w, q_grid=[q]) for q in grid]
        assert combined == pytest.approx(min(singles), rel=1e-14)
        assert all(combined <= s + 1e-12 for s in singles)

    def test_rejects_bad_grid(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        with pytest.raises(ValueError):
            bound_min_q(5.0, p, w, q_grid=[1.0])
        with pytest.raises(ValueError):
            bound_min_q(5.0, p, w, q_grid=[])


class TestBoundRefined:
    def test_unit_weight_one_dimensional(self):
        """gamma^(1/(2 alpha)) * L > 1 puts the minimizer at q = 1."""
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        H10 = math.fsum(1.0 / n for n in range(1, 11))
        assert H10 == pytest.approx(2.9289682539682538, rel=1e-15)
        expected = 1.0 + 10.0 / H10 * (1.0 + 2.0 * H10)
        got = bound_refined(10.0, p, w)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(24.414, abs=5e-4)

    def test_dominates_brute_force(self):
        for p, w, L in random_draws(30, seed=11):
            if L < 2.0:
                continue
            count = len(enumerate_hyperbolic_cross(L, p, w))
            assert count <= bound_refined(L, p, w) + 1e-9

    def test_monotone_in_L(self):
        p = SmoothnessParams(1.3, 2)
        w = ProductWeights([1.0, 0.4])
        vals = [bound_refined(L, p, w) for L in (2.0, 3.0, 5.0, 9.0, 17.0, 33.0)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_small_weight_degenerate_branch(self):
        # gamma^(1/(2 alpha)) * L <= 1: endpoint fallback must still dominate
        p = SmoothnessParams(0.6, 1)
        w = ProductWeights([0.1])
        L = 2.0
        count = len(enumerate_hyperbolic_cross(L, p, w))
        assert count <= bound_refined(L, p, w) + 1e-9

    def test_domain(self):
        p = SmoothnessParams(1.0, 1)
        w = ProductWeights([1.0])
        with pytest.raises(ValueError):
            bound_refined(1.5, p, w)


class TestCorollaryCap:
    def test_level_one(self):
        assert corollary_cap(101, 1.0, 1.0) == pytest.approx(101.0, rel=1e-15)

    def test_level_e(self):
        assert corollary_cap(101, 1.0, math.e) == pytest.approx(51.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            corollary_cap(101, 1.0, 0.9)
        with pytest.raises(ValueError):
            corollary_cap(100, 1.0, 2.0)
        with pytest.raises(ValueError):
            corollary_cap(101, 0.0, 2.0)

    def test_caps_enumeration(self):
        p = SmoothnessParams(1.5, 2)
        w = ProductWeights([1.0, 1.0])
        for N, tau, N_star in ((101, 1.0, 3.0), (863, 0.67, 1.33), (10903, 0.62, 9.0)):
            count = len(enumerate_hyperbolic_cross(N_star, p, w))
            assert count <= corollary_cap(N, tau, N_star) + 1e-9


class TestBoundsDominateCardinality:
    """All three bounds sit above the brute-force count on random draws."""

    def test_all_bounds(self):
        for p, w, L in random_draws(50, seed=5):
            count = len(box_scan(L, p, w))
            for tau in (0.1, 0.5, 1.0, 2.0):
                assert count <= bound_basic(L, tau, p, w) + 1e-9
            assert count <= bound_min_q(L, p, w) + 1e-9
            if L >= 2.0:
                assert count <= bound_refined(L, p, w) + 1e-9


class TestPartialZetaSum:
    def test_harmonic_numbers(self):
        assert _H(10.0, 1.0) == pytest.approx(2.9289682539682538, rel=1e-15)
        assert _H(10.9, 1.0) == pytest.approx(2.9289682539682538, rel=1e-15)

    def test_quadratic_partial_sum(self):
        direct = math.fsum(1.0 / n**2 for n in range(1, 8))
        assert _H(7.0, 2.0) == pytest.approx(direct, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            _H(0.5, 1.0)
        with pytest.raises(ValueError):
            _H(5.0, 0.5)


class TestIndexCsv:
    def test_round_trip(self, tmp_path):
        p = SmoothnessParams(1.2, 2)
        w = ProductWeights([1.0, 0.5])
        cross = enumerate_hyperbolic_cross(4.0, p, w)
        path = tmp_path / "indices.csv"
        write_indices_csv(cross, path)
        back = read_indices_csv(path)
        assert back.dtype == np.int64 and np.array_equal(back, cross.H)

    def test_format(self, tmp_path):
        p = SmoothnessParams(1.0, 2)
        w = ProductWeights([1.0, 1.0])
        cross = enumerate_hyperbolic_cross(1.0, p, w)
        path = tmp_path / "indices.csv"
        write_indices_csv(cross, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "h_1,h_2"
        assert lines[1] == "-1,-1"
        assert len(lines) == 10

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_indices_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="^not an index-set CSV$"):
            read_indices_csv(path)

    def test_rejects_row_of_another_length(self, tmp_path):
        """A short row is refused by name, not by numpy's inhomogeneous-shape
        error."""
        path = tmp_path / "short.csv"
        path.write_text("h_1,h_2\n0,0\n1\n")
        with pytest.raises(ValueError, match=r"^row '1' has 1 fields, expected 2$"):
            read_indices_csv(path)
