"""The median lattice algorithm end to end, plus its verification harnesses.

One run draws R independent generating-vector/shift pairs, estimates every
Fourier coefficient in the hyperbolic cross A_d(N_star) from each of the R
shifted rank-1 lattices, and aggregates per frequency by the componentwise
complex median.  The median step is what turns the per-repetition aliasing
failure probability into an exponentially small one, so R can stay
logarithmic in the target failure probability.

The verification half of the module measures the concentration behaviour the
error analysis promises: single-repetition exceedance of the epsilon(h)
threshold, and the amplified exceedance of the median estimate.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress
from math import log
from typing import Iterable, Optional

import numpy as np

from .index_set import HyperbolicCross, enumerate_hyperbolic_cross
from .korobov import (
    FrequencyIndex,
    ProductWeights,
    SmoothnessParams,
    SpectralOracle,
    korobov_norm_sq_truncated,
)
from .lattice import (
    PURPOSE_GENVEC,
    PURPOSE_SHIFT,
    LatticeConfig,
    NonFiniteValueError,
    _draw_lattices,
    _negatives,
    estimate_coefficients,
)
from .params import AlgorithmParams

__all__ = [
    "AlgorithmParams",
    "MedianApproximation",
    "Provenance",
    "run",
    "evaluate",
    "epsilon_bound",
    "verify_concentration",
    "verify_median_amplification",
    "ConcentrationReport",
    "save_approximation",
    "load_approximation",
]

# purpose tags for the verification harnesses' streams, disjoint from the
# run()'s genvec/shift tags
_PURPOSE_VERIFY_GENVEC = 2
_PURPOSE_VERIFY_SHIFT = 3

# coarse-lattice radius at which epsilon(h) truncates the Korobov norm
_NORM_RADIUS = 2**12

# bytes of work arrays evaluate holds per chunk of points (see
# _EvaluationPlan.bytes_per_point), so memory does not grow with the number
# of points; each thread of a batch holds one set.  numpy's temporaries in
# _phase_table (118 KB for the conjugate step and 40-80 KB per doubling with
# s >= 2 at K=10, d=2, 612 points) put a chunk's peak about 11 % above
# this; avoiding them measured slower
_CHUNK_BYTES = 2**20

# what one more matrix product per chunk costs evaluate in calls and BLAS
# set-up, about 1 us, as complex multiply-adds in its small products (see
# _groups)
_GROUP_COST = 2**14


@dataclass(frozen=True)
class Provenance:
    """Everything needed to reproduce one MedianApproximation."""

    params: AlgorithmParams
    problem: SmoothnessParams
    weights: ProductWeights


class _CoefficientView(Mapping):
    """Read-only map from each member of ``index_set`` to its coefficient,
    a Python complex, over one read-only complex128 ``vector`` aligned with
    the rows of ``index_set.H``.  Keys, their order, ``==`` with a dict and
    ``KeyError`` behave as for the dict of the same items."""

    __slots__ = ("index_set", "vector")

    def __init__(self, index_set: HyperbolicCross, vector: np.ndarray):
        # takes ownership of ``vector``, which only this view may reach
        vector.flags.writeable = False
        self.index_set = index_set
        self.vector = vector

    def __getitem__(self, h) -> complex:
        return complex(self.vector[self.index_set.row(h)])

    def __iter__(self):
        return iter(self.index_set.indices)

    def __len__(self) -> int:
        return len(self.vector)

    def __eq__(self, other):
        if isinstance(other, _CoefficientView) and other.index_set == self.index_set:
            return bool(np.array_equal(self.vector, other.vector))
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        # a copy or an unpickled view gets a read-only vector too
        return _CoefficientView, (self.index_set, self.vector)


@dataclass(frozen=True)
class MedianApproximation:
    """Result of one algorithm run.

    ``coefficients`` maps exactly the members of ``index_set`` to their
    coefficients.  It is a read-only view over one complex128 vector,
    ``coefficients.vector``, aligned with the rows of ``index_set.H``; a
    dict given here is checked and converted once.  ``eval_count`` records the
    number of function evaluations, always R*N.
    """

    index_set: HyperbolicCross
    coefficients: Mapping
    provenance: Provenance
    eval_count: int

    def __post_init__(self):
        coefficients = self.coefficients
        if isinstance(coefficients, _CoefficientView) and coefficients.index_set is self.index_set:
            return
        indices = self.index_set.indices
        if set(coefficients) != set(indices):
            raise ValueError("coefficients must be keyed exactly by the index-set members")
        vector = np.array([coefficients[h] for h in indices], dtype=np.complex128)
        object.__setattr__(self, "coefficients", _CoefficientView(self.index_set, vector))

    @cached_property
    def _plan(self) -> "_EvaluationPlan":
        # built on the first evaluate call; not a field, so equality, repr
        # and the saved file do not see it
        return _EvaluationPlan(self.index_set, self.coefficients.vector)


class _EvaluationPlan:
    """One approximation's coefficients laid out for ``evaluate``.

    Half cross.  With e(t) = exp(2*pi*i*t) and c_h = 0 for h outside A, let
    B hold h = 0, every h in A whose first nonzero component is positive,
    and -h for every other h in A whose -h is not in A.  Then

        Re sum_A c_h e(h.x) = sum_{g in B} Re(b_g e(g.x)),
        Im sum_A c_h e(h.x) = sum_{g in B} Im(d_g e(g.x)),

    with b_g = c_g + conj(c_{-g}) and d_g = c_g - conj(c_{-g}), except
    b_0 = Re c_0 and d_0 = i Im c_0.  B has about |A|/2 members, and about
    half of A's prefixes (below), since its first coordinate is >= 0.

    Prefixes.  The sum over B is grouped by the prefix p = (g_1..g_{d-1}):

        sum_g b_g e(g.x) = sum_p prod_{j<d} e(p_j x_j) * sum_k S[p, k] e(k x_d).

    A point then needs only the tables e(k x_j) for |k| <= K = max |h_j|,
    not one exponential per frequency.  One table serves every coordinate
    of a chunk; it costs one complex exponential per coordinate and point,
    the rest is complex products (``_phase_table``).

    Ragged fold.  Each prefix meets only its own range of k, so S is kept
    as blocks, one per group of prefixes (``_groups``), each spanning the
    union of its prefixes' ranges and folded by one matrix product per
    chunk.  In a hyperbolic cross a block row is less than twice its
    prefix's range until groups merge to save a product, so the blocks
    hold between |A|/2 and about |A| entries, not the (#prefixes, 2K_d+1)
    box; that is the multiply-adds per point.  ``S`` holds b's blocks;
    ``S_imag`` holds those of -i d, whose real parts are the imaginary
    parts of the sums, and is None when |d_0| + sum |d_g| is within
    ``residual_tol``, so that no point can exceed it.

    Per chunk, the table is copied point-major once.  The products read
    their columns of the last coordinate from it, the prefixes' factors
    are taken from it, and each point's terms are summed along its row, so
    the arithmetic on a point does not depend on the others in its chunk.
    """

    def __init__(self, index_set: HyperbolicCross, c: np.ndarray):
        d = index_set.params.dim
        # (|A|, d) frequencies in index-set order; A is not empty
        self.H = index_set.H
        _check_finite_coefficients(c)
        self.residual_tol = 1e-9 * np.abs(c).sum()
        self.K = K = int(np.abs(self.H).max())
        B, b, d_imag = _half_cross(self.H, c)
        prefixes, prefix_of = np.unique(B[:, :-1], axis=0, return_inverse=True)
        prefix_of = prefix_of.reshape(-1)
        k = B[:, -1]
        # each prefix's range lo..hi of k
        lo = np.full(len(prefixes), K)
        hi = np.full(len(prefixes), -K)
        np.minimum.at(lo, prefix_of, k)
        np.maximum.at(hi, prefix_of, k)
        self.prefix_count = len(prefixes)
        # the arrays of _work, per point
        self.bytes_per_point = 16 * (2 * (2 * K + 1) * d + 2 * len(prefixes) + 1)
        # chunk_rows as it reads now: the grouping is fixed here
        rows = max(1, _CHUNK_BYTES // self.bytes_per_point)
        group_of = _groups(lo, hi, _GROUP_COST / rows)
        # prefixes in group order, a group's in rows first[g]:first[g+1]
        order = np.argsort(group_of, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = np.concatenate([[0], np.cumsum(np.bincount(group_of))])
        g_lo = np.minimum.reduceat(lo[order], first[:-1])
        g_hi = np.maximum.reduceat(hi[order], first[:-1])
        widths = g_hi - g_lo + 1
        # per group: its prefixes, and its columns k = g_lo..g_hi of the
        # last coordinate in the point-major table
        at = (d - 1) * (2 * K + 1) + K
        self.groups = [
            (int(p0), int(p1), slice(int(at + a), int(at + z + 1)))
            for p0, p1, a, z in zip(first[:-1], first[1:], g_lo, g_hi)
        ]
        # per prefix coordinate j, the columns of its prefixes' p_j
        self.prefix_columns = [
            j * (2 * K + 1) + K + prefixes[order, j] for j in range(d - 1)]
        # the blocks lie one after another in a flat array; each member of B
        # has its place in them
        start = np.concatenate([[0], np.cumsum(np.diff(first) * widths)])
        self.entries = int(start[-1])
        g = group_of[prefix_of]
        slots = start[g] + (rank[prefix_of] - first[g]) * widths[g] + k - g_lo[g]

        def blocks(values):
            # each group's block of S, transposed: (width, prefixes)
            flat = np.zeros(self.entries, dtype=np.complex128)
            flat[slots] = values
            return [
                flat[a:z].reshape(p1 - p0, -1).T
                for (p0, p1, _), a, z in zip(self.groups, start[:-1], start[1:])
            ]

        self.S = blocks(b)
        self.S_imag = None
        if np.abs(d_imag).sum() > self.residual_tol:
            self.S_imag = blocks(-1j * d_imag)

    @cached_property
    def chunk_rows(self) -> int:
        """Points per chunk, so that a chunk's work arrays take about
        _CHUNK_BYTES; fixed on the first evaluate call."""
        return max(1, _CHUNK_BYTES // self.bytes_per_point)

    def real_parts(self, pts: np.ndarray, S: list) -> np.ndarray:
        """Re sum_{g in B} s_g e(g.x) at each row x of the (n, d) array
        ``pts``, for the coefficients s_g whose blocks are ``S`` (``self.S``
        or ``self.S_imag``).

        The chunks start at multiples of ``chunk_rows`` from the first
        point.  A batch of several chunks is split into contiguous runs of
        whole chunks, one per usable CPU (``_fan_out``); each run has work
        arrays of its own and writes only its own points' values.

        A lone point goes on as two copies once its phases are taken,
        because numpy hands one-row and one-column arrays to other BLAS
        routines and loops than longer ones, which round differently; so a
        point's value does not depend on its batch.
        """
        n = len(pts)
        rows = self.chunk_rows
        out = np.empty(n)
        chunks = -(-n // rows)
        # a lone point or one chunk skips the fan-out's bookkeeping, even
        # the CPU count: together about 5 % of a lone point's time
        runs = min(_usable_cpus(), chunks) if chunks > 1 else 1
        if runs > 1:
            _fan_out(partial(self._fold, pts, S, out),
                     [min(n, chunks * r // runs * rows) for r in range(runs + 1)])
        else:
            self._fold(pts, S, out, 0, n)
        return out

    def _fold(self, pts: np.ndarray, S: list, out: np.ndarray, lo: int, hi: int) -> None:
        """``real_parts`` of the points lo:hi into out[lo:hi], chunk by
        chunk; lo is a multiple of ``chunk_rows``."""
        d = pts.shape[1]
        rows = self.chunk_rows
        for start in range(lo, hi, rows):
            chunk = pts[start:start + rows]
            m = len(chunk)
            if start == lo or m < rows:
                # full chunks share one set of work arrays: fresh ones per
                # chunk can be handed back to the system and faulted in
                # again every time
                work = self._work(m, d)
            table, points, G, factor, sums = work
            size = len(sums)
            _phase_table(chunk, table)
            # point-major, each point's row holding its coordinates' tables
            # one after another: a group of one prefix takes a
            # matrix-vector product, which on a transposed view rounds
            # differently for different numbers of points
            points.reshape(size, d, -1)[...] = table.reshape(-1, d, size).T
            for (p0, p1, columns), block_T in zip(self.groups, S):
                # column slices with unit stride go to BLAS as they are, so
                # each product writes its columns of G without a copy
                np.matmul(points[:, columns], block_T, out=G[:, p0:p1])
            for prefix_columns in self.prefix_columns:
                points.take(prefix_columns, axis=1, out=factor, mode="clip")
                np.multiply(G, factor, out=G)
            # each point's sum over its row, the same for any number of rows
            np.einsum("ij->i", G, out=sums)
            # not a lone point's copy: the slot after it may be another
            # thread's
            out[start:start + m] = sums.real[:m]

    def _work(self, m: int, d: int) -> tuple:
        """Work arrays for a chunk of m points, two for a lone point: its
        table, the table point-major, the groups' matmul results G, a
        prefix coordinate's factors and the sums."""
        size, P, c = max(m, 2), self.prefix_count, np.complex128
        return (
            np.empty((2 * self.K + 1, d * size), dtype=c),
            np.empty((size, d * (2 * self.K + 1)), dtype=c),
            np.empty((size, P), dtype=c),
            np.empty((size, P), dtype=c),
            np.empty(size, dtype=c),
        )


def _groups(lo: np.ndarray, hi: np.ndarray, overhead: float) -> np.ndarray:
    """Group ids, numbered from 0, for prefixes with ranges lo..hi of k.

    A prefix's class is the least power of two s for which the 2s values
    of k from the multiple of s at or below lo reach hi, with that
    multiple.  A class's block, over the union of its ranges, is then less
    than four times as wide as any of its prefixes' ranges.  A hyperbolic
    cross's ranges are -m..m (s is the least power of two above m, and the
    block less than twice as wide), and 0..m for the zero prefix, so it
    has at most ceil(log2(K_d+1)) + 2 classes.  In the order of
    (s, multiple), a class joins the group before it when the merged block
    has fewer entries than the two blocks plus ``overhead``, the entries
    whose multiply-adds per chunk cost what one more matrix product does.
    """
    s = np.ones_like(lo)
    while True:
        short = hi >= lo // s * s + 2 * s
        if not short.any():
            break
        s[short] *= 2
    _, cls = np.unique(np.stack([s, lo // s * s], axis=1), axis=0, return_inverse=True)
    cls = cls.reshape(-1)
    count = np.bincount(cls).tolist()
    c_lo = np.full(len(count), hi.max())
    c_hi = np.full(len(count), lo.min())
    np.minimum.at(c_lo, cls, lo)
    np.maximum.at(c_hi, cls, hi)
    labels, group, size = [], -1, 0
    for n, a, z in zip(count, c_lo.tolist(), c_hi.tolist()):
        if size and (size + n) * (max(z, top) - min(a, bottom) + 1) < (
                size * (top - bottom + 1) + n * (z - a + 1) + overhead):
            size, bottom, top = size + n, min(a, bottom), max(z, top)
        else:
            group, size, bottom, top = group + 1, n, a, z
        labels.append(group)
    return np.array(labels)[cls]


def _half_cross(H: np.ndarray, c: np.ndarray) -> tuple:
    """B, b and d of ``_EvaluationPlan`` for the frequencies H and their
    coefficients c: B as an int64 array of rows, b and d aligned with it."""
    lead = H[np.arange(len(H)), np.argmax(H != 0, axis=1)]  # 0 for h = 0
    _, partner = _negatives(H)
    c_neg = np.where(partner >= 0, c[partner], 0.0)  # c_{-h}
    pos, zero = lead > 0, lead == 0
    lone = (lead < 0) & (partner < 0)
    B = np.concatenate([H[zero], H[pos], -H[lone]])
    b = np.concatenate([c[zero].real, c[pos] + np.conj(c_neg[pos]), np.conj(c[lone])])
    d = np.concatenate([1j * c[zero].imag, c[pos] - np.conj(c_neg[pos]), -np.conj(c[lone])])
    return B, b, d


def _check_finite_coefficients(c: np.ndarray) -> None:
    """ValueError naming how many coefficients are NaN or infinite."""
    bad = c.size - np.count_nonzero(np.isfinite(c))
    if bad:
        raise ValueError(f"approximation has {bad} non-finite coefficients")


def _phase_table(pts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fill ``table`` with e(k x) in row K+k, for k = -K..K, and return it.

    ``table`` has 2K+1 rows and d*m columns, and x runs over the (m, d)
    points ``pts`` coordinate by coordinate: coordinate j's points are the
    columns j*m..(j+1)*m - 1.  A lone point, ``pts`` of shape (1, d), takes
    a table of m = 2 columns per coordinate and fills both.

    Row K+1 takes one complex exponential, the cosine and sine of 2 pi x,
    per coordinate of each point.  Then, for s = 1, 2, 4, ..., rows
    K+s+1..K+2s are the products e(s x) * e(r x) for r = 1..s, and the rows
    of negative k are the conjugates.
    """
    K = len(table) // 2
    pos = table[K:]  # row k is e(k x)
    pos[0] = 1.0
    if K:
        row = pos[1].reshape(pts.shape[1], -1)
        first = np.multiply(pts.T, 2j * math.pi, out=row[:, :len(pts)])
        np.exp(first, out=first)
        if len(pts) == 1:
            row[:, 1] = row[:, 0]
        for known, step, filled in _doublings(K):
            np.multiply(pos[known], pos[step], out=pos[filled])
        np.conjugate(pos[1:], out=table[K - 1::-1])
    return table


@lru_cache(maxsize=None)
def _doublings(K: int) -> tuple:
    """The block products of ``_phase_table`` for rows 2..K: per s = 1, 2,
    4, ..., the slices of rows 1..r, row s and rows s+1..s+r, r = min(s, K-s)."""
    steps = []
    s = 1
    while s < K:
        r = min(s, K - s)
        steps.append((slice(1, r + 1), slice(s, s + 1), slice(s + 1, s + r + 1)))
        s += r
    return tuple(steps)


def _median(values: np.ndarray, axis: int) -> np.ndarray:
    """Componentwise median along ``axis``, whose length must be odd: the
    middle order statistic of the real and of the imaginary parts, each found
    by selection (no full sort)."""
    k = values.shape[axis] // 2
    re = np.take(np.partition(values.real, k, axis=axis), k, axis=axis)
    im = np.take(np.partition(values.imag, k, axis=axis), k, axis=axis)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(task, bounds: list) -> list:
    """[task(lo, hi) for consecutive lo, hi in ``bounds``], in that order.

    The first slice runs on the calling thread and each other slice on a
    thread of its own, so tasks must write only their own slice of any
    shared output.  A task's exception propagates once every thread has
    ended; with one slice no thread is started.
    """
    if len(bounds) == 2:
        return [task(*bounds)]
    with ThreadPoolExecutor(max_workers=len(bounds) - 2) as pool:
        rest = pool.map(task, bounds[1:-1], bounds[2:])
        return [task(bounds[0], bounds[1]), *rest]


def _repetitions(f_eval, config: LatticeConfig, Z, D, H, workers: int = 1) -> np.ndarray:
    """The (len(Z), len(H)) complex128 estimates at the frequencies H, row r
    from lattice r, (Z[r], D[r]), on which f is evaluated once at N nodes.

    At most ``workers`` threads, the calling one among them, each estimate
    a contiguous slice of whole pairs (2k, 2k+1), which the estimator
    transforms together (``_fan_out``).  A row depends only on its pair,
    not on the slice or FFT block it lands in, so the matrix is
    bit-identical for any ``workers``.  The evaluations are checked to
    total len(Z)*N; a non-finite value raises ValueError naming its count
    and its row, the repetition.
    """
    R = len(Z)
    ests = np.empty((R, len(H)), dtype=np.complex128)

    def estimate_slice(lo: int, hi: int) -> int:
        # evaluations are counted per slice, never in state shared between
        # worker threads, and summed after the fan-out
        points = 0

        def counted(X):
            nonlocal points
            points += X.shape[0]
            return f_eval(X)

        try:
            ests[lo:hi] = estimate_coefficients(counted, config, Z[lo:hi], D[lo:hi], H)
        except NonFiniteValueError as err:
            # the estimator counts rows within this slice
            raise ValueError(
                f"f returned {err.count} non-finite values in repetition {lo + err.row}"
            ) from err
        return points

    pairs = (R + 1) // 2
    slices = max(1, min(workers, pairs))
    eval_count = sum(_fan_out(
        estimate_slice, [min(R, 2 * (pairs * s // slices)) for s in range(slices + 1)]))
    if eval_count != R * config.N:
        raise AssertionError(f"evaluation count {eval_count} != len(Z)*N = {R * config.N}")
    return ests


def run(
    f_eval,
    params: AlgorithmParams,
    problem: SmoothnessParams,
    weights: ProductWeights,
    workers: int = 1,
) -> MedianApproximation:
    """Run the full algorithm: R repetitions, one median per frequency,
    over the rows of ``_repetitions``; repetition r's lattice is keyed by r.

    Parameters
    ----------
    f_eval : callable
        Maps an (N, d) array of points to N real values.
    params : AlgorithmParams
    problem, weights
        Smoothness parameters and product weights defining A_d(N_star).
    workers : int
        Thread count for the repetition map, the calling thread included;
        at most (R + 1) // 2 threads run, one per slice of whole pairs of
        the R lattices.  The output is bit-identical for any value; one
        that is not an integer >= 1 raises ValueError.

    Returns
    -------
    MedianApproximation
    """
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ValueError(f"workers = {workers!r} must be an integer >= 1")
    cross = enumerate_hyperbolic_cross(params.N_star, problem, weights)
    config = LatticeConfig(params.N, problem.dim)
    keys = [(params.master_seed, r) for r in range(params.R)]
    Z, D = _draw_lattices(config, keys, PURPOSE_GENVEC, PURPOSE_SHIFT)
    ests = _repetitions(f_eval, config, Z, D, cross.H, workers)  # row r from repetition r
    return MedianApproximation(
        index_set=cross,
        coefficients=_CoefficientView(cross, _median(ests, axis=0)),
        provenance=Provenance(params, problem, weights),
        eval_count=params.R * params.N,
    )


def evaluate(approx: MedianApproximation, x):
    """Evaluate the approximation at x (a point (d,) or a batch (n, d)).

    Returns the real part of sum_h c_h e^{2*pi*i*h.x}.  For real input
    functions the imaginary part is pure noise; it is checked against
    1e-9 * sum |c_h| and a violation raises, since it indicates a broken
    coefficient map rather than roundoff.

    Every coordinate must be finite; otherwise ValueError names how many
    are not, before any work is done.  A non-finite coefficient raises
    ValueError naming how many there are.

    The points are taken in chunks of about 1 MiB of work arrays, which
    numpy's temporaries in the phase table raise by about 11 % (1.17 MB
    per 612-point chunk at K = 10, d = 2).  A batch of several chunks is
    split into runs of whole chunks, one thread per usable CPU, the
    calling thread among them, each with its own work arrays; so work
    memory is about 1.17 MB per thread.  Per point and
    coordinate j, the table of e(k x_j) for |k| <= K (K = max |h_j| over A
    and j) costs one complex exponential, K - 1 complex products and K
    conjugates.  The fold runs over half of A, one member of each pair
    {h, -h}, and each group of prefixes over its own range of h_d: in a
    hyperbolic cross, between |A|/2 and |A| multiply-adds per point, and
    the products of about half the prefixes; see ``_EvaluationPlan``.  The
    imaginary part takes a second fold only when |Im c_0| plus
    sum |c_h - conj(c_{-h})| over that half exceeds the tolerance.  A
    point's value does not depend on the batch it comes in.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if pts.ndim < 2:
        pts = pts.reshape(1, -1)
    d = approx.index_set.params.dim
    if pts.ndim > 2 or pts.shape[-1] != d:
        raise ValueError(f"points have shape {np.shape(x)}, expected ({d},) or (n, {d})")
    finite = np.isfinite(pts)
    if not np.logical_and.reduce(finite, axis=None):
        raise ValueError(
            f"points have {finite.size - np.count_nonzero(finite)} non-finite coordinates"
        )
    if not approx.coefficients:
        return 0.0 if single else np.zeros(len(pts))
    plan = approx._plan
    vals = plan.real_parts(pts, plan.S)
    if plan.S_imag is not None:
        worst = np.maximum.reduce(np.abs(plan.real_parts(pts, plan.S_imag)), initial=0.0)
        if worst > plan.residual_tol:
            raise ValueError(
                f"imaginary residual {worst:.3e} exceeds {plan.residual_tol:.3e}; "
                "coefficients are not conjugate-symmetric"
            )
    return float(vals[0]) if single else vals


# --------------------------------------------------------------------------
# epsilon(h) and the Monte-Carlo verification harnesses
# --------------------------------------------------------------------------

def epsilon_bound(
    h,
    f: SpectralOracle,
    params: AlgorithmParams,
    problem: SmoothnessParams,
    weights: ProductWeights,
    tail_radius: int = 8,
) -> float:
    """The per-frequency concentration threshold epsilon(h).

    epsilon(h)^2 = (1/tau + log N_star) * ( ||f||^2 / (N_star^(2*alpha)*(N-1))
                                            + tail(h) ),

    where tail(h) sums |f_hat(ell+h)|^2 over the nonzero coarse-lattice
    shifts ell in N*Z^d and ||f|| is the Korobov norm truncated at radius
    2^12.  The tail is truncated at ``tail_radius`` coarse cells
    per coordinate; a convergence check against half the radius warns when
    the truncation looks unconverged (relative change >= 1e-4).
    """
    H = _probe_rows([h], problem.dim)
    norm_sq = korobov_norm_sq_truncated(f, problem, weights, _NORM_RADIUS)
    return _epsilons(H, f, params, problem, norm_sq, tail_radius, stacklevel=3)[0]


def _probe_rows(indices, d: int) -> np.ndarray:
    """The probe frequencies ``indices`` as the rows of an int64 array; a
    probe without d components raises ValueError naming it."""
    rows = [FrequencyIndex(h).components for h in indices]
    for h in rows:
        if len(h) != d:
            raise ValueError(f"probe {h} has {len(h)} components, not d = {d}")
    return np.array(rows, dtype=np.int64).reshape(-1, d)


def _epsilons(
    H: np.ndarray,
    f: SpectralOracle,
    params: AlgorithmParams,
    problem: SmoothnessParams,
    norm_sq: float,
    tail_radius: int,
    stacklevel: int,
) -> list:
    """epsilon(h) at each int64 frequency row h of H, given the truncated
    squared Korobov norm, which does not depend on h.

    The coarse shifts N*ell, ell in [-r, r]^d \\ {0} for r = ``tail_radius``,
    are built once per call, and each probe takes one oracle call at
    h + N*ell.  Its tail at radius r // 2, for the convergence check, sums
    the part with |ell|_inf <= r // 2 of the same squares; fsum is correctly
    rounded, so neither tail depends on the order of its terms.
    ``stacklevel`` is that of the convergence warning, counted from this
    function, so that it names the line that called the public entry point.
    """
    r, d = tail_radius, problem.dim
    if r < 0:
        raise ValueError("radius must be >= 0")
    ell = np.indices((2 * r + 1,) * d).reshape(d, -1).T - r
    ell = ell[np.any(ell != 0, axis=1)]
    inner = np.all(np.abs(ell) <= r // 2, axis=1)
    lead = norm_sq / (params.N_star ** (2.0 * problem.alpha) * (params.N - 1))
    factor = 1.0 / params.tau + log(params.N_star)
    eps = []
    for h in H:
        sq = [abs(c) ** 2 for c in f.coefficients(params.N * ell + h).tolist()] if r else []
        e = math.sqrt(factor * (lead + math.fsum(sq)))
        if r >= 2:
            e_half = math.sqrt(factor * (lead + math.fsum(compress(sq, inner))))
            if abs(e - e_half) >= 1e-4 * max(e, 1e-300):
                warnings.warn(
                    f"aliasing tail at radius {r} not converged: "
                    f"epsilon moves from {e_half:.6e} (radius {r // 2}) to {e:.6e}",
                    stacklevel=stacklevel,
                )
        eps.append(e)
    return eps


def _default_probe_indices(
    cross: HyperbolicCross, problem: SmoothnessParams, weights: ProductWeights
):
    """h = 0 plus every member of minimal positive weight-function value, as
    the rows of an int64 array."""
    H = cross.H[np.any(cross.H != 0, axis=1)]
    r = np.maximum(np.abs(H) ** (2.0 * problem.alpha) / weights.require(problem.dim), 1.0)
    r = np.prod(r, axis=1)
    small = H[r <= r.min(initial=np.inf) * (1.0 + 1e-12)]
    return np.concatenate([np.zeros((1, problem.dim), dtype=np.int64), small])


def lemma_bound_single(params: AlgorithmParams) -> float:
    """Per-repetition exceedance bound (1 + tau) / (1 + tau * log N_star)."""
    return (1.0 + params.tau) / (1.0 + params.tau * log(params.N_star))


def lemma_bound_amplified(params: AlgorithmParams) -> float:
    """Median exceedance bound (4*(1+tau)/(1+tau*log N_star))^ceil(R/2)."""
    base = 4.0 * lemma_bound_single(params)
    return base ** math.ceil(params.R / 2.0)


@dataclass(frozen=True)
class ProbeResult:
    h: FrequencyIndex
    epsilon: float
    threshold_sq: float
    bound: float
    failures: int
    trials: int
    vacuous: bool

    @property
    def rate(self) -> float:
        return self.failures / self.trials


@dataclass(frozen=True)
class ConcentrationReport:
    results: tuple
    kind: str   # "single" or "median"

    def __iter__(self):
        return iter(self.results)

    def vacuous(self) -> bool:
        return all(r.vacuous for r in self.results)


def _verify(f, params, problem, weights, trials, indices, tail_radius, median: bool):
    """The harness behind verify_concentration (``median`` false: one lattice
    per trial, streams keyed (master_seed, trial, purpose), threshold
    epsilon(h)^2) and verify_median_amplification (``median`` true: the
    median of R lattices per trial, streams keyed (master_seed, trial, r,
    purpose), threshold 2*epsilon(h)^2)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if indices is not None:
        H = _probe_rows(indices, problem.dim)
    else:
        cross = enumerate_hyperbolic_cross(params.N_star, problem, weights)
        H = _default_probe_indices(cross, problem, weights)
    norm_sq = korobov_norm_sq_truncated(f, problem, weights, _NORM_RADIUS)
    eps = _epsilons(H, f, params, problem, norm_sq, tail_radius, stacklevel=4)
    truth = f.coefficients(H)
    config = LatticeConfig(params.N, problem.dim)
    reps = [(r,) for r in range(params.R)] if median else [()]
    keys = [(params.master_seed, t, *rep) for t in range(trials) for rep in reps]
    Z, D = _draw_lattices(config, keys, _PURPOSE_VERIFY_GENVEC, _PURPOSE_VERIFY_SHIFT)
    ests = _repetitions(f.evaluate, config, Z, D, H)  # (lattices, |probes|)
    probes = [FrequencyIndex(h) for h in H.tolist()]
    if median:
        medians = _median(ests.reshape(trials, params.R, len(probes)), axis=1)
        return _report(probes, eps, 2.0, lemma_bound_amplified(params), medians, truth, "median")
    return _report(probes, eps, 1.0, lemma_bound_single(params), ests, truth, "single")


def _report(probes, eps, threshold_factor, bound, estimates, truth, kind):
    """The report counting, per probe, the rows of ``estimates`` whose
    squared error exceeds threshold_factor * epsilon(h)^2."""
    thresholds = [threshold_factor * e ** 2 for e in eps]
    exceeded = np.abs(estimates - truth) ** 2 > np.asarray(thresholds)
    failures = exceeded.sum(axis=0).tolist()
    results = tuple(
        ProbeResult(
            h=h,
            epsilon=e,
            threshold_sq=t,
            bound=bound,
            failures=n,
            trials=len(estimates),
            vacuous=bound >= 1.0,
        )
        for h, e, t, n in zip(probes, eps, thresholds, failures)
    )
    return ConcentrationReport(results=results, kind=kind)


def verify_concentration(
    f: SpectralOracle,
    params: AlgorithmParams,
    problem: SmoothnessParams,
    weights: ProductWeights,
    trials: int,
    indices: Optional[Iterable] = None,
    tail_radius: int = 8,
) -> ConcentrationReport:
    """Measure single-repetition exceedance of epsilon(h)^2.

    For each probe frequency h, runs ``trials`` independent single-(z, delta)
    estimates (streams keyed (master_seed, trial, purpose)) and counts how
    often |estimate - f_hat(h)|^2 > epsilon(h)^2.  The analytic per-trial
    bound is (1+tau)/(1+tau*log N_star); when that exceeds 1 the comparison
    is vacuous and flagged as such, so callers can skip with notice instead
    of reporting a meaningless pass.
    """
    return _verify(f, params, problem, weights, trials, indices, tail_radius, median=False)


def verify_median_amplification(
    f: SpectralOracle,
    params: AlgorithmParams,
    problem: SmoothnessParams,
    weights: ProductWeights,
    trials: int,
    indices: Optional[Iterable] = None,
    tail_radius: int = 8,
) -> ConcentrationReport:
    """Measure exceedance of 2*epsilon(h)^2 by the R-fold median estimate.

    Each trial runs the full R-repetition median with streams keyed
    (master_seed, trial, r, purpose); the analytic bound is the amplified
    (4*(1+tau)/(1+tau*log N_star))^ceil(R/2).  R = 1 degenerates to the
    single-repetition check at the doubled threshold.
    """
    return _verify(f, params, problem, weights, trials, indices, tail_radius, median=True)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def save_approximation(approx: MedianApproximation, path) -> None:
    """Write header (#key=value) plus one row per coefficient, 17 sig digits."""
    p = approx.provenance.params
    prob = approx.provenance.problem
    gammas = ",".join("%.17g" % g for g in approx.provenance.weights.gammas)
    d = prob.dim
    with open(path, "w", newline="") as fh:
        fh.write(f"#N={p.N}\n")
        fh.write(f"#R={p.R}\n")
        fh.write("#tau=%.17g\n" % p.tau)
        fh.write("#N_star=%.17g\n" % p.N_star)
        fh.write(f"#seed={p.master_seed}\n")
        fh.write(f"#d={d}\n")
        fh.write("#alpha=%.17g\n" % prob.alpha)
        fh.write(f"#gamma={gammas}\n")
        fh.write(f"#eval_count={approx.eval_count}\n")
        fh.write(",".join([f"h_{j + 1}" for j in range(d)] + ["re", "im"]) + "\n")
        for h, c in zip(approx.index_set.H.tolist(), approx.coefficients.vector.tolist()):
            cols = [str(comp) for comp in h]
            cols += ["%.17g" % c.real, "%.17g" % c.imag]
            fh.write(",".join(cols) + "\n")


def load_approximation(path) -> MedianApproximation:
    """Inverse of save_approximation; re-derives and validates the index set.

    A header without one of the keys that save_approximation writes, or
    with a value that does not parse, raises ValueError naming the key.  A
    NaN or infinite coefficient raises ValueError naming how many there
    are; a row without d + 2 fields, or repeating an earlier row's
    frequency, raises ValueError naming the row.
    """
    header = {}
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key] = val
            elif line and not line.startswith("h_"):
                rows.append(line)

    def field(key, parse, default=None):
        if key not in header:
            if default is not None:
                return default
            raise ValueError(f"header has no #{key}= line")
        try:
            return parse(header[key])
        except ValueError as err:
            raise ValueError(f"header #{key}={header[key]!r}: {err}") from err

    d = field("d", int)
    weights = field("gamma", lambda v: ProductWeights([float(g) for g in v.split(",")]))
    problem = SmoothnessParams(alpha=field("alpha", float), dim=d)
    params = AlgorithmParams.from_problem(
        N=field("N", int),
        R=field("R", int),
        tau=field("tau", float),
        master_seed=field("seed", int),
        problem=problem,
        weights=weights,
    )
    cross = enumerate_hyperbolic_cross(params.N_star, problem, weights)
    coefficients = {}
    for line in rows:
        row = line.split(",")
        if len(row) != d + 2:
            raise ValueError(f"row {line!r} has {len(row)} fields, expected {d + 2}")
        h = tuple(int(v) for v in row[:d])
        if h in coefficients:
            raise ValueError(f"row {line!r} repeats frequency {h}")
        coefficients[h] = complex(float(row[d]), float(row[d + 1]))
    _check_finite_coefficients(np.array(list(coefficients.values()), dtype=np.complex128))
    members = list(map(tuple, cross.H.tolist()))
    if set(coefficients) != set(members):
        raise ValueError("stored rows do not match the index set implied by the header")
    vector = np.array([coefficients[h] for h in members], dtype=np.complex128)
    return MedianApproximation(
        index_set=cross,
        coefficients=_CoefficientView(cross, vector),
        provenance=Provenance(params, problem, weights),
        eval_count=field("eval_count", int, params.R * params.N),
    )
