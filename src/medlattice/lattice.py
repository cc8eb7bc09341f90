"""Rank-1 lattice nodes, seeded randomness, and the shifted Fourier estimator.

A rank-1 lattice rule with prime size N and generating vector z samples f at
the shifted nodes x_k = {k*z/N + Delta}, k = 0..N-1.  The estimator for the
Fourier coefficient at frequency h is the plain average

    (1/N) * sum_k f(x_k) * exp(-2*pi*i * h.x_k).

On a rank-1 lattice h.x_k = (h.z mod N)*k/N + h.Delta (mod 1), so every
estimate is a phase times one entry of the length-N discrete Fourier
transform of the node values:

    exp(-2*pi*i * h.Delta) * fft(f(x))[h.z mod N] / N.

One FFT plus a gather serves all targets, at cost O(N log N + |A|*d) per
lattice.  Lattices of one size are transformed together, a block of rows
per FFT call, so the length-N transform is planned once per block rather
than once per lattice.  Above N = 2^15 a block holds one lattice, and its
DFT is Bluestein's chirp convolution done as a four-step FFT over the
short 7-smooth lengths P, Q ~ sqrt(2N), so numpy never plans a prime
length.  Its tables (the chirp, the twiddles and the filter spectrum)
depend on N alone, so they are built once per lattice size, read-only and
shared by every call and thread; only the last size's are kept, and a call
allocates only its work buffer.  When f is real, the lattices at positions
2k and 2k+1 of a call share one row as the real and the imaginary part of
u + i*v, and the two spectra are separated after the transform, so a real
pair costs one transform instead of two.  A call with fewer than log2(N)
targets needs no transform: Bluestein's chirp identity gives each DFT value
as one contiguous length-N sum, at cost O(|A|*N) per lattice.  For real f
the estimate at -h is the conjugate of the one at h and the one at h = 0 is
the mean of the values, so such a call takes one sum per pair {h, -h} of
targets and none for h = 0.

Per lattice the estimator does only what needs that lattice's values: its
nodes, the one call of f, the sum of the values (which is both the check
that they are finite and, for real f, the h = 0 mean) and the input to the
transform or the chirp sums.  Everything indexed by target runs once per
FFT block or once per call on (lattices x targets) arrays: the residues
h.z mod N, the gathers and the unpacking of the spectra, the shift phases
and the pairing of h with -h.

A call's n lattices are two arrays, from the draw to the estimates: the
generating vectors are the rows of an (n, d) int64 array Z and the shifts
the rows of an (n, d) float64 array D.  All randomness flows through
counter-based Philox streams keyed by tuples such as (master_seed,
repetition, purpose), one stream per row of Z and one per row of D, so
repetitions are independent of execution order and bit-reproducible under
any thread count.  Every stream is exactly ``rng_stream``'s for its key: a
call hashes all its keys at once, by numpy's SeedSequence hash run over
one uint32 array per key length, and re-keys one Philox generator per
stream instead of building a SeedSequence, a Philox and a Generator for
each.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .korobov import _frequency_rows, _integer, _integer_tuple
from .params import is_prime

__all__ = [
    "LatticeConfig",
    "PURPOSE_GENVEC",
    "PURPOSE_SHIFT",
    "rng_stream",
    "roots_of_unity",
    "NonFiniteValueError",
    "estimate_coefficients",
    "dual_membership",
]

# purpose tags separating the random streams of one repetition
PURPOSE_GENVEC = 0
PURPOSE_SHIFT = 1

# largest supported lattice size: below it the node products k*z_j and the
# residue terms (h_j mod N)*z_j are at most (N-1)^2 < 2^62, inside int64
_MAX_N = 2**31

# bytes of node values transformed per batched FFT call: one call per block
# plans the length-N transform once for all its rows, and above N = 2^15 a
# block holds a single lattice, so memory stays O(N) for large lattices
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size N (prime, verified) and dimension."""

    N: int
    dim: int

    def __post_init__(self):
        if not is_prime(self.N):
            raise ValueError(f"N = {self.N} is not prime")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "dim", _integer(self.dim, 1, "dim"))


def _stream_key(key) -> tuple:
    """``key`` as a tuple of Python ints: ValueError if it is empty or a
    component is negative, not integral, or a bool."""
    if not key:
        raise ValueError("stream key must have at least one component")
    ints = _integer_tuple(key, "stream key components")
    if min(ints) < 0:
        raise ValueError("stream key components must be non-negative")
    return ints


def rng_stream(*key: int) -> np.random.Generator:
    """Counter-based stream keyed by a tuple of non-negative ints.

    ``run`` keys its streams (master_seed, repetition, purpose).  Distinct
    keys give statistically independent Philox streams, so repetition r can
    be generated on any worker in any order with identical results.  A
    component that is negative, not integral or a bool raises ValueError.
    """
    seq = np.random.SeedSequence(list(_stream_key(key)))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the multipliers
# of its hashmix and mix steps, the shift of both, and its pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _entropy_words(key) -> list:
    """The uint32 words SeedSequence assembles from a key of non-negative
    ints: each component's words, least significant first, and one word
    for 0."""
    words = []
    for c in key:
        words.append(c & _MASK32)
        while c > _MASK32:
            c >>= 32
            words.append(c & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k < count, chained in Python ints, as a
    uint32 array: a numpy uint32 scalar warns when it overflows."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _seed_sequence_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(2, np.uint64)`` for every row of
    the (n, w) uint32 array ``entropy``, an (n, 2) uint64 array.

    The pool of four words per row is filled and mixed as SeedSequence's
    ``mix_entropy`` does, then read out as ``generate_state`` does.  Each
    hashmix step takes the next constant of one chain, so the steps that
    SeedSequence takes one after another on different pool words are one
    array operation here over a run of the chain.  uint32 arrays wrap
    modulo 2^32, as the C original does.
    """
    n, w = entropy.shape
    # one constant per hashmix step (4 per pool word and per word past the
    # pool), and the one after the last
    chain = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(w, _POOL_SIZE) + 1)
    step = 0

    def hashmix(value, count):
        """The next ``count`` hashmix steps, one per column of the result,
        of the (n, 1) or (n, count) array ``value``."""
        nonlocal step
        value = value ^ chain[step:step + count]
        value *= chain[step + 1:step + count + 1]
        value ^= value >> _XSHIFT
        step += count
        return value

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    # the first words, zero-padded to the pool size
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    pool[:, :w] = entropy[:, :_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    # every pool word into each of the others, in SeedSequence's order
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], _POOL_SIZE - 1))
    # each word past the pool into every pool word
    for src in range(_POOL_SIZE, w):
        pool = mix(pool, hashmix(entropy[:, src:src + 1], _POOL_SIZE))
    # generate_state: one step of the second chain per pool word
    readout = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)
    state = pool ^ readout[:-1]
    state *= readout[1:]
    state ^= state >> _XSHIFT
    # two uint64 words from four uint32 ones, the first of each pair low
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


def _philox_keys(keys) -> np.ndarray:
    """The Philox key of ``rng_stream(*key)`` for every key of ``keys``,
    tuples of non-negative ints, as an (n, 2) uint64 array: the keys are
    hashed together, once per word count."""
    words = [_entropy_words(key) for key in keys]
    rows_by_count = {}
    for i, row in enumerate(words):
        rows_by_count.setdefault(len(row), []).append(i)
    out = np.empty((len(words), 2), dtype=np.uint64)
    for count, rows in rows_by_count.items():
        flat = itertools.chain.from_iterable(words[i] for i in rows)
        entropy = np.fromiter(flat, dtype=np.uint32, count=len(rows) * count)
        out[rows] = _seed_sequence_state(entropy.reshape(len(rows), count))
    return out


def _draw_lattices(config: LatticeConfig, keys, genvec_purpose: int, shift_purpose: int):
    """The generating vectors Z, (n, d) int64 with components uniform in
    {1, ..., N-1}, and the shifts D, (n, d) float64 uniform in [0, 1), of
    the lattices keyed ``keys``: row r of Z is
    ``rng_stream(*keys[r], genvec_purpose).integers(1, N, size=d)`` and row
    r of D is ``rng_stream(*keys[r], shift_purpose).random(d)``, bit for bit.

    The keys are checked as ``rng_stream`` checks them, with its messages,
    and hashed together (``_philox_keys``).  One Philox generator then draws
    every stream: before each draw it gets the stream's key with counter 0
    and an empty buffer, the state a new Philox seeded by the key starts in.

    numpy's ``Generator.integers`` uses Lemire-style rejection, so each
    component of z is exactly uniform (N = 2 leaves only z_j = 1); a shift
    component has 53-bit resolution.
    """
    N, d = config.N, config.dim
    # a bad component is named with the generating-vector purpose, as in
    # the first stream of its key that rng_stream would build
    keys = [_stream_key((*key, genvec_purpose))[:-1] for key in keys]
    purposes = _stream_key((genvec_purpose, shift_purpose))
    philox_keys = iter(_philox_keys([(*key, p) for key in keys for p in purposes]).tolist())
    bits = np.random.Philox(key=0)
    generator = np.random.Generator(bits)
    state = bits.state  # counter 0, empty buffer
    Z = np.empty((len(keys), d), dtype=np.int64)
    D = np.empty((len(keys), d))
    for z, delta in zip(Z, D):
        state["state"]["key"] = next(philox_keys)
        bits.state = state
        # d scalar draws give the values of integers(1, N, size=d) at a
        # quarter of its cost: the sized call takes np.prod(size) each time
        for j in range(d):
            z[j] = generator.integers(1, N)
        state["state"]["key"] = next(philox_keys)
        bits.state = state
        generator.random(out=delta)
    return Z, D


def roots_of_unity(N: int) -> np.ndarray:
    """Table w[k] = exp(-2*pi*i*k/N), k = 0..N-1."""
    N = _integer(N, 1, "N")
    return np.exp(-2j * np.pi * np.arange(N) / N)


class NonFiniteValueError(ValueError):
    """f returned ``count`` non-finite values on lattice ``row`` of a call."""

    def __init__(self, count: int, row: int):
        super().__init__(f"f_eval returned {count} non-finite values on lattice row {row}")
        self.count = count
        self.row = row


def _lattice_nodes(config: LatticeConfig, z: np.ndarray, delta: np.ndarray,
                   k: np.ndarray) -> np.ndarray:
    """The N shifted nodes {k*z/N + Delta} of the lattice with generating
    vector ``z`` and shift ``delta`` (rows of Z and D), with ``k`` the int64
    ``np.arange(N)`` of the call, as the (N, d) transpose of a new
    coordinate-major (d, N) array, so every column is contiguous."""
    # one coordinate at a time, in place: this runs while a whole FFT block
    # is held, so it keeps at most two length-N temporaries alive at once
    N = config.N
    nodes = np.empty((len(z), N))
    for row, zj, dj in zip(nodes, z, delta):
        # k*zj mod N as idx - (idx // N)*N: numpy divides int64 by a scalar
        # through libdivide in floor_divide but not in remainder (0.03 against
        # 0.14 ms at N=39409).  Both are exact in int64, so the integers equal
        # those of %, and the float steps (convert, / N, + Delta_j, minus the
        # floor) act elementwise: every node is bitwise equal to the
        # point-major outer-product formula that the tests keep as reference
        idx = k * zj
        quot = idx // N
        quot *= N
        idx -= quot
        row[:] = idx
        del idx, quot
        row /= N
        row += dj
        row -= np.floor(row)
    return nodes.T


def _node_values(f_eval, config: LatticeConfig, z, delta, k, row: int) -> tuple:
    """f on the N shifted nodes of the lattice (z, delta), which is row
    ``row`` of the call, and their sum: exactly N finite values, or
    ValueError.

    A sum of values that holds an infinity or a NaN is not finite, so the
    values are counted only when the sum is not: finite values whose sum
    overflows pass.  The sum is taken without numpy's overflow and
    invalid-value warnings, so +inf beside -inf raises only
    NonFiniteValueError.
    """
    N = config.N
    vals = np.asarray(f_eval(_lattice_nodes(config, z, delta, k)))
    if vals.shape != (N,):
        raise ValueError(f"f_eval returned shape {vals.shape}, expected ({N},)")
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(vals)
    if not np.isfinite(total):
        bad = N - np.count_nonzero(np.isfinite(vals))
        if bad:
            raise NonFiniteValueError(bad, row)
    return vals, total


def _residues(H_mod: np.ndarray, Z: np.ndarray, N: int) -> np.ndarray:
    """M[i, t] = h_t.z_i mod N for the targets H_mod = H % N and the
    generating vectors, the rows of Z, reduced after every coordinate, so
    each term (h_j mod N) * z_j and each partial sum stays below
    N^2 <= 2^62."""
    M = np.zeros((len(Z), len(H_mod)), dtype=np.int64)
    for hj, zj in zip(H_mod.T, Z.T):
        M += np.multiply.outer(zj, hj)
        M %= N
    return M


def _shifted(Y: np.ndarray, H_float: np.ndarray, D: np.ndarray, N: int) -> np.ndarray:
    """The estimates exp(-2*pi*i*h.Delta) * Y / N from the DFT values Y at
    the residues of the lattices with shifts D, a row of Y per row of D.
    h.Delta is taken per lattice, not for all lattices in one product, so a
    row's rounding does not depend on the rest of the call."""
    theta = np.empty(Y.shape)
    for row, delta in zip(theta, D):
        row[:] = H_float @ delta
    phase = np.exp(-2j * np.pi * theta)
    return phase * (Y / N)


def estimate_coefficients(
    f_eval: Callable[[np.ndarray], np.ndarray],
    config: LatticeConfig,
    Z,
    D,
    targets,
) -> np.ndarray:
    """Estimate the Fourier coefficients of f at every target on every lattice.

    f is evaluated exactly once per lattice, on the full batch of its N
    shifted nodes.  Each target h needs one value Y[m] of the length-N DFT
    of the node values, at its residue m = h.z mod N, computed exactly in
    int64; its estimate is exp(-2*pi*i*h.Delta) * Y[m] / N.  The number of
    targets chooses how the Y[m] are found:

    - Fewer than log2(N) targets: by chirp sums with no transform
      (``_chirp_sums``), one length-N sum per target.  When a lattice's
      values are real, a pair {h, -h} of targets takes one sum, the
      estimate at -h being exactly the conjugate of the one at h, and
      h = 0 takes the mean of the values.  The cost is O(|targets|*N) per
      lattice.
    - Otherwise: by batched FFTs (``_batched_ffts``).  The cost is
      O(N log N + |targets|*d) per lattice, and half the transforms for
      real f.

    Either way a row depends only on its own lattice (on its pair
    (2k, 2k+1) when the transforms pack two real lattices into one row),
    never on the rest of the call.  Per lattice only the nodes, f, the sum
    of the values and the sums or the transform input are computed; the
    residues, gathers and shift phases run per block or per call, over all
    its lattices at once, elementwise, so a row's values do not depend on
    how many lattices share the block or the call.

    Parameters
    ----------
    f_eval : callable
        Maps an (N, d) array of points in [0,1)^d to N finite (real or
        complex) values.  The array is coordinate-major (Fortran order,
        each column ``x[:, j]`` contiguous), so f must not assume C order;
        it is new on every call, so f may keep or modify it.  A non-finite
        value raises ``NonFiniteValueError``, a ``ValueError`` carrying the
        count and the lattice's row.
    config : LatticeConfig
        N must not exceed 2^31, which keeps every integer product inside
        int64.
    Z : (n, d) integer array
        Nonempty: row i is the generating vector of lattice i, with
        components in {1, ..., N-1}.  Integral floats are accepted.
    D : (n, d) float array
        Row i is the shift of lattice i, with finite components in [0, 1).
    targets : (m, d) integer array or sequence of m frequencies
        Nonempty: one frequency per row, such as ``HyperbolicCross.H``,
        every component inside int64.  Integral floats are accepted.

    Returns
    -------
    ndarray
        complex128 of shape (n, m); entry [i, j] is the estimate at
        ``targets[j]`` from lattice i.
    """
    N, d = config.N, config.dim
    Z, D = np.asarray(Z), np.asarray(D, dtype=float)
    if not Z.size:
        raise ValueError("lattices must be nonempty")
    H = _frequency_rows(targets, d, "target")
    if not len(H):
        raise ValueError("targets must be nonempty")
    if N > _MAX_N:
        raise ValueError(f"N = {N} exceeds the supported lattice size 2^31")
    if Z.ndim != 2 or Z.shape[1] != d or D.shape != Z.shape:
        raise ValueError("z and delta must match the lattice dimension")
    if Z.dtype.kind not in "iu" and not (Z.dtype.kind == "f" and np.array_equal(Z, np.trunc(Z))):
        raise ValueError("generating vector components must be integers")
    if Z.min() < 1 or Z.max() > N - 1:
        raise ValueError("generating vector components must lie in {1,...,N-1}")
    # a NaN fails both comparisons, an infinity one of them
    if not np.all((D >= 0.0) & (D < 1.0)):
        raise ValueError("shift components must lie in [0, 1)")
    Z, D = np.ascontiguousarray(Z, dtype=np.int64), np.ascontiguousarray(D)
    out = np.empty((len(Z), len(H)), dtype=np.complex128)
    # log2(N) sits below the measured break-even (about 17 targets at
    # N=10903, 36 at N=39409 on a 2-core machine), so the chirp sums are
    # only taken where they clearly win; retune it only from new measurements
    estimate = _chirp_sums if len(H) < math.log2(N) else _batched_ffts
    estimate(f_eval, config, Z, D, H, out)
    return out


def _chirp(N: int, window: np.ndarray) -> np.ndarray:
    """The chirp w_k = exp(-i*pi*k^2/N), k = 0..N-1; writes the window
    conj(w_j), j = -(N-1)..N-1, into ``window[:2N-1]``, entry j + N - 1.

    k^2 < 2^62 is reduced exactly in int64; w_k has period 2N in k, and
    w_{-j} = w_j.
    """
    k = np.arange(N, dtype=np.int64)
    w = np.exp(-1j * np.pi * ((k * k) % (2 * N) / N))
    np.conjugate(w[:0:-1], out=window[:N - 1])
    np.conjugate(w, out=window[N - 1:2 * N - 1])
    return w


def _negatives(H: np.ndarray) -> tuple:
    """Per row h of the int64 array H, the first row equal to h and the
    first equal to -h, -1 for none, by one sort of H and -H.  Pairs are
    exact negations, not residues mod N (h and -h + N*e_1 are none), and a
    row holding -2^63, whose negation wraps in int64, has no partner."""
    n = len(H)
    _, first, inverse = np.unique(
        np.concatenate([H, -H]), axis=0, return_index=True, return_inverse=True)
    row = first[inverse.reshape(-1)]
    negatable = ~np.any(H == np.iinfo(np.int64).min, axis=1)
    return row[:n], np.where((row[n:] < n) & negatable, row[n:], -1)


@functools.lru_cache(maxsize=1)
def _chirp_window(N: int) -> tuple:
    """The chirp w and the window of ``_chirp`` at N, for the chirp sums:
    built once per N and kept for the last N only, read-only, so every
    call and thread may share them."""
    window = np.empty(2 * N - 1, dtype=np.complex128)
    w = _chirp(N, window)
    for table in (w, window):
        table.flags.writeable = False
    return w, window


def _chirp_sums(f_eval, config, Z, D, H, out) -> None:
    """Fill ``out`` from direct length-N sums, one per lattice and target,
    or one per lattice and pair {h, -h} of targets when f is real.

    With the chirp w_k = exp(-i*pi*k^2/N), km = (k^2 + m^2 - (k-m)^2)/2
    gives Bluestein's identity

        Y[m] = w_m * sum_k (f(x_k)*w_k) * conj(w_{k-m}),

    and k - m runs over a contiguous slice of the window (``_chirp``).
    The sums go through ``np.einsum``, not BLAS, so an estimate does not
    depend on the BLAS thread count.

    When a lattice's values are real, Y[-m] = conj(Y[m]) and the shift
    phase of -h is the conjugate of that of h, so the estimate at -h is
    exactly ``np.conj`` of the one at h: each pair {h, -h} among the
    targets takes one sum, at the pair's first row, and h = 0, whose
    estimate is the mean of the values, takes their sum and no chirp sum.
    Duplicate targets read the same sum.  A lattice with complex values
    takes one sum per target.

    Per lattice only the values and their sums are computed; the residues
    come from one (lattices x targets) matrix, and the factors w_m, the
    shift phases, the pairing and the means are applied once per call.
    """
    N = config.N
    H_mod, H_float = H % N, H.astype(float)
    w, window = _chirp_window(N)
    k = np.arange(N, dtype=np.int64)
    xw = np.empty(N, dtype=np.complex128)
    # each nonzero row reads the sum of its pair's first row (own[reads]),
    # conjugated where it is -h of that row
    first, negative = _negatives(H)
    source = np.where((negative >= 0) & (negative < first), negative, first)
    conj, nonzero = source != first, H.any(axis=1)
    own = np.flatnonzero((source == np.arange(len(H))) & nonzero)
    paired, zeros = np.flatnonzero(nonzero), np.flatnonzero(~nonzero)
    reads = np.searchsorted(own, source[paired])
    # the window slice of every lattice and target: k - m from -m on
    M = _residues(H_mod, Z, N)
    starts = (N - 1 - M).tolist()
    # a real lattice fills the columns ``own`` of its row, a complex one all
    sums = np.empty(M.shape, dtype=np.complex128)
    real, totals = np.empty(len(Z), dtype=bool), []
    own_columns, all_columns = own.tolist(), range(len(H))
    for i, (z, delta) in enumerate(zip(Z, D)):
        vals, total = _node_values(f_eval, config, z, delta, k, i)
        real[i] = is_real = not np.iscomplexobj(vals)
        if is_real:
            totals.append(total)
        columns = own_columns if is_real else all_columns
        if columns:
            np.multiply(vals, w, out=xw)
        row, row_starts = sums[i], starts[i]
        for j in columns:
            start = row_starts[j]
            row[j] = np.einsum("i,i->", xw, window[start:start + N])
        del vals

    lone = np.flatnonzero(~real)
    if len(lone):
        out[lone] = _shifted(w[M[lone]] * sums[lone], H_float, D[lone], N)
    if not totals:
        return
    rows = np.flatnonzero(real)
    estimates = np.empty((len(rows), len(H)), dtype=np.complex128)
    if len(own):
        cells = np.ix_(rows, own)
        firsts = _shifted(w[M[cells]] * sums[cells], H_float[own], D[rows], N)
        estimates[:, paired] = firsts[:, reads]
        np.conjugate(estimates, out=estimates, where=conj)
    if len(zeros):
        estimates[:, zeros] = (np.array(totals) / N)[:, np.newaxis]
    out[rows] = estimates


def _smooth_at_least(n: int) -> int:
    """The smallest 7-smooth integer >= n (n >= 1)."""
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _FFTBlock:
    """Rows of node values transformed by one batched length-N numpy FFT."""

    def __init__(self, N: int, rows: int):
        self.rows = np.empty((rows, N), dtype=np.complex128)

    def transform(self, count: int) -> None:
        spectra = self.rows[:count]
        np.fft.fft(spectra, axis=-1, out=spectra)  # out= needs numpy >= 2.0

    def spectrum(self, rows: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Y[r, M[i, t]] of the transformed rows r = ``rows[i]``."""
        return self.rows[rows[:, np.newaxis], M]


class _ChirpPlan(NamedTuple):
    """The tables of ``_ChirpBlock`` at one N, all read-only: the chirp w,
    the (P, Q) twiddles and conj(filter spectrum)/L."""

    w: np.ndarray
    twiddles: np.ndarray
    filter: np.ndarray


def _four_step(x: np.ndarray, twiddles: np.ndarray) -> None:
    """The length-L FFT of every (P, Q) row of ``x``, in place, with its
    output in the (k1, k2) layout of ``_ChirpBlock``."""
    np.fft.fft(x, axis=1, out=x)
    x *= twiddles
    np.fft.fft(x, axis=2, out=x)


@functools.lru_cache(maxsize=1)
def _chirp_plan(N: int) -> _ChirpPlan:
    """The chirp-convolution tables for N > 2^15, built once per N and kept
    for the last N only (3.2 MB at N=39409, about 42 MB at 527741).

    Nothing writes to them after this builder returns, so every call and
    every thread of ``run`` may share them; two threads that miss the
    cache together build equal tables.
    """
    n = 2 * N - 1
    P = _smooth_at_least(math.isqrt(n - 1) + 1)
    Q = _smooth_at_least(-(-n // P))
    L = P * Q
    # exp(-2*pi*i*k1*j2/L): k1*j2 < L is exact in float64
    twiddles = np.zeros((P, Q), dtype=np.complex128)
    angle = twiddles.imag
    np.multiply.outer(np.arange(P, dtype=float), np.arange(Q, dtype=float), out=angle)
    angle *= -2.0 * math.pi / L
    np.exp(twiddles, out=twiddles)
    # the window zero-padded to L, transformed as a (1, P, Q) row like the
    # node values, then conj(filter spectrum)/L for the conjugated inverse
    spectrum = np.empty((P, Q), dtype=np.complex128)
    flat = spectrum.reshape(L)
    w = _chirp(N, flat)
    flat[n:] = 0.0
    _four_step(spectrum[np.newaxis], twiddles)
    np.conjugate(spectrum, out=spectrum)
    spectrum /= L
    for table in (w, twiddles, spectrum):
        table.flags.writeable = False
    return _ChirpPlan(w, twiddles, spectrum)


class _ChirpBlock:
    """One row of node values whose length-N DFT is Bluestein's chirp
    convolution, done over short batched FFTs.

    With the chirp w and the window g_j = conj(w_j), j = -(N-1)..N-1, of
    ``_chirp``, Y[m] = w_m * sum_k (x_k*w_k) * g_{m-k} (Bluestein, IEEE
    Trans. Audio Electroacoust. 18, 1970).  That sum is entry m + N - 1 of
    the linear convolution of x*w with the window, so it is also entry
    m + N - 1 of their cyclic convolution of any length L >= 2N - 1: the
    window zero-padded to L is the filter.

    L = P*Q is 7-smooth with P, Q near sqrt(2N), and every length-L
    transform is a four-step FFT (Bailey, J. Supercomputing 4, 1990) on the
    row laid out as a (P, Q) array: FFTs along P, a product with the
    twiddles exp(-2*pi*i*k1*j2/L), FFTs along Q.  Input entry Q*p + q comes
    out as frequency k1 + P*k2 at [k1, k2]; the inverse transform takes its
    input in that layout and returns natural order.  It is
    ifft(y) = conj(fft(conj(y)))/L, so one twiddle table serves both
    directions.  numpy only ever plans the short lengths P and Q.

    The chirp, the twiddles and the filter depend on N alone, so they come
    from one read-only plan per N (``_chirp_plan``), shared by every call
    and every thread.  Only the (1, P, Q) work buffer is allocated per call
    and freed after it: held across calls instead, it kept glibc's mmap
    threshold low (the threshold rises only when a large block is freed),
    so the 630 KB node arrays of N=39409 were mapped and faulted in afresh
    for every lattice, 6,901 minor faults per 25-lattice ``run`` against 592.
    """

    def __init__(self, N: int):
        self.N = N
        self.w, self.twiddles, self.filter = _chirp_plan(N)
        self.buffer = np.empty((1, *self.twiddles.shape), dtype=np.complex128)
        self.rows = self.buffer.reshape(1, -1)[:, :N]

    def transform(self, count: int) -> None:
        """Leave conj of the cyclic convolution of rows*w with the window
        in the buffer."""
        N = self.N
        x = self.buffer[:count]
        flat = x.reshape(count, -1)
        flat[:, :N] *= self.w
        flat[:, N:] = 0.0
        _four_step(x, self.twiddles)
        # conj(X*H)/L, then the four steps with the axes swapped
        np.conjugate(x, out=x)
        x *= self.filter
        np.fft.fft(x, axis=2, out=x)
        x *= self.twiddles
        np.fft.fft(x, axis=1, out=x)

    def spectrum(self, rows: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Y[r, M[i, t]] = w[M[i, t]] * (convolution at M[i, t] + N - 1) of
        the transformed rows r = ``rows[i]``."""
        flat = self.buffer.reshape(len(self.buffer), -1)
        conv = flat[rows[:, np.newaxis], M + (self.N - 1)]
        return self.w[M] * np.conjugate(conv, out=conv)


def _batched_ffts(f_eval, config, Z, D, H, out) -> None:
    """Fill ``out`` from batched length-N DFTs of the node values.

    Node values fill the rows of a block of 2^20 // (16*N) rows, 1 MiB of
    complex128, which is transformed by one batched numpy FFT
    (``_FFTBlock``).  When 1 MiB holds less than two rows (N > 2^15), a
    block is one row, transformed as a chirp convolution over short
    batched FFTs (``_ChirpBlock``): a one-row numpy transform of prime
    length would plan Bluestein's algorithm and fault in its work arrays
    anew on every call, while for shorter lattices the batched numpy FFT
    is faster.  The
    lattices are paired (2k, 2k+1) by their position in the call.  When f
    returns real values on both lattices of a pair, they share one row, the
    first as its real part u and the second as its imaginary part v; every
    other lattice (one whose values are complex, the partner of such a
    lattice, and the last one of an odd count) takes a row alone.

    A lone row Y is read at m; a shared row is read at m and -m mod N and
    unpacked as U[m] = (Y[m] + conj(Y[-m]))/2 for the first lattice and
    V[m] = (Y[m] - conj(Y[-m]))/(2i) for the second.  Every row of a batched
    transform equals the one-row transform bit for bit, so a lattice's
    estimates depend only on its own pair, never on the block.  The
    residues, the reads, the unpacking and the shift phases are done once
    per block, on (lattices x targets) arrays, so memory stays bounded by
    the block, not the call.
    """
    N = config.N
    H_mod, H_float = H % N, H.astype(float)
    k = np.arange(N, dtype=np.int64)
    per_block = _BLOCK_BYTES // (16 * N)
    transforms = (
        _FFTBlock(N, min(len(Z), per_block)) if per_block >= 2 else _ChirpBlock(N)
    )
    block = transforms.rows
    # the block row of each lattice of the block, in call order from
    # lattice ``start``: the two lattices of a shared row are adjacent
    start, rows = 0, []
    # whether the last row holds only the real first lattice of a pair, so
    # that the next lattice may take its imaginary half
    waiting = False

    def transform_and_gather():
        transforms.transform(rows[-1] + 1)
        at = np.array(rows)
        stop = start + len(at)
        M = _residues(H_mod, Z[start:stop], N)
        Y = transforms.spectrum(at, M)
        # the second lattice of each shared row; the first is the one before
        second = np.flatnonzero(at[1:] == at[:-1]) + 1
        if len(second):
            # Y = U + i*V for the spectra U, V of the two real sequences;
            # U[m] = (Y[m] + conj(Y[-m]))/2 and V[m] = (Y[m] - conj(Y[-m]))/(2i)
            pair = np.concatenate([second - 1, second])
            mirror = np.conj(transforms.spectrum(at[pair], (N - M[pair]) % N))
            firsts, seconds = np.split(mirror, 2)
            Y[second - 1] = (Y[second - 1] + firsts) * 0.5
            Y[second] = (Y[second] - seconds) * -0.5j
        out[start:stop] = _shifted(Y, H_float, D[start:stop], N)

    for i, (z, delta) in enumerate(zip(Z, D)):
        vals, _ = _node_values(f_eval, config, z, delta, k, i)
        real = not np.iscomplexobj(vals)
        if real and waiting:
            # the second real lattice of a pair: the imaginary half of the
            # row its partner opened
            block[rows[-1]].imag = vals
            rows.append(rows[-1])
        else:
            filled = rows[-1] + 1 if rows else 0
            if filled == len(block):
                transform_and_gather()
                start, rows, filled = i, [], 0
            row = block[filled]
            if real:
                row.real = vals
                row.imag = 0.0
            else:
                row[:] = vals
            rows.append(filled)
        waiting = real and i % 2 == 0
        del vals
    transform_and_gather()


def dual_membership(ell, config: LatticeConfig, z) -> bool:
    """Whether z.ell = 0 (mod N), i.e. ell lies in the dual of the lattice
    with generating vector ``z``, a sequence or a row of Z.

    Uses Python integers throughout, so arbitrarily large components are
    handled exactly.
    """
    comps = _integer_tuple(ell, "frequencies")
    z = _integer_tuple(z, "generating vector components")
    if len(comps) != config.dim or len(z) != config.dim:
        raise ValueError("ell and z must match the lattice dimension")
    return sum(lj * zj for lj, zj in zip(comps, z)) % config.N == 0
