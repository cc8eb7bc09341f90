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
lattice instead of O(N*|A|) for the direct sums.  All randomness flows
through counter-based Philox streams keyed by (master_seed, repetition,
purpose) so repetitions are independent of execution order and
bit-reproducible under any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence

import numpy as np

from .korobov import FrequencyIndex
from .params import is_prime

__all__ = [
    "LatticeConfig",
    "GeneratingVector",
    "RandomShift",
    "PURPOSE_GENVEC",
    "PURPOSE_SHIFT",
    "rng_stream",
    "draw_generating_vector",
    "draw_shift",
    "roots_of_unity",
    "estimate_coefficients",
    "dual_membership",
]

# purpose tags separating the random streams of one repetition
PURPOSE_GENVEC = 0
PURPOSE_SHIFT = 1

# largest supported lattice size: below it the node products k*z_j and the
# residue terms (h_j mod N)*z_j are at most (N-1)^2 < 2^62, inside int64
_MAX_N = 2**31


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size N (prime, verified) and dimension."""

    N: int
    dim: int

    def __post_init__(self):
        if not is_prime(self.N):
            raise ValueError(f"N = {self.N} is not prime")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class GeneratingVector:
    """Integer generating vector z with components in {1, ..., N-1}."""

    z: tuple

    def __init__(self, z: Sequence[int]):
        z = tuple(int(c) for c in z)
        if any(c < 1 for c in z):
            raise ValueError("generating vector components must be >= 1")
        object.__setattr__(self, "z", z)

    def __len__(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class RandomShift:
    """Real shift vector Delta with components in [0, 1)."""

    delta: tuple

    def __init__(self, delta: Sequence[float]):
        delta = tuple(float(c) for c in delta)
        if any(not (0.0 <= c < 1.0) for c in delta):
            raise ValueError("shift components must lie in [0, 1)")
        object.__setattr__(self, "delta", delta)

    def __len__(self) -> int:
        return len(self.delta)


def rng_stream(master_seed: int, repetition: int, purpose: int) -> np.random.Generator:
    """Counter-based stream keyed by (master_seed, repetition, purpose).

    Distinct key triples give statistically independent Philox streams, so
    repetition r can be generated on any worker in any order with identical
    results.
    """
    if master_seed < 0 or repetition < 0 or purpose < 0:
        raise ValueError("stream key components must be non-negative")
    seq = np.random.SeedSequence([int(master_seed), int(repetition), int(purpose)])
    return np.random.Generator(np.random.Philox(seq))


def draw_generating_vector(config: LatticeConfig, rng: np.random.Generator) -> GeneratingVector:
    """Uniform z in {1,...,N-1}^d without modulo bias.

    numpy's ``Generator.integers`` uses Lemire-style rejection, so each
    component is exactly uniform; N = 2 always yields the all-ones vector.
    """
    comps = rng.integers(1, config.N, size=config.dim)
    return GeneratingVector(comps.tolist())


def draw_shift(config: LatticeConfig, rng: np.random.Generator) -> RandomShift:
    """Uniform shift in [0,1)^d with 53-bit resolution per component."""
    return RandomShift(rng.random(config.dim).tolist())


def roots_of_unity(N: int) -> np.ndarray:
    """Table w[k] = exp(-2*pi*i*k/N), k = 0..N-1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.exp(-2j * np.pi * np.arange(N) / N)


def _lattice_nodes(config: LatticeConfig, z: GeneratingVector, delta: RandomShift) -> np.ndarray:
    k = np.arange(config.N, dtype=np.int64)
    zz = np.asarray(z.z, dtype=np.int64)
    frac = (k[:, None] * zz[None, :]) % config.N
    nodes = frac.astype(float) / config.N + np.asarray(delta.delta, dtype=float)[None, :]
    nodes -= np.floor(nodes)
    return nodes


def estimate_coefficients(
    f_eval: Callable[[np.ndarray], np.ndarray],
    config: LatticeConfig,
    z: GeneratingVector,
    delta: RandomShift,
    targets: Iterable[FrequencyIndex],
) -> Dict[FrequencyIndex, complex]:
    """Estimate the Fourier coefficients of f at every target frequency.

    f is evaluated exactly once on the full batch of N shifted lattice nodes
    and transformed by one length-N FFT; each target h then costs its
    residue m = h.z mod N, computed exactly in int64, a gather of the FFT
    entry m and a multiplication by the shift phase exp(-2*pi*i*h.Delta).
    The cost is O(N log N + |targets|*d) for any number of targets.

    Parameters
    ----------
    f_eval : callable
        Maps an (N, d) array of points in [0,1)^d to N (real or complex)
        values.
    config : LatticeConfig
        N must not exceed 2^31, which keeps every integer product inside
        int64.
    targets : iterable of FrequencyIndex
        Nonempty collection of frequencies.

    Returns
    -------
    dict
        FrequencyIndex -> complex estimate.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("targets must be nonempty")
    N, d = config.N, config.dim
    if N > _MAX_N:
        raise ValueError(f"N = {N} exceeds the supported lattice size 2^31")
    if len(z) != d or len(delta) != d:
        raise ValueError("z and delta must match the lattice dimension")
    if any(not (1 <= c <= N - 1) for c in z.z):
        raise ValueError("generating vector components must lie in {1,...,N-1}")
    H = np.array([tuple(h) for h in targets], dtype=np.int64)
    if H.shape != (len(targets), d):
        raise ValueError("targets must match the lattice dimension")

    nodes = _lattice_nodes(config, z, delta)
    vals = np.asarray(f_eval(nodes))
    if vals.shape != (N,):
        raise ValueError(f"f_eval returned shape {vals.shape}, expected ({N},)")
    spectrum = np.fft.fft(vals.astype(np.complex128, copy=False)) / N

    # m = h.z mod N; each term (h_j mod N) * z_j is below N^2 <= 2^62
    H_mod = H % N
    m = np.zeros(len(targets), dtype=np.int64)
    for j, zj in enumerate(z.z):
        m = (m + H_mod[:, j] * zj) % N
    phase = np.exp(-2j * np.pi * (H.astype(float) @ np.asarray(delta.delta, dtype=float)))
    return dict(zip(targets, (phase * spectrum[m]).tolist()))


def dual_membership(ell, config: LatticeConfig, z: GeneratingVector) -> bool:
    """Whether z.ell = 0 (mod N), i.e. ell lies in the dual of the lattice.

    Uses Python integers throughout, so arbitrarily large components are
    handled exactly.
    """
    comps = ell.components if isinstance(ell, FrequencyIndex) else tuple(int(c) for c in ell)
    if len(comps) != config.dim:
        raise ValueError("ell must match the lattice dimension")
    return sum(int(lj) * int(zj) for lj, zj in zip(comps, z.z)) % config.N == 0
