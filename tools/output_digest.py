"""Print one SHA-256 per named output of medlattice and check each against
``output_digest.expected`` beside this script, to show that a change leaves
the library's outputs bitwise unchanged.

    python3 tools/output_digest.py

imports medlattice from the ``src`` directory beside this script, so a copy
of the script in another checkout digests that checkout.  It exits 1, after
naming on stderr each output whose digest differs from the expected file's
or is missing from either side, and 0 when all match.  A change that alters
an output on purpose replaces the file with the new lines.  The outputs are:

- ``cli.*``: the CLI's CSV for f1 and f2 at d=2 on the default budget grid,
  f2 at d=1, and the ``--fig 3`` table;
- ``run.*``: ``run``'s frequencies and coefficients on f1, d=2,
  M_max=2^20 (N=39409, R=25) at three master seeds, with 1 and 2 workers;
- ``evaluate.*``: ``evaluate`` on those approximations and on an f2,
  d=2, 2^18 one, at 4096 fixed points and at 16 of them one at a time.
  A 4096-point batch spans several chunks, which ``evaluate`` splits over
  the usable CPUs, so CI runs this script both as it is and under
  ``taskset -c 0``, on one CPU, against the same expected digests;
- ``save.*`` and ``indices.*``: the bytes that ``save_approximation``
  writes for the f2, d=2, 2^18 approximation and that ``write_indices_csv``
  writes for its index set;
- ``harness.*``: the reports of both verification harnesses on f2, d=1,
  M_max=2^18;
- ``estimate.*``: ``estimate_coefficients`` on what the keys above never
  reach: f complex on every lattice, f complex on some lattices and real
  on the others over an odd count, d=3, and targets that repeat and hold
  h = 0, each by chirp sums (fewer than log2 N targets) and by batched
  FFTs (N <= 2^15), and a mixed odd call at N > 2^15, whose one-lattice
  blocks are chirp convolutions.

The expected digests were recorded with numpy 2.4 on x86-64; ``evaluate.*``
goes through BLAS matrix products, whose rounding another BLAS may change.
It takes a few seconds.
"""

import contextlib
import hashlib
import io
import math
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from medlattice import experiment, index_set, korobov, lattice, median_approx, params  # noqa: E402

SEEDS = (1, 7919, 2**62 + 3)
EXPECTED = pathlib.Path(__file__).resolve().with_name("output_digest.expected")

# name -> digest, in the order printed
DIGESTS = {}


def digest(name: str, data: bytes) -> None:
    DIGESTS[name] = hashlib.sha256(data).hexdigest()
    print(f"{DIGESTS[name]}  {name}")


def cli_csv(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = experiment.main(argv)
    if status != 0:
        raise SystemExit(f"medlattice {' '.join(argv)} exited with {status}")
    return out.getvalue().encode()


def problem_of(function: str, dim: int, alpha: float, M_max: int, seed: int):
    """The oracle, problem, weights and AlgorithmParams the CLI would use."""
    problem = korobov.SmoothnessParams(alpha=alpha, dim=dim)
    weights = korobov.ProductWeights([1.0] * dim)
    f = getattr(korobov, "test_function_" + function)(dim)
    sel = params.select_params(params.BudgetSpec(M_max, 0.01), problem, weights)
    ap = median_approx.AlgorithmParams.from_problem(
        N=sel.N_max, R=sel.R, tau=sel.tau_star, master_seed=seed,
        problem=problem, weights=weights)
    return f, problem, weights, ap


def written_bytes(write, obj) -> bytes:
    """The bytes ``write(obj, path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out.csv"
        write(obj, path)
        return path.read_bytes()


def approximation_bytes(approx) -> bytes:
    return approx.index_set.H.tobytes() + approx.coefficients.vector.tobytes()


def estimator_calls():
    """(name, f, config, Z, D, targets) of every ``estimate.*`` call."""
    rng = np.random.Generator(np.random.Philox(20261020))

    def real(pts):
        return np.cos(2 * np.pi * pts.sum(axis=1) + 0.3) + pts[:, 0] * (1 - pts[:, -1])

    def complex_(pts):
        return real(pts) * np.exp(2j * np.pi * pts[:, -1])

    def mixed(pts):
        # node 0 is the lattice's shift: complex where its first component
        # is below 1/2
        return complex_(pts) if pts[0, 0] < 0.5 else real(pts)

    for N, d, count in ((10903, 2, 13), (1009, 3, 9), (32771, 2, 5)):
        config = lattice.LatticeConfig(N, d)
        Z, D = rng.integers(1, N, (count, d)), rng.random((count, d))
        assert 0 < np.count_nonzero(D[:, 0] < 0.5) < count
        h = rng.integers(-4, 5, (3, d))
        # h, -h, h = 0, a residue twin of -h, and repeats
        few = np.array([h[0], -h[0], 0 * h[0], h[1], -h[1], h[0], h[2],
                        [N - h[2, 0], *-h[2, 1:]], -h[0]])[:math.ceil(math.log2(N)) - 1]
        many = np.vstack([few, rng.integers(-2 * N, 2 * N, (2 * len(few), d))])
        assert len(few) < math.log2(N) <= len(many)
        paths = (("fft", many),) if N > 2**15 else (("chirp", few), ("fft", many))
        for path, targets in paths:
            fs = (("mixed-odd", mixed),) if N > 2**15 else (
                ("real", real), ("complex", complex_), ("mixed-odd", mixed))
            for kind, f in fs:
                yield f"estimate.{path}.{kind}.d{d}.N{N}", f, config, Z, D, targets


def main() -> int:
    for name, argv in (
        ("cli.f1.d2", ["--function", "f1", "--dim", "2"]),
        ("cli.f2.d2", ["--function", "f2", "--dim", "2"]),
        ("cli.f2.d1", ["--function", "f2", "--dim", "1"]),
        ("cli.fig3", ["--fig", "3"]),
    ):
        digest(name, cli_csv(argv))

    approximations = {}
    for seed in SEEDS:
        f, problem, weights, ap = problem_of("f1", 2, 1.5, 2**20, seed)
        for workers in (1, 2):
            approx = median_approx.run(f.evaluate, ap, problem, weights, workers=workers)
            digest(f"run.f1.d2.2^20.seed{seed}.workers{workers}", approximation_bytes(approx))
        approximations[f"f1.d2.2^20.seed{seed}"] = approx
    f, problem, weights, ap = problem_of("f2", 2, 2.5, 2**18, SEEDS[0])
    approximations["f2.d2.2^18"] = median_approx.run(f.evaluate, ap, problem, weights)

    points = np.random.Generator(np.random.Philox(20240801)).random((4096, 2))
    for name, approx in approximations.items():
        digest(f"evaluate.{name}.batch", median_approx.evaluate(approx, points).tobytes())
        singles = [median_approx.evaluate(approx, x) for x in points[:16]]
        digest(f"evaluate.{name}.singles", np.array(singles).tobytes())

    saved = approximations["f2.d2.2^18"]
    digest("save.f2.d2.2^18", written_bytes(median_approx.save_approximation, saved))
    digest("indices.f2.d2.2^18", written_bytes(index_set.write_indices_csv, saved.index_set))

    f, problem, weights, ap = problem_of("f2", 1, 2.5, 2**18, SEEDS[0])
    single = median_approx.verify_concentration(f, ap, problem, weights, trials=200)
    median = median_approx.verify_median_amplification(f, ap, problem, weights, trials=6)
    digest("harness.concentration.f2.d1.2^18", repr(single).encode())
    digest("harness.median.f2.d1.2^18", repr(median).encode())

    for name, f, config, Z, D, targets in estimator_calls():
        digest(name, lattice.estimate_coefficients(f, config, Z, D, targets).tobytes())

    lines = EXPECTED.read_text().splitlines()
    expected = {name: value for value, name in (line.split("  ", 1) for line in lines)}
    differing = [name for name in {**DIGESTS, **expected}
                 if DIGESTS.get(name) != expected.get(name)]
    for name in differing:
        print(f"differs from {EXPECTED.name}: {name}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
