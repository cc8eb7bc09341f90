"""
Tests for the package's public surface: the exports are a fixed list, every
exported name resolves, once, and every library name the benchmark's tracer
wraps exists, so a renamed function fails here instead of leaving a traced
benchmark run without spans.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import medlattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("medlattice",) + tuple(
    f"medlattice.{m}"
    for m in ("korobov", "index_set", "lattice", "params", "median_approx", "experiment")
)


# the package's exports: a name joins or leaves them only with an edit here
PACKAGE_ALL = [
    "AlgorithmParams",
    "BudgetSpec",
    "ExperimentConfig",
    "ExperimentRecord",
    "FrequencyIndex",
    "HyperbolicCross",
    "LatticeConfig",
    "MedianApproximation",
    "PolynomialDecayWeights",
    "ProductWeights",
    "SelectedParams",
    "SmoothnessParams",
    "SpectralOracle",
    "bound_basic",
    "bound_min_q",
    "bound_refined",
    "check_conditions",
    "compute_Nstar",
    "compute_PN",
    "corollary2_constant",
    "corollary_cap",
    "cosine_pair_oracle",
    "dual_membership",
    "enumerate_hyperbolic_cross",
    "epsilon_bound",
    "estimate_coefficients",
    "evaluate",
    "exact_squared_error",
    "figure3_table",
    "fit_rate",
    "is_prime",
    "korobov_norm_sq_truncated",
    "load_approximation",
    "r_weight",
    "riemann_zeta",
    "rng_stream",
    "run",
    "run_experiment",
    "save_approximation",
    "select_params",
    "tau_roots",
    "test_function_f1",
    "test_function_f2",
    "theorem1_bound",
    "tractability_diagnostics",
    "verify_concentration",
    "verify_median_amplification",
]


def test_package_exports_are_pinned():
    assert len(PACKAGE_ALL) == 47
    assert medlattice.__all__ == PACKAGE_ALL


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_traced_names_resolve():
    """Every (module, attribute) the tracer patches, and every test-function
    factory it wraps, is an attribute of that medlattice submodule."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, attr) for mod, attr, _name, _info in tracing._PATCHES]
    targets += [(mod, attr) for mod in ("korobov", "experiment") for attr in tracing._FACTORIES]
    assert len(targets) > len(tracing._FACTORIES)
    missing = [
        (mod, attr) for mod, attr in targets
        if not hasattr(getattr(medlattice, mod, None), attr)
    ]
    assert missing == []
