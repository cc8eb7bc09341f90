"""
Tests for the package's public surface: the exports are a fixed list, every
exported name resolves, once, and every library name the benchmark's tracer
wraps exists, so a renamed function fails here instead of leaving a traced
benchmark run without spans.  Two source checks keep the integer rule and
the frequency rule in one module.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import medlattice

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SOURCES = Path(__file__).resolve().parents[1] / "src" / "medlattice"
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


# the idioms that decide what counts as an integer
INTEGER_IDIOMS = re.compile(
    r"\bnumbers\.Integral\b|\bimport\b.*\bIntegral\b|\bnp\.integer\b|isinstance\([^)]*\bint\b")


def test_one_integer_rule():
    """Only korobov's ``_integer`` decides whether a scalar is an integer:
    a module that names numbers.Integral, np.integer or isinstance(..., int)
    brings back a second rule, as dim and seed once disagreed on np.int64."""
    assert INTEGER_IDIOMS.search((SOURCES / "korobov.py").read_text())
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SOURCES.glob("*.py")) if path.name != "korobov.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if INTEGER_IDIOMS.search(line)
    ]
    assert found == []


# where src may build a FrequencyIndex: its own class, the cross's member
# objects and the harness reports' probes
FREQUENCY_INDEX_BUILDERS = {
    ("korobov.py", "FrequencyIndex.__neg__"),
    ("index_set.py", "HyperbolicCross.indices"),
    ("index_set.py", "HyperbolicCross.__contains__"),
    ("median_approx.py", "_verify"),
}
# every entry point that takes a caller's frequencies as rows
FREQUENCY_ENTRIES = {
    ("lattice.py", "estimate_coefficients"),
    ("korobov.py", "SpectralOracle.coefficients"),
    ("median_approx.py", "epsilon_bound"),
    ("median_approx.py", "_verify"),
    ("median_approx.py", "load_approximation"),
    ("index_set.py", "read_indices_csv"),
}


def _calls(tree):
    """(qualified name of the enclosing function, called name) of every call
    of a plain name in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                found.append((".".join(scope), child.func.id))
            visit(child, scope)

    visit(tree, ())
    return found


def test_one_frequency_rule():
    """Only korobov's ``_frequency_rows`` turns a caller's frequency rows
    into int64: each entry point calls it, no per-module probe helper or
    dtype check comes back beside it, and FrequencyIndex objects are built
    only where the API hands them out."""
    builders, entries, defined, dtype_checks = set(), set(), set(), []
    for path in sorted(SOURCES.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        for scope, name in _calls(tree):
            if name == "FrequencyIndex":
                builders.add((path.name, scope))
            elif name == "_frequency_rows":
                entries.add((path.name, scope))
        if path.name != "korobov.py":
            imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                        for a in n.names]
            assert path.name != "lattice.py" or "FrequencyIndex" not in imported
            dtype_checks += [f"{path.name}: {line.strip()}" for line in text.splitlines()
                             if re.search(r"\.dtype\.kind|np\.iinfo\(np\.int64\)\.max", line)]
    assert builders == FREQUENCY_INDEX_BUILDERS
    assert entries == FREQUENCY_ENTRIES
    assert "_probe_rows" not in defined
    # the one dtype check left outside korobov is the generating vectors'
    assert [c for c in dtype_checks if not c.startswith("lattice.py: if Z.dtype.kind")] == []
