"""
Tests for the package's public surface: every exported name resolves, once,
and every library name the benchmark's tracer wraps exists, so a renamed
function fails here instead of leaving a traced benchmark run without spans.
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
