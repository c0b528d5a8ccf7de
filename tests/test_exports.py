"""Every exported name resolves, and so does every name the benchmark
harness in perfbench/ reaches by attribute or import."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qident

MODULES = sorted(m.name for m in pkgutil.iter_modules(qident.__path__, "qident."))


@pytest.mark.parametrize("name", ["qident"] + MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"


# perfbench/micro.py and perfbench/worker.py
@pytest.mark.parametrize(
    "name",
    ["CycloNumber", "geom_inverse", "series_invert", "series_mul", "Monomial", "eval_expr",
     "parse", "check", "builtin_cases"],
)
def test_benchmark_names_resolve(name):
    assert name in qident.__all__ and callable(getattr(qident, name))


def test_benchmark_module_names_resolve():
    cli = importlib.import_module("qident.cli")
    special = importlib.import_module("qident.special")
    assert callable(cli.main)
    # perfbench/micro.py clears every memo dict of special with tuple keys
    qident.eval_expr(qident.parse("j(-q; q)"), 5)
    cache = special._theta_cache
    assert isinstance(cache, dict) and cache and all(isinstance(k, tuple) for k in cache)


def test_cli_import_loads_no_heavy_stdlib_module():
    # an expansion needs none of these, and loading them takes several times
    # as long as the rest of this import; -S keeps site from loading them first.
    # The checking engine, identity, loads on first use of one of its names.
    src = str(Path(qident.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qident.cli; print(*sys.modules);"
            " from qident import run_suite, builtin_cases;"
            " print('loaded', run_suite.__module__, builtin_cases.__module__)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    modules = out[0].split()
    assert "qident.cli" in modules
    heavy = {"concurrent.futures", "multiprocessing", "dataclasses", "importlib.resources",
             "qident.identity"}
    assert heavy.isdisjoint(modules)
    assert out[1] == "loaded qident.identity qident.identity"
