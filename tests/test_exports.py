"""Every exported name resolves, and so does every name the benchmark
harness in perfbench/ reaches by attribute or import."""

import importlib
import pkgutil

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
