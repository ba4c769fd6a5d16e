"""Public surface: every exported name resolves.

The traced benchmark looks up every ``__all__`` name of the measured modules
with ``getattr``, so a stale entry would crash it before any work is done."""

import ast
import importlib
import inspect

import pytest

import corrscan

MODULES = ("region", "scan", "matern", "mcmc", "adjusted", "fdr", "harness", "cli", "theory")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(f"corrscan.{name}")
    names = getattr(mod, "__all__", ["main"])  # cli exports its entry point only
    assert len(set(names)) == len(names)
    assert [a for a in names if not hasattr(mod, a)] == []


def test_package_imports_exist_and_are_public():
    tree = ast.parse(inspect.getsource(corrscan))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"corrscan.{module}")
        assert getattr(corrscan, name) is getattr(mod, name), (module, name)
        assert name in mod.__all__, (module, name)
