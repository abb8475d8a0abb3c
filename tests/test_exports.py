"""The package's export lists name only what exists.

Every name in a submodule's ``__all__`` resolves on that module, and
every name ``citnet/__init__.py`` imports from a submodule is in that
submodule's ``__all__``, so a deleted function cannot linger in either.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import citnet

MODULES = sorted(
    name for _finder, name, _pkg in pkgutil.iter_modules(citnet.__path__)
    if hasattr(importlib.import_module(f"citnet.{name}"), "__all__"))


def reexports():
    """(module, name) of every ``from .module import name`` in
    ``citnet/__init__.py``."""
    tree = ast.parse(Path(citnet.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module
            for alias in node.names]


def test_modules_with_export_lists_found():
    assert {"corpus", "impact", "disruption", "matching", "jnet"} \
        <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"citnet.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_only_exported_names():
    pairs = reexports()
    assert len(pairs) > 20
    stray = [f"{module}.{attr}" for module, attr in pairs
             if attr not in importlib.import_module(f"citnet.{module}")
             .__all__]
    assert stray == []
