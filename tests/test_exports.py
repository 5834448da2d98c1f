"""Every public name the package lists resolves.

Each module's __all__ and the re-exports of pdwell/__init__.py are kept by
hand. A stale entry in __all__ breaks only `from pdwell.<module> import *`,
so these tests name it before a user meets it.
"""

import ast
import importlib
import pathlib

import pytest

import pdwell

SRC = pathlib.Path(pdwell.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"pdwell.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert len(reexports) > 50
    for module, name in reexports:
        source = importlib.import_module(f"pdwell.{module}")
        assert getattr(pdwell, name) is getattr(source, name), (module, name)
