"""Every public name the package lists resolves, and some program code reads it.

Each module's __all__ and the re-exports of pdwell/__init__.py are kept by
hand. A stale entry in __all__ breaks only `from pdwell.<module> import *`,
so these tests name it before a user meets it. A listed name that no
module of the package reads (definitions, imports and __all__ strings are
not reads) is code that only tests run; its home is tests/.
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


def _reexports():
    """(module, name) of every relative import in pdwell/__init__.py."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_resolve():
    reexports = _reexports()
    assert len(reexports) > 50
    for module, name in reexports:
        source = importlib.import_module(f"pdwell.{module}")
        assert getattr(pdwell, name) is getattr(source, name), (module, name)


def test_package_reexports_are_listed_in_their_modules_all():
    # a name the package re-exports is public, so its own module lists it
    unlisted = [(module, name) for module, name in _reexports()
                if name not in getattr(importlib.import_module(f"pdwell.{module}"),
                                       "__all__", ())]
    assert unlisted == []


# public names no program code reads, each with the reason it stays
UNREAD_EXPORTS = {
    # the reader of `pdwell spectrum --dump-matrix` files; it sits next to
    # dump_matrix so the format (magic, header, payload size) has one home
    "load_matrix",
}


def _read_names():
    """Every name the package's modules read, by name or by attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_exported_name_is_read_by_the_package():
    read = _read_names()
    unread = {n for name in MODULES
              for n in getattr(importlib.import_module(f"pdwell.{name}"), "__all__", ())
              if n not in read}
    assert unread == UNREAD_EXPORTS
