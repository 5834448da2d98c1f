"""The package reads no environment variable.

Every setting of a run comes from its config file or its command line, so a
config and a command reproduce a run. The scan covers os.environ, os.getenv
and their bytes forms, by attribute, by name and by `from os import`.
"""

import ast
import pathlib

import pdwell

SRC = pathlib.Path(pdwell.__file__).resolve().parent

ENVIRONMENT_NAMES = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(tree):
    """Line numbers that name an environment accessor of os."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in ENVIRONMENT_NAMES for alias in node.names):
            yield node.lineno


def test_scanner_sees_every_environment_read():
    text = ('os.environ["A"]\nos.environ.get("A")\nos.getenv("A")\n'
            'from os import environ\nenviron.get("A")\nos.environb[b"A"]\n')
    assert sorted(_environment_reads(ast.parse(text))) == [1, 2, 3, 4, 5, 6]
    assert list(_environment_reads(ast.parse("os.path.join(a, b)\n"))) == []


def test_no_environment_reads_in_package():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _environment_reads(ast.parse(path.read_text()))]
    assert found == []
