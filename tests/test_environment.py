"""The package reads no environment variable and imports only numpy and
scipy's compiled LAPACK and BLAS wrappers.

Every setting of a run comes from its config file or its command line, so a
config and a command reproduce a run. The scan covers os.environ, os.getenv
and their bytes forms, by attribute, by name and by `from os import`.
"""

import ast
import os
import pathlib
import subprocess
import sys

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


def _modules_after(statement):
    """Names in sys.modules after statement runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
                         capture_output=True, text=True, check=True, env=env).stdout
    return set(out.split())


# start-up budget of `import pdwell.cli` in a fresh interpreter: 229 modules
# measured (numpy alone loads 209), plus a small margin; a count of modules,
# not a time, so it cannot flake
MAX_CLI_MODULES = 250


def test_cli_imports_numpy_and_two_scipy_extensions():
    loaded = _modules_after("import pdwell.cli")
    # no scipy module, whose array API layer loads numpy.f2py and
    # numpy.testing: _lapack keeps the two compiled wrappers out of sys.modules
    base = _modules_after("import numpy")
    assert sorted(m for m in loaded - base if m.split(".")[0] in ("numpy", "scipy")) == []
    banned = ("numpy.f2py", "numpy.testing", "numpy.ma", "charset_normalizer")
    assert sorted(m for m in loaded for b in banned
                  if m == b or m.startswith(b + ".")) == []
    assert len(loaded) <= MAX_CLI_MODULES
    # the wrappers are scipy's own, from its linalg directory
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    dirs = subprocess.run(
        [sys.executable, "-c", "import os; from importlib.util import find_spec; "
         "import pdwell.cli; from pdwell import _lapack; print(*(os.path.dirname("
         "m.__file__) for m in (_lapack._flapack, _lapack._fblas)), "
         "os.path.join(find_spec('scipy').submodule_search_locations[0], 'linalg'), "
         "sep='\\n')"],
        capture_output=True, text=True, check=True, env=env).stdout.splitlines()
    assert dirs[0] == dirs[1] == dirs[2]
