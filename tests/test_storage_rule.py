"""One module knows how an operator is stored.

An OperatorMatrix holds dense entries or a circulant column, plus an
optional diagonal. Only quantize.py reads those fields or builds the
circulant view over a column; every other module asks the operator for
what it needs (apply, dense, plus_diagonal, reflection_symmetric, ...).
The scan covers every attribute read of those names in the package outside
quantize.py, except numpy's own (np.diagonal), and every reference to
_circulant_view.
"""

import ast
import pathlib

import pdwell

SRC = pathlib.Path(pdwell.__file__).resolve().parent

STORAGE = ("entries", "column", "diagonal")
NUMPY = ("np", "numpy")


def _storage_reads(tree):
    """Line numbers that read an operator's storage or name _circulant_view."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            numpy = isinstance(node.value, ast.Name) and node.value.id in NUMPY
            if (node.attr in STORAGE and not numpy) or node.attr == "_circulant_view":
                yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "_circulant_view":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "_circulant_view" for alias in node.names):
                yield node.lineno


def test_scanner_sees_every_storage_read():
    text = ("M.entries\nM.column[0]\nd = op.diagonal\nf(M).diagonal\n"
            "from .quantize import _circulant_view\nquantize._circulant_view(c)\n"
            "v = _circulant_view\n")
    assert sorted(_storage_reads(ast.parse(text))) == [1, 2, 3, 4, 5, 6, 7]
    allowed = ("np.diagonal(A, offset=1)\nnumpy.diagonal(A)\nM.dense()\n"
               "M.plus_diagonal(d)\nOperatorMatrix(g, column=c, diagonal=d)\n"
               "from .quantize import OperatorMatrix\n")
    assert list(_storage_reads(ast.parse(allowed))) == []


def test_only_quantize_reads_operator_storage():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "quantize.py"
             for line in _storage_reads(ast.parse(path.read_text()))]
    assert found == []
