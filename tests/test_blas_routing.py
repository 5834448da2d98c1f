"""The sweep path leaves numpy's BLAS idle.

numpy and scipy may each bundle an OpenBLAS with its own thread pool. Dense
products go through scipy's BLAS (OperatorMatrix.apply), which also runs the
eigensolves, circulant products through numpy's FFT, and N x N norms through
a reduction that calls no BLAS, so only one pool runs.
"""

import ast
import pathlib

import numpy as np
import pytest

import pdwell
from pdwell import harness

SRC = pathlib.Path(pdwell.__file__).resolve().parent
EPS = np.finfo(float).eps

# numpy product calls that run BLAS: np.dot, a.dot, np.matmul, np.vdot
PRODUCT_CALLS = ("dot", "matmul", "vdot")


def _products(tree):
    """Line numbers of matrix products."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in PRODUCT_CALLS):
            yield node.lineno


def test_scanner_sees_every_product_form():
    text = "a @ b\nc @= d\nnp.dot(a, b)\na.dot(b)\nnp.matmul(a, b)\nnp.vdot(a, b)\n"
    assert sorted(_products(ast.parse(text))) == [1, 2, 3, 4, 5, 6]


def test_no_numpy_products_in_package():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _products(ast.parse(path.read_text()))]
    assert found == []


def test_sweep_row_takes_norms_of_vectors_only(monkeypatch):
    # np.linalg.norm of a matrix is one BLAS dot over N^2 entries, which
    # OpenBLAS threads
    ndims = []
    norm = np.linalg.norm

    def spy(x, *args, **kwargs):
        ndims.append(np.ndim(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    harness._sweep_row(pdwell.SweepConfig(h_list=(0.05,)), 0.05)
    assert ndims and set(ndims) == {1}


@pytest.fixture(scope="module")
def operators():
    g = pdwell.make_grid(8.0, 512, 0.05)
    return {dtype: pdwell.assemble_L(pdwell.builtin_model(name), g)
            for dtype, name in ((float, "ModelA"), (complex, "ModelB"))}


@pytest.mark.parametrize("matrix, vector", [
    (float, float), (float, complex), (complex, complex), (complex, float),
], ids=["real_real", "real_complex", "complex_complex", "complex_real"])
def test_apply_equals_matmul(operators, rng, matrix, vector):
    M = operators[matrix]
    A = M.dense()
    assert A.dtype == matrix
    v = rng.standard_normal(M.N)
    if vector is complex:
        v = v + 1j * rng.standard_normal(M.N)
    got = M.apply(v)
    assert got.shape == (M.N,)
    assert np.iscomplexobj(got) == (matrix is complex or vector is complex)
    bound = 64 * EPS * pdwell.frobenius_norm(A) * np.linalg.norm(v)
    assert np.linalg.norm(got - A @ v) <= bound


def test_frobenius_norm_matches_numpy(operators):
    for M in operators.values():
        A = M.dense()
        expected = np.sqrt(np.sum(np.abs(A)**2))
        assert abs(pdwell.frobenius_norm(A) - expected) <= 64 * EPS * expected
        assert abs(M.frobenius_norm() - expected) <= 64 * EPS * expected
