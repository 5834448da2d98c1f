"""The LAPACK/BLAS binding returns scipy.linalg's bytes and shares its modules.

scipy.linalg stays the oracle: every binding call must equal, byte for byte,
the scipy.linalg call it stands in for. Derandomized: every run draws the
same matrices.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg.blas import get_blas_funcs

from pdwell import _lapack

SRC = pathlib.Path(_lapack.__file__).resolve().parent.parent

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


def _same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _hermitian(rng, n, cplx):
    A = rng.standard_normal((n, n))
    if cplx:
        A = A + 1j * rng.standard_normal((n, n))
    return A + A.conj().T


@st.composite
def problems(draw):
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    cplx = draw(st.booleans())
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k, cplx


@PROPERTY
@given(problems())
def test_eigh_subset_matches_scipy(problem):
    rng, n, k, cplx = problem
    A = _hermitian(rng, n, cplx)
    for got, ref in zip(_lapack.eigh(A, k),
                        scipy.linalg.eigh(A, subset_by_index=(0, k - 1))):
        _same(got, ref)
    # overwrite_a on a Fortran-ordered copy: same pairs, same scribbled input
    mine, theirs = np.asfortranarray(A), np.asfortranarray(A)
    for got, ref in zip(_lapack.eigh(mine, k, overwrite_a=True),
                        scipy.linalg.eigh(theirs, subset_by_index=(0, k - 1),
                                          overwrite_a=True)):
        _same(got, ref)
    _same(mine, theirs)


@PROPERTY
@given(problems(), st.booleans())
def test_gemv_matches_scipy(problem, v_cplx):
    rng, n, _, cplx = problem
    A = _hermitian(rng, n, cplx) + rng.standard_normal((n, n))
    v = rng.standard_normal(n) + (1j * rng.standard_normal(n) if v_cplx else 0.0)
    ref = get_blas_funcs("gemv", (A, v))(1.0, A.T, v, trans=1)
    _same(_lapack.gemv(A, v), ref)


def _positive_definite(rng, n, cplx):
    Z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    return Z @ Z.conj().T + n * np.eye(n)


@PROPERTY
@given(problems(), st.booleans())
def test_cho_factor_and_cho_solve_match_scipy(problem, b_cplx):
    rng, n, k, cplx = problem
    A = _positive_definite(rng, n, cplx)
    # a C-ordered matrix is copied, a Fortran-ordered one factored in place
    c = _lapack.cho_factor(A)
    _same(c, scipy.linalg.cho_factor(A, lower=True, overwrite_a=True,
                                     check_finite=False)[0])
    mine, theirs = np.asfortranarray(A), np.asfortranarray(A)
    assert _lapack.cho_factor(mine) is mine
    scipy.linalg.cho_factor(theirs, lower=True, overwrite_a=True, check_finite=False)
    _same(mine, theirs)
    b = rng.standard_normal((n, k)) + (1j * rng.standard_normal((n, k)) if b_cplx else 0.0)
    b = np.asfortranarray(b)
    held = b.copy(order="F")
    _same(_lapack.cho_solve(mine, b),
          scipy.linalg.cho_solve((mine, True), b, check_finite=False))
    _same(b, held)


@PROPERTY
@given(problems(), st.booleans(), st.sampled_from([0, 1, 2]))
def test_level3_blas_match_scipy(problem, b_cplx, trans):
    rng, n, k, cplx = problem
    A = _hermitian(rng, n, cplx) + rng.standard_normal((n, n))
    B = rng.standard_normal((n, k)) + (1j * rng.standard_normal((n, k)) if b_cplx else 0.0)
    gemm = get_blas_funcs("gemm", (A, B))
    _same(_lapack.gemm(0.5, A, B, trans_a=trans), gemm(0.5, A, B, trans_a=trans))
    C = np.asfortranarray(rng.standard_normal((n, k)) + (1j if cplx or b_cplx else 0.0))
    mine, theirs = C.copy(order="F"), C.copy(order="F")
    _lapack.gemm(-1.0, A, B, beta=1.0, c=mine, overwrite_c=1)
    gemm(-1.0, A, B, beta=1.0, c=theirs, overwrite_c=1)
    _same(mine, theirs)
    # herk stands for syrk on real input; trans = 2 takes B^H B
    herk = get_blas_funcs("herk" if np.iscomplexobj(B) else "syrk", (B,))
    t = 2 if trans else 0
    _same(_lapack.herk(2.0, B, trans=t, lower=1), herk(2.0, B, trans=t, lower=1))
    L = np.tril(A) + 4.0 * n * np.eye(n)
    trsm = get_blas_funcs("trsm", (L, B))
    Bf = np.asfortranarray(B)
    _same(_lapack.trsm(1.0, L, Bf, lower=1, trans_a=trans),
          trsm(1.0, L, Bf, lower=1, trans_a=trans))
    Bt = np.asfortranarray(B.T)
    _same(_lapack.trsm(1.0, L, Bt, side=1, lower=1, trans_a=trans),
          trsm(1.0, L, Bt, side=1, lower=1, trans_a=trans))


def test_cholesky_bindings_do_not_scan_for_non_finite_input():
    # the factor is scanned once, as the operator, not at every solve:
    # potrs reads only the lower triangle, so a nan above it is never used
    c = _lapack.cho_factor(np.diag([4.0, 9.0]))
    c[0, 1] = np.nan
    b = np.ones((2, 1))
    _same(_lapack.cho_solve(c, b),
          scipy.linalg.cho_solve((c, True), b, check_finite=False))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_linalg_error(bad):
    A = np.eye(3)
    A[2, 1] = bad
    with pytest.raises(LinAlgError, match="infs or NaNs"):
        _lapack.eigh(A, 1)


def test_failed_factorization_is_linalg_error():
    # ?potrf stops at the first non-positive pivot, as scipy's cho_factor does
    for a in (np.diag([1.0, 0.0, 1.0]), np.diag([1.0, 1.0, -1.0]).astype(complex)):
        with pytest.raises(LinAlgError, match="info = "):
            _lapack.cho_factor(a)
        with pytest.raises(LinAlgError):
            scipy.linalg.cho_factor(a, lower=True)


# in either order scipy.linalg binds its extensions as attributes, and
# both sides call one set of routine objects
SHARED = ("assert sys.modules['scipy.linalg._flapack'] is s._flapack; "
          "assert sys.modules['scipy.linalg._fblas'] is s._fblas; "
          "assert s._flapack.__file__ == b._flapack.__file__; "
          "assert s._flapack.dsyevr is b._flapack.dsyevr; "
          "assert s._fblas.dgemv is b._fblas.dgemv; "
          "assert s.lapack.dsyevr is b._flapack.dsyevr; "
          "assert s.blas.dgemv is b._fblas.dgemv; "
          "import numpy as np; "
          "assert list(s.eigh(np.diag([2.0, 1.0]), eigvals_only=True)) == [1.0, 2.0]")


@pytest.mark.parametrize("order", [
    "import pdwell._lapack as b; import scipy.linalg as s",
    "import scipy.linalg as s; import pdwell._lapack as b",
], ids=["pdwell_first", "scipy_first"])
def test_one_extension_module_in_either_import_order(order):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", f"import sys; {order}; {SHARED}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_scipy_linalg_attributes_after_import_pdwell():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", "import pdwell; import scipy.linalg; "
         "scipy.linalg._flapack; scipy.linalg._fblas"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_missing_extension_is_import_error(tmp_path):
    # a scipy without the compiled wrappers, first on the path
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = {**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{SRC}"}
    done = subprocess.run([sys.executable, "-c", "import pdwell"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "ImportError: pdwell needs scipy.linalg._flapack" in done.stderr
