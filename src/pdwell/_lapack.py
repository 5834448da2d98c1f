"""scipy's compiled LAPACK and BLAS wrappers, without `import scipy.linalg`.

That import loads numpy.f2py, numpy.testing and numpy.ma through scipy's
array-API layer (0.28 s, 320 modules). The two f2py extensions are loaded
from scipy's directory instead and kept here, out of sys.modules, so a later
`import scipy.linalg` loads them itself and binds them as its attributes;
both loads share one set of routine objects. Each function passes the
arguments of the scipy.linalg or get_blas_funcs call its docstring names, so
results are the same bytes.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np
from numpy.linalg import LinAlgError


def _extension(name: str):
    if name in sys.modules:
        return sys.modules[name]
    scipy = PathFinder.find_spec("scipy")
    spec = scipy and PathFinder.find_spec(
        name, [os.path.join(scipy.submodule_search_locations[0], "linalg")])
    if spec is None:
        raise ImportError(f"pdwell needs {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself; left there, scipy.linalg would import
    # it without setting the package attribute scipy.linalg._flapack
    sys.modules.pop(name, None)
    return module


_flapack = _extension("scipy.linalg._flapack")
_fblas = _extension("scipy.linalg._fblas")


def _call(routine, *args, check_finite=True, **kwargs):
    """routine's outputs but its info flag, under scipy's checks: non-finite
    input (where scipy raised ValueError; not scanned with check_finite=False,
    as scipy's argument of that name does) and info != 0 raise LinAlgError."""
    if check_finite and not all(np.isfinite(a).all() for a in args):
        raise LinAlgError("array must not contain infs or NaNs")
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise LinAlgError(f"LAPACK {routine.__name__} failed with info = {info}")
    return out


def eigh(a: np.ndarray, k: int, overwrite_a: bool = False):
    """scipy.linalg.eigh(a, subset_by_index=(0, k - 1), overwrite_a=...):
    ?syevr / ?heevr on a's lower triangle, with scipy's workspace."""
    cplx = np.iscomplexobj(a)
    name = "zheevr" if cplx else "dsyevr"
    sizes = _call(getattr(_flapack, name + "_lwork"), a.shape[0], lower=1)
    keys = ("lwork", "lrwork", "liwork") if cplx else ("lwork", "liwork")
    work = dict(zip(keys, (int(s.real) for s in sizes)))
    w, v, m = _call(getattr(_flapack, name), a, lower=1, compute_v=1, range="I",
                    il=1, iu=k, overwrite_a=overwrite_a, **work)[:3]
    return w[:m], v[:, :m]


def gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x as get_blas_funcs("gemv", (a, x))(1.0, a.T, x, trans=1): a
    C-ordered a goes in as its Fortran-ordered transpose, uncopied."""
    cplx = np.iscomplexobj(a) or np.iscomplexobj(x)
    return (_fblas.zgemv if cplx else _fblas.dgemv)(1.0, a.T, x, trans=1)


def cho_factor(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_factor(a, lower=True, overwrite_a=True,
    check_finite=False)[0]: ?potrf's lower factor, in a itself when a is
    Fortran-ordered, the upper triangle left as it was. A matrix that is not
    positive definite raises LinAlgError."""
    routine = _flapack.zpotrf if np.iscomplexobj(a) else _flapack.dpotrf
    return _call(routine, a, lower=1, clean=0, overwrite_a=1, check_finite=False)[0]


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve((c, True), b, check_finite=False): a new array,
    the copy of b that ?potrs overwrites."""
    cplx = np.iscomplexobj(c) or np.iscomplexobj(b)
    return _call(_flapack.zpotrs if cplx else _flapack.dpotrs, c, b, lower=1,
                 check_finite=False)[0]


def _blas(name: str, *arrays):
    """get_blas_funcs(name, arrays), with herk standing for syrk on real data."""
    if any(np.iscomplexobj(a) for a in arrays):
        return getattr(_fblas, "z" + name)
    return getattr(_fblas, "d" + ("syrk" if name == "herk" else name))


def gemm(alpha, a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """get_blas_funcs("gemm", (a, b))(alpha, a, b, **kwargs)."""
    return _blas("gemm", a, b, kwargs.get("c"))(alpha, a, b, **kwargs)


def herk(alpha, a: np.ndarray, **kwargs) -> np.ndarray:
    """get_blas_funcs("herk", (a,))(alpha, a, **kwargs), "syrk" for a real a
    (and c)."""
    return _blas("herk", a, kwargs.get("c"))(alpha, a, **kwargs)


def trsm(alpha, a: np.ndarray, b: np.ndarray, **kwargs) -> np.ndarray:
    """get_blas_funcs("trsm", (a, b))(alpha, a, b, **kwargs)."""
    return _blas("trsm", a, b)(alpha, a, b, **kwargs)
