"""Environment record of a pdwell process: versions, BLAS and threads.

Call `environment()` inside a process that has already imported pdwell, so
the BLAS libraries numpy and scipy load are mapped and can be asked how many
threads they use.
"""

import ctypes
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "PDWELL_WORKERS")

# symbol prefixes of OpenBLAS builds: plain, and the scipy-openblas wheels
# (whose 64-bit-integer build also appends "64_")
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _openblas_symbol(lib, stem):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                return getattr(lib, f"{prefix}_{stem}{suffix}")
            except AttributeError:
                continue
    return None


def blas_libraries():
    """Each mapped OpenBLAS library: file name, build config, thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _openblas_symbol(lib, "get_config")
        threads = _openblas_symbol(lib, "get_num_threads")
        entry = {"library": os.path.basename(path)}
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        if threads is not None:
            threads.restype = ctypes.c_int
            entry["threads"] = threads()
        out.append(entry)
    return out


def environment():
    import numpy
    import scipy
    import pdwell
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pdwell": os.path.dirname(os.path.abspath(pdwell.__file__)),
        "blas": blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
