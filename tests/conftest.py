"""Shared fixtures. The default sweep is expensive-ish, so it runs once.

The eikonal and transport residuals are criterion 9's oracles. No program
code runs them, so they live here, next to the checks that use them.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

import pdwell
from pdwell.model import smooth_branch

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def model_a():
    return pdwell.builtin_model("ModelA")


@pytest.fixture(scope="session")
def model_b():
    return pdwell.builtin_model("ModelB")


@pytest.fixture(scope="session")
def consts_a(model_a):
    return pdwell.derived_constants(model_a)


@pytest.fixture(scope="session")
def seal_a(model_a):
    return pdwell.sealing_function(model_a)


@pytest.fixture(scope="session")
def phase_a_left(model_a, seal_a):
    return pdwell.agmon_phase(model_a, seal_a)


@pytest.fixture(scope="session")
def grid05():
    return pdwell.make_grid(8.0, 512, 0.05)


@pytest.fixture(scope="session")
def onewell05(model_a, grid05, seal_a):
    M = pdwell.assemble_onewell(pdwell.assemble_L(model_a, grid05), seal_a)
    return M, pdwell.lowest_eigenpairs(M, 3)


@pytest.fixture(scope="session")
def sweep_dir(tmp_path_factory):
    """Output directory of the sweep_report sweep."""
    return tmp_path_factory.mktemp("sweep_default")


@pytest.fixture(scope="session")
def sweep_report(sweep_dir):
    """Default ModelA desk-scale sweep; rows feed harness and acceptance tests."""
    cfg = pdwell.SweepConfig(out_dir=str(sweep_dir))
    return pdwell.run_sweep(cfg)


@pytest.fixture(scope="session")
def perfbench_module():
    """Import a module of perfbench/, a script directory, by name."""
    def load(name):
        sys.path.insert(0, str(PERFBENCH))
        try:
            return importlib.import_module(name)
        finally:
            sys.path.remove(str(PERFBENCH))
    return load


# weights of the 8th-order centered first difference, offsets -4 .. 4
_FD8_COEFF = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0


def _fd8(f, xs, d):
    """8th-order centered first difference of f at xs with step d."""
    return sum(c * np.asarray(f(xs + off*d))
               for c, off in zip(_FD8_COEFF, range(-4, 5)) if c != 0.0) / d


def _landscape(phase):
    """The sealed landscape b(., 0) + k of the phase's model and seal."""
    m, k = phase.model, phase.seal.evaluator
    return lambda s: np.asarray(m.potential(s), dtype=float) + k(s)


def _phase_derivatives(phase, d=1e-3):
    """Phi' and Phi'' of the left well's phase, rebuilt from the model and
    the seal: Phi' is sqrt(2/a''(0)) times the sealed landscape's root
    branch through the well, Phi'' its 8th-order difference with step d."""
    pref = np.sqrt(2.0 / pdwell.derived_constants(phase.model).a2)
    branch = smooth_branch(_landscape(phase), phase.model.x_left)

    def prime(x):
        return pref * branch(x)

    return prime, lambda x: _fd8(prime, np.asarray(x, dtype=float), d)


def _eikonal_residual(phase, sample_xs, d=2e-3):
    """Residual of (Phi')^2 = (2/a''(0)) b_sealed(., 0) at the samples.

    Phi' comes from an 8th-order differentiation of the cumulative phase
    itself, and the landscape from the model and the seal, so this
    genuinely cross-checks the quadrature against the defining identity.
    """
    xs = np.asarray(sample_xs, dtype=float)
    consts = pdwell.derived_constants(phase.model)
    dphi = _fd8(phase.evaluator, xs, d)
    return float(np.max(np.abs(dphi**2 - (2.0/consts.a2) * _landscape(phase)(xs))))


def _transport_residual(phase, sample_xs):
    """Residual of the first transport equation at the sample points.

    Evaluates | i Phi' d_xi b(x,0) u + (a2/2) Phi'' u + a2 Phi' u' - c0 u |
    with u the leading amplitude, u' a high-order finite difference of the
    amplitude callable and Phi', Phi'' from _phase_derivatives. Samples
    must stay 1e-3 away from the well, where Phi' vanishes and the
    equation degenerates.
    """
    xs = np.asarray(sample_xs, dtype=float)
    m = phase.model
    if np.any(np.abs(xs - m.x_left) < 1e-3):
        raise pdwell.ConfigurationError(
            "sample points must exclude the 1e-3 ball around the well")
    consts = pdwell.derived_constants(m)
    a2, c0 = consts.a2, consts.c0
    prime, second = _phase_derivatives(phase)
    u_of = phase.amplitude
    u = u_of(xs)
    du = _fd8(u_of, xs, 1e-3)
    resid = (1j * prime(xs) * np.asarray(m.b.xi_derivative(xs, 0.0)) * u
             + 0.5 * a2 * second(xs) * u
             + a2 * prime(xs) * du
             - c0 * u)
    return float(np.max(np.abs(resid)))


@pytest.fixture(scope="session")
def phase_derivatives():
    """phase -> (Phi', Phi''), independent of the phase's own tables."""
    return _phase_derivatives


@pytest.fixture(scope="session")
def eikonal_residual():
    """(phase, sample_xs) -> max eikonal residual over the samples."""
    return _eikonal_residual


@pytest.fixture(scope="session")
def transport_residual():
    """(phase, sample_xs) -> max first-transport residual over the samples."""
    return _transport_residual


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
