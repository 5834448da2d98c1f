"""Shared fixtures. The default sweep is expensive-ish, so it runs once."""

import importlib
import pathlib
import sys

import numpy as np
import pytest

import pdwell

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
    return pdwell.agmon_phase(model_a, seal_a, "left")


@pytest.fixture(scope="session")
def phase_a_right(model_a, seal_a):
    return pdwell.agmon_phase(model_a, seal_a, "right")


@pytest.fixture(scope="session")
def grid05():
    return pdwell.make_grid(8.0, 512, 0.05)


@pytest.fixture(scope="session")
def onewell05(model_a, grid05, seal_a):
    M = pdwell.assemble_onewell(pdwell.assemble_L(model_a, grid05), "left", seal_a)
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
