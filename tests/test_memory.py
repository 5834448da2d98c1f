"""Memory regression guards on the operators.

tracemalloc sees every numpy allocation and none of OpenBLAS's own buffers,
so the peaks below are deterministic. Each measured call is made once
beforehand, so one-time caches do not count.
"""

import tracemalloc
import weakref

import numpy as np

import pdwell
from pdwell import harness
from pdwell.harness import SweepConfig

MiB = 2**20


def _peak_above_live(f) -> float:
    """Peak traced memory of f() above what was live when it started, in MiB."""
    f()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f()
        return (tracemalloc.get_traced_memory()[1] - live) / MiB
    finally:
        if not tracing:
            tracemalloc.stop()


def test_weyl_assembly_peak(model_b):
    # the result alone is 4 MiB; the old route peaked at 18.0 MiB
    g = pdwell.make_grid(8.0, 512, 0.07)
    assert _peak_above_live(lambda: pdwell.assemble_L(model_b, g)) <= 8.0


def test_circulant_assembly_peak(model_a):
    # ModelA's L_h is a column and a diagonal; the dense route peaked at 8.1 MiB
    g = pdwell.make_grid(8.0, 1024, 0.012)
    assert _peak_above_live(lambda: pdwell.assemble_L(model_a, g)) <= 0.5


def test_parity_sector_solve_peak(model_a):
    # one 2 MiB half block at a time, built from the column and solved in
    # place; both blocks at once would be 4.0 MiB, and the dense L_h's
    # sector solve peaked at 4.3 MiB on top of its 8 MiB matrix
    L = pdwell.assemble_L(model_a, pdwell.make_grid(8.0, 1024, 0.012))
    assert L.reflection_symmetric
    assert _peak_above_live(lambda: pdwell.lowest_eigenpairs(L, 3)) <= 3.0


def test_onewell_build_and_solve_peak(model_a, seal_a):
    # the solver's Fortran-ordered 8 MiB matrix, built from the column, plus
    # LAPACK's workspace; the route that copied L_h in assemble_onewell
    # peaked at 16.3 MiB
    g = pdwell.make_grid(8.0, 1024, 0.012)
    L = pdwell.assemble_L(model_a, g)

    def build_and_solve():
        pdwell.lowest_eigenpairs(pdwell.assemble_onewell(L, seal_a), 3)

    assert _peak_above_live(build_and_solve) <= 10.5


def test_deep_row_peak():
    # the one-well solve's 8 MiB matrix is the only N x N array of a
    # modela-deep row; with a dense L_h beside it the row peaked at 17.05 MiB
    cfg = SweepConfig(h_list=(0.012,))
    assert _peak_above_live(lambda: harness._sweep_row(cfg, 0.012)) <= 9.5


def test_deep_row_frees_L_before_M_hbar(monkeypatch):
    """A modela-deep row holds L_h (N = 1024), which the one-well operator
    shares, and M_hbar one after the other, never both at once. M_hbar is
    on its own grid at hbar = sqrt(h), where the grid rule picks N = 512."""
    built = []
    checked = []

    def assemble_L(m, g):
        M = pdwell.assemble_L(m, g)
        built.append((g.n_points, weakref.ref(M)))
        return M

    def gap_Mhbar(m, g):
        checked.append((g.n_points, g.h, all(ref() is None for _, ref in built)))
        return pdwell.gap_Mhbar(m, g)

    monkeypatch.setattr(harness, "assemble_L", assemble_L)
    monkeypatch.setattr(harness, "gap_Mhbar", gap_Mhbar)
    row = harness._sweep_row(SweepConfig(h_list=(0.012,)), 0.012)
    assert [n for n, _ in built] == [1024]
    assert checked == [(512, np.sqrt(0.012), True)]
    assert np.isfinite(row["thm_pred"])
