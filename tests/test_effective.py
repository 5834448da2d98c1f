"""Effective Schrodinger operator and the one-term gap formula."""

import numpy as np
import pytest

import pdwell
from pdwell import PrecisionWarning
from pdwell.effective import assemble_Mhbar, classical_splitting_formula, gap_Mhbar

RATIO_03_FROZEN = 0.6916  # gap/formula at hbar = 0.3, L = 8, N = 512


def _grid(hbar, N=512):
    """The grid of M_hbar: hbar is its semiclassical parameter."""
    return pdwell.make_grid(8.0, N, hbar)


def test_zero_potential_pure_multiplier():
    g = pdwell.make_grid(8.0, 128, 0.3)
    M = pdwell.schrodinger_matrix(lambda x: np.zeros_like(x), g, 2.0)
    vals = np.linalg.eigvalsh(M.dense())
    expected = np.sort(g.eta_fft**2)
    assert np.max(np.abs(vals - expected)) < 1e-10


def test_harmonic_oscillator_ladder():
    g = pdwell.make_grid(16.0, 512, 0.1)
    M = pdwell.schrodinger_matrix(lambda x: x**2, g, 2.0)
    pairs = pdwell.lowest_eigenpairs(M, 4)
    for n, p in enumerate(pairs, start=1):
        assert abs(p.value - (2*n - 1)*0.1) / ((2*n - 1)*0.1) < 1e-8


def test_ground_state_harmonic_limit(model_a, consts_a):
    devs = []
    for hbar in (0.2, 0.1):
        eff = assemble_Mhbar(model_a, _grid(hbar))
        lam1 = pdwell.lowest_eigenpairs(eff, 1)[0].value
        dev = abs(lam1 - consts_a.c0 * hbar)
        assert dev <= 0.9 * hbar
        devs.append(dev / hbar)
    assert devs[1] < devs[0]


def test_grid_for_sets_momentum_lattice(model_a, consts_a):
    """SweepConfig.grid_for(hbar) is M_hbar's grid: hbar = g.h, N from the
    config's rule, and assemble_Mhbar builds no second grid."""
    for cfg, N in ((pdwell.SweepConfig(), 512), (pdwell.SweepConfig(N=1024), 1024)):
        g = cfg.grid_for(0.1)
        assert (g.h, g.n_points) == (0.1, N)
        eff = assemble_Mhbar(model_a, g)
        assert eff.grid is g
        ref = pdwell.schrodinger_matrix(model_a.potential, g, consts_a.a2)
        assert np.array_equal(eff.dense(), ref.dense())


def test_gap_positive(model_a):
    # the one solve: the four lowest pairs, ascending, their gap and its flag
    eff = gap_Mhbar(model_a, _grid(0.3))
    values = [p.value for p in eff.pairs]
    assert len(values) == 4 and values == sorted(values)
    assert eff.gap == values[1] - values[0] > 0.0
    assert eff.flag is False


def test_gap_vs_formula_frozen(model_a):
    ratio = gap_Mhbar(model_a, _grid(0.3)).gap / classical_splitting_formula(model_a, 0.3)
    assert abs(ratio - RATIO_03_FROZEN) < 1e-3


def test_gap_strictly_decreasing(model_a):
    gaps = [gap_Mhbar(model_a, _grid(hb)).gap for hb in (0.35, 0.30, 0.25, 0.20)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_formula_doubling_action(model_a, consts_a):
    base = classical_splitting_formula(model_a, 0.25)
    # doubling S at fixed hbar squares the exponential factor
    doubled = consts_a.A * np.sqrt(0.25) * np.exp(-2.0 * consts_a.S / 0.25)
    assert abs(doubled - base * np.exp(-consts_a.S / 0.25)) < 1e-15 * base


def test_formula_log_identity(model_a, consts_a):
    lhs = (np.log(classical_splitting_formula(model_a, 0.25))
           - np.log(classical_splitting_formula(model_a, 0.2)))
    rhs = 0.5 * np.log(0.25 / 0.2) - consts_a.S * (1.0/0.25 - 1.0/0.2)
    assert abs(lhs - rhs) < 1e-12


def test_formula_definition(model_a, consts_a):
    val = classical_splitting_formula(model_a, 0.17)
    assert abs(val - consts_a.A * np.sqrt(0.17) * np.exp(-consts_a.S / 0.17)) < 1e-15


def test_ratio_drift(model_a):
    # the one-term formula overshoots the gap at desk scale (ratio ~0.65 at
    # hbar = 0.35) and the ratio climbs monotonically toward 1 from below
    ratios = [gap_Mhbar(model_a, _grid(hb)).gap / classical_splitting_formula(model_a, hb)
              for hb in (0.35, 0.30, 0.25, 0.20, 0.15)]
    assert all(0.6 < r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_excited_gap_lower_bound(model_a, consts_a):
    for hbar in (0.35, 0.25, 0.15):
        eff = assemble_Mhbar(model_a, _grid(hbar))
        pairs = pdwell.lowest_eigenpairs(eff, 3)
        assert pairs[2].value - pairs[1].value >= 0.5 * consts_a.c0 * hbar


def test_harmonic_ladder_trend(model_a, consts_a):
    prev = None
    for hbar in (0.3, 0.2, 0.1):
        eff = assemble_Mhbar(model_a, _grid(hbar))
        lam1 = pdwell.lowest_eigenpairs(eff, 1)[0].value
        # double-well levels coalesce pairwise onto the one-well ladder as
        # hbar drops; the ground level must approach c0 hbar from within
        dev = abs(lam1/hbar - consts_a.c0)
        if prev is not None:
            assert dev < prev
        prev = dev


def test_residual_floor_warning(model_a):
    with pytest.warns(PrecisionWarning):
        eff = gap_Mhbar(model_a, _grid(0.04))
    assert eff.flag and eff.gap < 1e-10

