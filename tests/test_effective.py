"""Effective Schrodinger operator and the one-term gap formula."""

import numpy as np
import pytest

import pdwell
from pdwell import PrecisionWarning
from pdwell.effective import assemble_Mhbar, classical_splitting_formula, gap_Mhbar

RATIO_03_FROZEN = 0.6916  # gap/formula at hbar = 0.3, L = 8, N = 512


def test_zero_potential_pure_multiplier():
    g = pdwell.make_grid(8.0, 128, 0.3)
    M = pdwell.schrodinger_matrix(lambda x: np.zeros_like(x), g, 0.3, 2.0)
    vals = np.linalg.eigvalsh(M.entries)
    expected = np.sort(g.eta_fft**2)
    assert np.max(np.abs(vals - expected)) < 1e-10


def test_harmonic_oscillator_ladder():
    g = pdwell.make_grid(16.0, 512, 0.1)
    M = pdwell.schrodinger_matrix(lambda x: x**2, g, 0.1, 2.0)
    pairs = pdwell.lowest_eigenpairs(M, 4)
    for n, p in enumerate(pairs, start=1):
        assert abs(p.value - (2*n - 1)*0.1) / ((2*n - 1)*0.1) < 1e-8


def test_ground_state_harmonic_limit(model_a, consts_a):
    g = pdwell.make_grid(8.0, 512, 0.2)
    devs = []
    for hbar in (0.2, 0.1):
        eff = assemble_Mhbar(model_a, g, hbar)
        lam1 = pdwell.lowest_eigenpairs(eff, 1)[0].value
        dev = abs(lam1 - consts_a.c0 * hbar)
        assert dev <= 0.9 * hbar
        devs.append(dev / hbar)
    assert devs[1] < devs[0]


def test_rebuilds_momentum_lattice(model_a):
    g = pdwell.make_grid(8.0, 512, 0.2)
    eff = assemble_Mhbar(model_a, g, 0.1)
    assert eff.grid.h == 0.1
    assert eff.grid.n_points == 512
    # matching hbar keeps the very same grid object
    same = assemble_Mhbar(model_a, g, 0.2)
    assert same.grid is g


def test_gap_positive(model_a):
    g = pdwell.make_grid(8.0, 512, 0.3)
    assert gap_Mhbar(model_a, g, 0.3) > 0.0


def test_gap_vs_formula_frozen(model_a):
    g = pdwell.make_grid(8.0, 512, 0.3)
    ratio = gap_Mhbar(model_a, g, 0.3) / classical_splitting_formula(model_a, 0.3)
    assert abs(ratio - RATIO_03_FROZEN) < 1e-3


def test_gap_strictly_decreasing(model_a):
    g = pdwell.make_grid(8.0, 512, 0.35)
    gaps = [gap_Mhbar(model_a, g, hb) for hb in (0.35, 0.30, 0.25, 0.20)]
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
    g = pdwell.make_grid(8.0, 512, 0.35)
    ratios = [gap_Mhbar(model_a, g, hb) / classical_splitting_formula(model_a, hb)
              for hb in (0.35, 0.30, 0.25, 0.20, 0.15)]
    assert all(0.6 < r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_excited_gap_lower_bound(model_a, consts_a):
    g = pdwell.make_grid(8.0, 512, 0.35)
    for hbar in (0.35, 0.25, 0.15):
        eff = assemble_Mhbar(model_a, g, hbar)
        pairs = pdwell.lowest_eigenpairs(eff, 3)
        assert pairs[2].value - pairs[1].value >= 0.5 * consts_a.c0 * hbar


def test_harmonic_ladder_trend(model_a, consts_a):
    g = pdwell.make_grid(8.0, 512, 0.3)
    prev = None
    for hbar in (0.3, 0.2, 0.1):
        eff = assemble_Mhbar(model_a, g, hbar)
        lam1 = pdwell.lowest_eigenpairs(eff, 1)[0].value
        # double-well levels coalesce pairwise onto the one-well ladder as
        # hbar drops; the ground level must approach c0 hbar from within
        dev = abs(lam1/hbar - consts_a.c0)
        if prev is not None:
            assert dev < prev
        prev = dev


def test_residual_floor_warning(model_a):
    g = pdwell.make_grid(8.0, 512, 0.04)
    with pytest.warns(PrecisionWarning):
        gap = gap_Mhbar(model_a, g, 0.04)
    assert gap < 1e-10


def test_splitting_identity_seeded(model_a, consts_a, rng):
    # A sqrt(hbar) e^(-S/hbar) * h with hbar = sqrt(h) must equal the
    # closed-form 2|w_h| prediction, as pure algebra at any h
    for h in rng.uniform(0.01, 0.5, size=100):
        hbar = np.sqrt(h)
        lhs = h * classical_splitting_formula(model_a, hbar)
        rhs = 2.0 * pdwell.interaction_asymptotic(model_a, h)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
