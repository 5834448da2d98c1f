"""Eigenpair contracts and localization diagnostics."""

import numpy as np
import pytest

import pdwell
from pdwell import ConfigurationError, NumericError, PrecisionWarning
from pdwell.quantize import OperatorMatrix


def _wrap(entries, g):
    return OperatorMatrix(entries=np.asarray(entries, dtype=np.complex128),
                          hermiticity_defect=0.0, grid=g)


def _pair(vector, g):
    v = np.asarray(vector, dtype=np.complex128)
    v = v / np.sqrt(g.dx * np.sum(np.abs(v)**2))
    return pdwell.Eigenpair(value=0.0, vector=v, residual=0.0)


@pytest.fixture(scope="module")
def g64():
    return pdwell.make_grid(8.0, 64, 0.5)


def test_diagonal_matrix_minimum(model_a, g64):
    V = model_a.potential(g64.x_nodes)
    pair = pdwell.lowest_eigenpairs(_wrap(np.diag(V), g64), 1)[0]
    assert abs(pair.value - float(np.min(V))) < 1e-12


def test_identity_matrix(g64):
    pairs = pdwell.lowest_eigenpairs(_wrap(np.eye(64), g64), 3)
    assert all(abs(p.value - 1.0) < 1e-12 for p in pairs)


def test_eigenpair_contracts(model_a, grid05):
    M = pdwell.assemble_L(model_a, grid05)
    pairs = pdwell.lowest_eigenpairs(M, 4)
    values = [p.value for p in pairs]
    assert values == sorted(values)
    scale = np.linalg.norm(M.entries)
    for p in pairs:
        assert p.residual <= 1e-10 * scale
        norm = np.sqrt(grid05.dx * np.sum(np.abs(p.vector)**2))
        assert abs(norm - 1.0) <= 1e-12
        j = int(np.argmax(np.abs(p.vector)))
        assert abs(p.vector[j].imag) < 1e-12
        assert p.vector[j].real > 0


def test_phase_convention_complex_matrix(g64, rng):
    Z = rng.standard_normal((64, 64)) + 1j*rng.standard_normal((64, 64))
    H = 0.5 * (Z + Z.conj().T)
    for p in pdwell.lowest_eigenpairs(_wrap(H, g64), 3):
        j = int(np.argmax(np.abs(p.vector)))
        assert abs(p.vector[j].imag) < 1e-10
        assert p.vector[j].real > 0


def test_k_out_of_range(g64):
    M = _wrap(np.eye(64), g64)
    with pytest.raises(ConfigurationError):
        pdwell.lowest_eigenpairs(M, 0)
    with pytest.raises(ConfigurationError):
        pdwell.lowest_eigenpairs(M, 65)


def test_residual_contract_violation(g64):
    # non-Hermitian entries: eigh sees the lower triangle only, so the
    # returned vectors cannot satisfy the full-matrix residual contract
    M = np.diag(np.arange(1.0, 65.0)).astype(np.complex128)
    M += 10.0 * np.tril(np.ones((64, 64)), k=-1)
    with pytest.raises(NumericError):
        pdwell.lowest_eigenpairs(_wrap(M, g64), 1)


def test_parity_trivial_vectors(g64):
    even = _pair(np.exp(-g64.x_nodes**2), g64)
    odd = _pair(g64.x_nodes * np.exp(-g64.x_nodes**2), g64)
    assert abs(pdwell.parity_of(even, g64) - 1.0) < 1e-12
    assert abs(pdwell.parity_of(odd, g64) + 1.0) < 1e-12


def test_parity_first_two_states(model_a, grid05):
    pairs = pdwell.lowest_eigenpairs(pdwell.assemble_L(model_a, grid05), 2)
    assert abs(pdwell.parity_of(pairs[0], grid05) - 1.0) < 1e-6
    assert abs(pdwell.parity_of(pairs[1], grid05) + 1.0) < 1e-6


def test_fourier_tail_mode_zero(g64):
    flat = _pair(np.ones(64), g64)
    assert pdwell.fourier_tail(flat, g64, 0.1) == 0.0
    assert pdwell.fourier_tail(flat, g64, g64.cutoff * 0.999) == 0.0


def test_fourier_tail_flat_spectrum_median():
    # spatial delta has a flat momentum spectrum; at the median |eta| the
    # tail sits within one lattice weight of 1/2 (the unpaired -N/2 mode
    # makes exactly 0.5 unattainable)
    g = pdwell.make_grid(8.0, 8, 0.5, xi_min=0.0)
    delta = np.zeros(8)
    delta[3] = 1.0
    pair = _pair(delta, g)
    cut = float(np.median(np.abs(g.eta_fft)))
    tail = pdwell.fourier_tail(pair, g, cut)
    assert abs(tail - 0.5) <= 1.0/8.0 + 1e-12


def test_fourier_tail_cut_domain(g64):
    pair = _pair(np.ones(64), g64)
    with pytest.raises(ConfigurationError):
        pdwell.fourier_tail(pair, g64, 0.0)
    with pytest.raises(ConfigurationError):
        pdwell.fourier_tail(pair, g64, g64.cutoff)


def test_spatial_tail_trivial(grid05):
    inside = np.abs(grid05.x_nodes + 1.0) <= 0.5
    pair = _pair(inside.astype(float), grid05)
    assert pdwell.spatial_tail(pair, grid05, [-1.0], 0.5) == 0.0

    uniform = _pair(np.ones(grid05.n_points), grid05)
    tail = pdwell.spatial_tail(uniform, grid05, [-1.0, 1.0], 1.0)
    assert abs(tail - 0.5) < 0.01


def test_spatial_tail_radius_error(grid05):
    pair = _pair(np.ones(grid05.n_points), grid05)
    with pytest.raises(ConfigurationError):
        pdwell.spatial_tail(pair, grid05, [0.0], 0.0)


def test_agmon_eps_one_returns_norm(model_a, grid05, onewell05, phase_a_left):
    _, pairs = onewell05
    val = pdwell.agmon_weighted_norm(pairs[0], grid05, model_a, 1.0,
                                     phase=phase_a_left)
    assert abs(val - 1.0) < 1e-12


def test_agmon_delta_at_well(model_a, grid05, phase_a_left):
    j = int(np.argmin(np.abs(grid05.x_nodes + 1.0)))
    assert grid05.x_nodes[j] == -1.0
    delta = np.zeros(grid05.n_points)
    delta[j] = 1.0
    pair = _pair(delta, grid05)
    for eps in (0.2, 0.5, 0.9):
        val = pdwell.agmon_weighted_norm(pair, grid05, model_a, eps,
                                         phase=phase_a_left)
        assert abs(val - 1.0) < 1e-9


def test_agmon_eps_domain(model_a, grid05, phase_a_left, onewell05):
    _, pairs = onewell05
    for eps in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigurationError):
            pdwell.agmon_weighted_norm(pairs[0], grid05, model_a, eps,
                                       phase=phase_a_left)


def test_agmon_overflow_warning(model_a, phase_a_left):
    g = pdwell.make_grid(8.0, 8, 1e-6, xi_min=0.0)
    delta = np.zeros(8)
    delta[np.argmin(np.abs(g.x_nodes - 3.0))] = 1.0
    pair = _pair(delta, g)
    with pytest.warns(PrecisionWarning), np.errstate(over="ignore"):
        val = pdwell.agmon_weighted_norm(pair, g, model_a, 0.2,
                                         phase=phase_a_left)
    assert val > 0  # may be inf; the flag is the contract, not the value


def test_onewell_left_right_spectra_agree(model_a, grid05, seal_a, onewell05):
    _, left = onewell05
    M_r = pdwell.assemble_onewell(pdwell.assemble_L(model_a, grid05), "right", seal_a)
    right = pdwell.lowest_eigenpairs(M_r, 3)
    for pl, pr in zip(left, right):
        assert abs(pl.value - pr.value) < 1e-10


def test_form_monotonicity(model_a, grid05, onewell05):
    _, ow = onewell05
    dw = pdwell.lowest_eigenpairs(pdwell.assemble_L(model_a, grid05), 3)
    for p_dw, p_ow in zip(dw, ow):
        assert p_dw.value <= p_ow.value + 1e-14


def test_discrete_window_population(consts_a, onewell05):
    # desk-scale truth: the bound 0.5 b_inf h admits the one-well ground
    # state; the next sealed states sit above it (the seal bump leaves a
    # shoulder minimum near x = 1.5 whose states crowd the low window)
    _, ow = onewell05
    threshold = 0.5 * consts_a.b_inf * 0.05
    below = sum(1 for p in ow if p.value < threshold)
    assert below == 1
    assert ow[0].value < threshold < ow[1].value
