"""Splitting measurement, interaction term, and the 2x2 Gram reduction."""

import numpy as np
import pytest
import scipy.linalg

import pdwell
from pdwell import DegeneracyError
from pdwell.tunneling import gram_reduction, interaction_term

# frozen at h = 0.05, L = 8, N = 512 (deterministic pipeline)
GAP12_FROZEN = 0.00021095742403959804
MU_FROZEN = 0.013001170112077295
RATIO_THM_FROZEN = 1.03367872375853
RATIO_FORMULA_FROZEN = 0.78454
OVERLAP_ABS_FROZEN = 0.004896
GAP12_009_FROZEN = 0.0017130268326770726


@pytest.fixture(scope="module")
def chi_a(phase_a_left):
    return phase_a_left.chi_left


@pytest.fixture(scope="module")
def pairs05(model_a, grid05):
    M = pdwell.assemble_L(model_a, grid05)
    return M, pdwell.lowest_eigenpairs(M, 3)


@pytest.fixture(scope="module")
def rep05(pairs05, chi_a, onewell05):
    """(w_h, overlap, gram_gap) at h = 0.05."""
    M, pairs = pairs05
    return interaction_term(M, pairs, onewell05[1][0], chi_a)


@pytest.fixture(scope="module")
def preds05(model_a):
    """(thm_pred, formula_pred) at h = 0.05, as a sweep row computes them."""
    g_eff = pdwell.SweepConfig().grid_for(np.sqrt(0.05))
    return (0.05 * pdwell.gap_Mhbar(model_a, g_eff).gap,
            0.05 * pdwell.classical_splitting_formula(model_a, np.sqrt(0.05)))


def _states(chi, ow, g):
    """The cut-off left state and its grid reflection."""
    f_l = chi(g.x_nodes) * ow.vector
    return f_l, f_l[pdwell.reverse_indices(g.n_points)]


def test_cutoff_geometry(chi_a, phase_a_left, seal_a):
    A, eta = phase_a_left.A_window, seal_a.eta
    plateau = np.linspace(-A, 1.0 - 2*eta, 64)
    assert np.all(chi_a(plateau) == 1.0)
    dead = np.concatenate([np.linspace(-9.0, -2*A, 32),
                           np.linspace(1.0 - eta, 5.0, 32)])
    assert np.all(chi_a(dead) == 0.0)
    xs = np.linspace(-9.0, 9.0, 400)
    vals = chi_a(xs)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # the cutoff and the seal never overlap: chi_left k = 0 exactly, on the
    # dense sample and on the nodes of the desk and deep grids
    for x in (xs, pdwell.make_grid(8.0, 512, 0.05).x_nodes,
              pdwell.make_grid(8.0, 1024, 0.01).x_nodes):
        assert np.all(chi_a(x) * seal_a.evaluator(x) == 0.0)


def test_measured_splitting_wide_grid(model_a):
    g = pdwell.make_grid(8.0, 1024, 0.05)
    lam = [p.value for p in pdwell.lowest_eigenpairs(pdwell.assemble_L(model_a, g), 3)]
    gap12, gap23 = lam[1] - lam[0], lam[2] - lam[1]
    assert gap12 > 0
    assert gap23 / 0.05**1.5 >= 1.0


def test_onewell_brackets_double_well(pairs05, onewell05):
    _, ow = onewell05
    _, pairs = pairs05
    lambda1 = pairs[0].value
    # sealing raises the form, and the sealed ground level sits within
    # one splitting of the double-well ground level
    assert lambda1 <= ow[0].value + 1e-14
    assert abs(lambda1 - ow[0].value) <= pairs[1].value - pairs[0].value


def test_interaction_report_frozen(rep05, preds05, pairs05, onewell05,
                                   consts_a):
    M, pairs = pairs05
    w_h, overlap, gram_gap = rep05
    thm, formula = preds05
    gap = pairs[1].value - pairs[0].value
    assert M.grid.h == 0.05
    assert not pdwell.gap_near_residual(pairs, "splitting")
    assert abs(onewell05[1][0].value - MU_FROZEN) < 1e-9
    assert abs(gap - GAP12_FROZEN) < 1e-8 * GAP12_FROZEN
    assert gap >= 0.0
    assert abs(overlap) <= 1.0

    two_abs = 2.0 * abs(w_h)
    assert abs(two_abs - gap) / gap <= 1e-3

    bound = np.exp(-0.8 * consts_a.S / np.sqrt(0.05))
    assert abs(overlap) <= bound
    assert abs(abs(overlap) - OVERLAP_ABS_FROZEN) < 1e-4

    # real-symmetric model: w_h real under the phase convention
    assert abs(w_h.imag) <= 1e-10 * abs(w_h)

    ratio_thm = gap / thm
    assert abs(ratio_thm - RATIO_THM_FROZEN) < 1e-6 * RATIO_THM_FROZEN
    ratio_formula = gap / formula
    assert abs(ratio_formula - RATIO_FORMULA_FROZEN) < 1e-3
    assert abs(thm / formula - 1.0) <= 0.4

    assert abs(gram_gap - gap) <= 1e-8 * gap


def test_interaction_term_runs_no_eigensolve(pairs05, chi_a, onewell05,
                                             monkeypatch):
    # the row solves M_hbar; interaction_term only forms inner products
    import pdwell.spectra as spectra

    def refuse(*args, **kwargs):
        raise AssertionError("interaction_term called eigh")

    monkeypatch.setattr(spectra, "eigh", refuse)
    M, pairs = pairs05
    w_h, overlap, gram_gap = interaction_term(M, pairs, onewell05[1][0], chi_a)
    assert gram_gap > 0 and abs(overlap) > 0 and abs(w_h) > 0


def _pencil_gap(f_l, f_r, M, mu, basis):
    """The reduction as a 2x2 pencil: project f_l and f_r on span(basis),
    form the Gram matrix G and the form matrix L of M - mu on the projected
    pair, and solve L c = lambda G c (gram_reduction's former route)."""
    g = M.grid

    def project(v):
        return sum(e.vector * g.inner(v, e.vector) for e in basis)

    pair = (project(f_l), project(f_r))
    G = np.array([[g.inner(a, b) for b in pair] for a in pair])
    G = 0.5 * (G + G.conj().T)
    assert float(np.min(scipy.linalg.eigvalsh(G))) > 0.0
    shifted = [M.apply(v) - mu * v for v in pair]
    L = np.array([[g.inner(sv, b) for b in pair] for sv in shifted])
    L = 0.5 * (L + L.conj().T)
    evals = scipy.linalg.eigvalsh(L, G)
    return float(evals[1] - evals[0])


@pytest.fixture(scope="module", params=["ModelA", "ModelB"])
def gram_inputs(request, grid05):
    """(f_l, f_r, L_h, mu, two lowest pairs) of each model at h = 0.05."""
    m = pdwell.builtin_model(request.param)
    seal = pdwell.sealing_function(m)
    chi = pdwell.agmon_phase(m, seal).chi_left
    M = pdwell.assemble_L(m, grid05)
    ow = pdwell.lowest_eigenpairs(pdwell.assemble_onewell(M, seal), 1)[0]
    f_l, f_r = _states(chi, ow, grid05)
    return f_l, f_r, M, ow.value, pdwell.lowest_eigenpairs(M, 2)


def test_gram_matrix_properties(onewell05, model_a, grid05, chi_a):
    M = pdwell.assemble_L(model_a, grid05)
    _, ow = onewell05
    f_l, f_r = _states(chi_a, ow[0], grid05)
    basis = pdwell.lowest_eigenpairs(M, 2)
    gap = gram_reduction(f_l, f_r, M, basis)
    assert gap > 0
    # the cut-off states lie almost wholly in span{e_1, e_2}: the squared
    # norms of their projections, sum_j |<f_a, e_j>|^2, are near 1
    for f in (f_l, f_r):
        C = [grid05.inner(f, p.vector) for p in basis]
        assert abs(sum(abs(c)**2 for c in C) - 1.0) <= 0.01


def test_gram_gap_matches_the_pencil(gram_inputs):
    # when det C != 0 the pencil's eigenvalues are those of E, whatever
    # f_l, f_r and mu are; the closed form must give the pencil's gap
    f_l, f_r, M, mu, basis = gram_inputs
    pencil = _pencil_gap(f_l, f_r, M, mu, basis)
    assert abs(gram_reduction(f_l, f_r, M, basis) / pencil - 1.0) <= 1e-10
    # the shift mu leaves the pencil's gap alone
    assert abs(_pencil_gap(f_l, f_r, M, mu + 0.37, basis) / pencil - 1.0) <= 1e-10


def test_gram_gap_is_a_property_of_the_span(gram_inputs):
    # a unitary change of basis inside span{e_1, e_2} gives E a large
    # off-diagonal entry; the gap, 2 |E12| included, must not move
    f_l, f_r, M, mu, basis = gram_inputs
    t, p = 0.6, 0.3
    e1, e2 = basis[0].vector, basis[1].vector
    rotated = [pdwell.Eigenpair(0.0, np.cos(t) * e1 + np.sin(t) * np.exp(1j * p) * e2, 0.0),
               pdwell.Eigenpair(0.0, -np.sin(t) * np.exp(-1j * p) * e1 + np.cos(t) * e2, 0.0)]
    gap = gram_reduction(f_l, f_r, M, basis)
    assert abs(gram_reduction(f_l, f_r, M, rotated) / gap - 1.0) <= 1e-10
    assert abs(_pencil_gap(f_l, f_r, M, mu, rotated) / gap - 1.0) <= 1e-10


def test_gram_degenerate_inputs(onewell05, model_a, grid05, chi_a):
    M = pdwell.assemble_L(model_a, grid05)
    basis = pdwell.lowest_eigenpairs(M, 2)
    f_l, _ = _states(chi_a, onewell05[1][0], grid05)
    dead = np.zeros(grid05.n_points)
    # equal rows of C make det C exactly 0
    for pair in ((dead, dead), (f_l, f_l)):
        with pytest.raises(DegeneracyError, match="singular"):
            gram_reduction(*pair, M, basis)


def test_gram_route_gets_the_interaction_states(pairs05, chi_a, onewell05,
                                                monkeypatch):
    # w_h, the overlap and the Gram route read one pair of states; the
    # reflection maps node 0 (x = -L/2) to itself, where chi_left != 0
    import pdwell.tunneling as tunneling
    seen = []

    def spy(f_l, f_r, *rest):
        seen.append((f_l, f_r))
        return gram_reduction(f_l, f_r, *rest)

    monkeypatch.setattr(tunneling, "gram_reduction", spy)
    M, pairs = pairs05
    ow = onewell05[1][0]
    w_h, overlap, _ = interaction_term(M, pairs, ow, chi_a)
    g = M.grid
    f_l, f_r = _states(chi_a, ow, g)
    assert len(seen) == 1
    assert np.array_equal(seen[0][0], f_l)
    assert np.array_equal(seen[0][1], f_r)
    assert f_r[0] == f_l[0] != 0.0
    assert w_h == g.inner(M.apply(f_l) - ow.value * f_l, f_r)
    assert overlap == g.inner(f_l, f_r)


def test_theorem_prediction_positive(model_a):
    g_eff = pdwell.make_grid(8.0, 512, np.sqrt(0.05))
    pred = 0.05 * pdwell.gap_Mhbar(model_a, g_eff).gap
    assert pred > 0


def test_theorem_ratio_band_and_drift(sweep_report):
    rows = [r for r in sweep_report.rows if not r["precision_flag"]]
    assert len(rows) == 6
    ratios = [r["ratio_thm"] for r in rows]
    assert all(0.7 <= r <= 1.3 for r in ratios)
    devs = [abs(r - 1.0) for r in ratios]
    # at desk scale the measured/theorem ratio moves away from 1 as h
    # drops; record the direction so a change in behavior is visible
    assert devs[-1] > devs[0]
    assert abs(ratios[0] - 1.0202316) < 1e-4


def test_two_route_band_over_sweep(sweep_report):
    for r in sweep_report.rows:
        assert not r["precision_flag"]
        assert 0.7 <= r["two_abs_wh"] / r["gap12"] <= 1.3


def test_sweep_parity_structure(sweep_report):
    for r in sweep_report.rows:
        assert abs(r["parity1"] - 1.0) <= 1e-6
        assert abs(r["parity2"] + 1.0) <= 1e-6


def test_overlap_bound_over_sweep(sweep_report, consts_a):
    for r in sweep_report.rows:
        assert r["overlap_abs"] <= np.exp(-0.8 * consts_a.S / np.sqrt(r["h"]))


def test_asymptotic_log_slope(model_a, consts_a):
    hs = np.array([0.09, 0.08, 0.07, 0.06, 0.05, 0.04])
    vals = np.array([h * pdwell.classical_splitting_formula(model_a, np.sqrt(h))
                     for h in hs])
    x = 1.0 / np.sqrt(hs)
    y = np.log(vals) - 1.25 * np.log(hs)
    slope, _ = np.polyfit(x, y, 1)
    assert abs(slope + consts_a.S) < 1e-9


def test_asymptotic_model_independent_of_coupling(model_a, model_b):
    for h in (0.09, 0.05, 0.02):
        va = pdwell.classical_splitting_formula(model_a, np.sqrt(h))
        vb = pdwell.classical_splitting_formula(model_b, np.sqrt(h))
        assert abs(vb - va) <= 1e-12 * va


def test_modelb_complex_interaction(model_b, grid05):
    seal = pdwell.sealing_function(model_b)
    chi = pdwell.agmon_phase(model_b, seal).chi_left
    M = pdwell.assemble_L(model_b, grid05)
    ow = pdwell.lowest_eigenpairs(pdwell.assemble_onewell(M, seal), 1)[0]
    pairs = pdwell.lowest_eigenpairs(M, 3)
    w_h, _, _ = interaction_term(M, pairs, ow, chi)
    ratio = abs(w_h.imag) / abs(w_h)
    assert 1e-9 <= ratio <= 1e-6
    assert 0.7 <= 2.0 * abs(w_h) / (pairs[1].value - pairs[0].value) <= 1.3


def test_gap12_frozen_at_009(sweep_report):
    r = sweep_report.rows[0]
    assert r["h"] == 0.09
    assert abs(r["gap12"] - GAP12_009_FROZEN) < 1e-8 * GAP12_009_FROZEN
