"""Grid construction and Weyl-quantization exactness."""

import numpy as np
import pytest
from scipy.linalg import circulant, eigh, eigvalsh

import pdwell
from pdwell import ConfigurationError, EvaluationError
from pdwell.quantize import DEFECT_RTOL


def _dft(N):
    # unitary DFT matching np.fft conventions: fft(v) = sqrt(N) F v
    j = np.arange(N)
    return np.exp(-2j*np.pi*np.outer(j, j)/N) / np.sqrt(N)


def test_make_grid_basic():
    g = pdwell.make_grid(8.0, 512, 0.02)
    assert g.dx == 0.015625
    assert g.x_nodes[0] == -4.0
    assert len(g.x_nodes) == 512 and len(g.eta_nodes) == 512
    assert np.all(np.diff(g.eta_nodes) > 0)
    assert abs(g.cutoff - np.pi*0.02*512/8.0) < 1e-14


def test_grid_duality_identity(rng):
    g = pdwell.make_grid(8.0, 256, 0.05)
    js = rng.integers(0, 256, size=50)
    ks = rng.integers(0, 256, size=50)
    ms = rng.integers(0, 256, size=50)
    lhs = np.exp(1j*(g.x_nodes[js] - g.x_nodes[ks])*g.eta_nodes[ms]/g.h)
    rhs = np.exp(2j*np.pi*(ms - 128)*(js - ks)/256)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_make_grid_cutoff_accept_reject():
    g = pdwell.make_grid(8.0, 1024, 0.05, xi_min=3.0)
    assert g.cutoff >= 3.0
    with pytest.raises(ConfigurationError) as exc:
        pdwell.make_grid(8.0, 64, 0.01, xi_min=3.0)
    assert "N = 1024" in str(exc.value)


def test_make_grid_parameter_errors():
    with pytest.raises(ConfigurationError):
        pdwell.make_grid(8.0, 100, 0.05)      # not a power of two
    with pytest.raises(ConfigurationError):
        pdwell.make_grid(8.0, 1, 0.05)
    with pytest.raises(ConfigurationError):
        pdwell.make_grid(8.0, 512, 0.0)
    with pytest.raises(ConfigurationError):
        pdwell.make_grid(8.0, 512, 1.5)
    with pytest.raises(ConfigurationError):
        pdwell.make_grid(-8.0, 512, 0.05)


def test_weyl_constant_symbol_is_identity():
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.weyl_matrix(lambda x, xi: np.ones(np.broadcast(x, xi).shape), g)
    assert np.max(np.abs(M.entries - np.eye(128))) < 1e-12
    assert M.hermiticity_defect < 1e-12


def test_weyl_multiplication_operator(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.weyl_matrix(lambda x, xi: model_a.potential(x) + 0.0*xi, g)
    assert np.max(np.abs(M.entries - np.diag(model_a.potential(g.x_nodes)))) < 1e-12


def test_weyl_fourier_multiplier_diagonalized(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.weyl_matrix(lambda x, xi: model_a.a(xi) + 0.0*x, g)
    F = _dft(128)
    conj = F @ M.entries @ F.conj().T
    target = np.diag(model_a.a(g.eta_fft))
    assert np.max(np.abs(conj - target)) < 1e-12
    C = pdwell.fourier_multiplier_matrix(model_a.a.evaluator, g)
    assert np.max(np.abs(M.entries - C)) < 1e-12


def test_symmetrized_matrix_exactly_hermitian(model_b, grid05):
    M = pdwell.weyl_matrix(lambda x, xi: model_b.b(x, xi), grid05)
    assert np.array_equal(M.entries, M.entries.conj().T)
    scale = np.linalg.norm(M.entries)
    assert M.hermiticity_defect <= DEFECT_RTOL * scale
    assert not M.defect_warning


def test_modelb_assembly_defect_small(model_b, grid05):
    M = pdwell.assemble_L(model_b, grid05)
    assert M.hermiticity_defect <= 1e-10


def test_assemble_split_vs_weyl(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    split = pdwell.assemble_L(model_a, g)

    def combined(x, xi):
        return model_a.a(xi) + g.h * model_a.b(x, xi)

    direct = pdwell.weyl_matrix(combined, g)
    diff = np.linalg.norm(split.entries - direct.entries)
    assert diff < 1e-10


def test_even_symbols_assemble_real(model_a, model_b, seal_a):
    """xi-even operators are float64 and keep the spectrum of the complex
    Hermitian solve; ModelB's xi-odd coupling keeps L_h complex."""
    eps = np.finfo(float).eps
    g = pdwell.make_grid(8.0, 256, 0.07)
    L_a = pdwell.assemble_L(model_a, g)
    assert pdwell.assemble_L(model_b, g).entries.dtype == np.complex128
    for M in (L_a, pdwell.assemble_onewell(L_a, "left", seal_a),
              pdwell.assemble_Mhbar(model_a, g, np.sqrt(g.h)),
              pdwell.assemble_Mhbar(model_b, g, np.sqrt(g.h))):
        assert M.entries.dtype == np.float64
        got = np.array([p.value for p in pdwell.lowest_eigenpairs(M, 3)])
        ref = eigh(M.entries.astype(np.complex128), eigvals_only=True,
                   subset_by_index=(0, 2))
        assert np.max(np.abs(got - ref)) <= 64 * eps * np.linalg.norm(M.entries, 2)


def test_uneven_multiplier_keeps_complex_circulant():
    g = pdwell.make_grid(8.0, 128, 0.07)

    def a(xi):
        return xi**2/(1 + xi**2) + 0.1*xi

    C = pdwell.fourier_multiplier_matrix(a, g)
    assert C.dtype == np.complex128
    assert np.array_equal(C, circulant(np.fft.ifft(a(g.eta_fft))))


def test_assemble_h_scaling(model_a):
    # subtracting the h-order potential leaves the pure multiplier, whose
    # spectrum lies inside [0, sup a]
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g).entries.copy()
    M[np.diag_indices_from(M)] -= g.h * model_a.potential(g.x_nodes)
    C = pdwell.fourier_multiplier_matrix(model_a.a.evaluator, g)
    assert np.max(np.abs(M - C)) < 1e-14
    vals = eigvalsh(0.5*(C + C.conj().T))
    assert vals[0] > -1e-12
    assert vals[-1] < 1.0 + 1e-12


def test_apply_fourier_multiplier(model_a, rng):
    g = pdwell.make_grid(8.0, 128, 0.07)
    zero = pdwell.apply_fourier_multiplier(
        pdwell.SymbolA(lambda xi: 0.0*np.asarray(xi, dtype=float), 0.0),
        g, rng.standard_normal(128))
    assert np.max(np.abs(zero)) == 0.0

    m0 = 17
    mode = np.exp(2j*np.pi*m0*np.arange(128)/128)
    out = pdwell.apply_fourier_multiplier(model_a.a, g, mode)
    eig = float(model_a.a(np.array(g.eta_fft[m0])))
    assert np.max(np.abs(out - eig*mode)) < 1e-12

    v = rng.standard_normal(128) + 1j*rng.standard_normal(128)
    dense = pdwell.fourier_multiplier_matrix(model_a.a.evaluator, g) @ v
    fast = pdwell.apply_fourier_multiplier(model_a.a, g, v)
    assert np.max(np.abs(dense - fast)) < 1e-12


def test_apply_fourier_multiplier_shape_error(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    with pytest.raises(ConfigurationError):
        pdwell.apply_fourier_multiplier(model_a.a, g, np.zeros(64))


def test_parity_covariance_modela_exact(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g).entries
    rev = pdwell.reverse_indices(128)
    M_refl = M[np.ix_(rev, rev)]
    assert np.linalg.norm(M_refl - M) <= 1e-14 * np.linalg.norm(M)


def test_parity_covariance_modelb_seam_decays(model_b):
    # the x_0 node and the eta_0 frequency have no reflected partner on the
    # lattice, so the xi-odd coupling leaves an O(1/N) parity defect that
    # must shrink under refinement
    defects = []
    for N in (128, 256, 512):
        g = pdwell.make_grid(8.0, N, 0.07)
        M = pdwell.assemble_L(model_b, g).entries
        rev = pdwell.reverse_indices(N)
        defects.append(np.linalg.norm(M[np.ix_(rev, rev)] - M)
                       / np.linalg.norm(M))
    assert defects[0] < 2e-3
    assert defects[0] > defects[1] > defects[2]


def test_operator_norm_bound(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g)
    top = float(np.max(np.abs(eigvalsh(M.entries))))
    bound = (float(np.max(model_a.a(g.eta_fft)))
             + g.h * float(np.max(model_a.potential(g.x_nodes))))
    assert top <= bound + 1e-10


def test_grid_refinement_stability(model_a):
    vals = {}
    for N in (256, 512):
        g = pdwell.make_grid(8.0, N, 0.05)
        pairs = pdwell.lowest_eigenpairs(pdwell.assemble_L(model_a, g), 4)
        vals[N] = np.array([p.value for p in pairs])
    rel = np.abs(vals[256] - vals[512]) / np.abs(vals[512])
    assert np.max(rel) < 1e-7


def test_assembly_deterministic(model_b):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M1 = pdwell.assemble_L(model_b, g).entries
    M2 = pdwell.assemble_L(model_b, g).entries
    assert np.array_equal(M1, M2)


def test_weyl_nonfinite_symbol_raises():
    g = pdwell.make_grid(8.0, 64, 0.15)

    def singular(x, xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0/np.asarray(x, dtype=float) + 0.0*xi

    with pytest.raises(EvaluationError) as exc:
        pdwell.weyl_matrix(singular, g)
    assert "x=" in str(exc.value)


def test_dump_load_roundtrip(model_a, tmp_path):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g)
    path = tmp_path / "op.bin"
    pdwell.dump_matrix(M, path)
    entries, N, h = pdwell.load_matrix(path)
    assert N == 128 and h == 0.07
    assert np.array_equal(entries, M.entries)


def test_load_matrix_bad_inputs(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(ConfigurationError):
        pdwell.load_matrix(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(b"PDOW" + np.uint32(8).tobytes() + np.float64(0.1).tobytes()
                      + bytes(16))
    with pytest.raises(ConfigurationError):
        pdwell.load_matrix(short)
