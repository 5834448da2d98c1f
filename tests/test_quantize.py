"""Grid construction and Weyl-quantization exactness."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import circulant, eigh, eigvalsh

import pdwell
from pdwell import ConfigurationError, EvaluationError
from pdwell.quantize import (OperatorMatrix, _circulant_plus_diagonal,
                             _circulant_view, _multiplier_column, _symmetrize)


def _dft(N):
    # unitary DFT matching np.fft conventions: fft(v) = sqrt(N) F v
    j = np.arange(N)
    return np.exp(-2j*np.pi*np.outer(j, j)/N) / np.sqrt(N)


def _circulant(a, g):
    # the dense circulant of the multiplier a(eta), unsymmetrized
    return np.array(_circulant_view(_multiplier_column(a, g)))


def test_make_grid_basic():
    g = pdwell.make_grid(8.0, 512, 0.02)
    assert g.dx == 0.015625
    assert g.x_nodes[0] == -4.0
    eta = np.fft.fftshift(g.eta_fft)
    assert len(g.x_nodes) == 512 and len(eta) == 512
    assert np.all(np.diff(eta) > 0)
    assert abs(g.cutoff - np.pi*0.02*512/8.0) < 1e-14


def test_grid_duality_identity(rng):
    g = pdwell.make_grid(8.0, 256, 0.05)
    js = rng.integers(0, 256, size=50)
    ks = rng.integers(0, 256, size=50)
    ms = rng.integers(0, 256, size=50)
    eta = np.fft.fftshift(g.eta_fft)
    lhs = np.exp(1j*(g.x_nodes[js] - g.x_nodes[ks])*eta[ms]/g.h)
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
    C = _circulant(model_a.a, g)
    assert np.max(np.abs(M.entries - C)) < 1e-12


def test_symmetrized_matrix_exactly_hermitian(model_a, model_b, grid05):
    # the anti-diagonal Weyl route (ModelB) and the circulant (ModelA), with
    # no cleanup pass after assembly
    for g in (pdwell.make_grid(8.0, 8, 0.05, xi_min=0.0),
              pdwell.make_grid(8.0, 64, 0.05, xi_min=0.0), grid05,
              pdwell.make_grid(8.0, 1024, 0.05)):
        for M in (pdwell.weyl_matrix(lambda x, xi: model_b.b(x, xi), g),
                  pdwell.assemble_L(model_b, g), pdwell.assemble_L(model_a, g)):
            A = M.dense()
            assert np.array_equal(A, A.conj().T)


def test_symmetrize_rows_conjugate_even(rng):
    rev = pdwell.reverse_indices(16)
    for W in (rng.standard_normal((3, 16)) + 1j*rng.standard_normal((3, 16)),
              rng.standard_normal(16)):
        expected = (W + np.conj(W[..., rev])) * 0.5
        _symmetrize(W)
        assert W.tobytes() == expected.tobytes()
        assert np.array_equal(W[..., rev], np.conj(W))


def test_assemble_split_vs_weyl(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    split = pdwell.assemble_L(model_a, g)

    def combined(x, xi):
        return model_a.a(xi) + g.h * model_a.b(x, xi)

    direct = pdwell.weyl_matrix(combined, g)
    diff = np.linalg.norm(split.dense() - direct.entries)
    assert diff < 1e-10


def test_even_symbols_assemble_real(model_a, model_b, seal_a):
    """xi-even operators are float64 and keep the spectrum of the complex
    Hermitian solve; ModelB's xi-odd coupling keeps L_h complex."""
    eps = np.finfo(float).eps
    g = pdwell.make_grid(8.0, 256, 0.07)
    L_a = pdwell.assemble_L(model_a, g)
    assert pdwell.assemble_L(model_b, g).entries.dtype == np.complex128
    g_eff = pdwell.make_grid(8.0, 256, np.sqrt(g.h))
    for M in (L_a, pdwell.assemble_onewell(L_a, seal_a),
              pdwell.assemble_Mhbar(model_a, g_eff),
              pdwell.assemble_Mhbar(model_b, g_eff)):
        assert M.dense().dtype == np.float64
        got = np.array([p.value for p in pdwell.lowest_eigenpairs(M, 3)])
        full = M.dense()
        ref = eigh(full.astype(np.complex128), eigvals_only=True,
                   subset_by_index=(0, 2))
        assert np.max(np.abs(got - ref)) <= 64 * eps * np.linalg.norm(full, 2)


def _split_model(a, V):
    return pdwell.Model(a=a,
                        b=pdwell.SymbolB(lambda x, xi: V(x) + 0.0*xi,
                                         lambda x, xi: 0.0*x, xi_independent=True),
                        x_right=1.0)


def test_reflection_flag_marks_exactly_symmetric_builds(model_a, model_b, seal_a):
    """Only builds that commute bit for bit with U: x -> -x carry the flag,
    so only they go to the parity-sector solver."""
    g = pdwell.make_grid(8.0, 128, 0.07)
    rev = pdwell.reverse_indices(128)
    L_a = pdwell.assemble_L(model_a, g)
    L_b = pdwell.assemble_L(model_b, g)
    g_eff = pdwell.make_grid(8.0, 128, np.sqrt(g.h))
    flagged = (L_a, pdwell.assemble_Mhbar(model_a, g_eff),
               pdwell.assemble_Mhbar(model_b, g_eff))
    for M in flagged:
        assert M.reflection_symmetric
        A = M.dense()
        assert np.array_equal(A[np.ix_(rev, rev)], A)

    bumped = g.x_nodes[3]

    def one_node(x):
        return model_a.potential(x) + np.where(x == bumped, 1e-3, 0.0)

    def xi_odd(xi):
        return model_a.a(xi) + 0.1*xi

    unflagged = [L_b,
                 pdwell.assemble_L(_split_model(model_a.a, one_node), g),
                 pdwell.assemble_L(_split_model(xi_odd, model_a.potential), g)]
    # the right-well operator is the reflected seal added to L_h
    unflagged += [ow for L in (L_a, L_b)
                  for ow in (pdwell.assemble_onewell(L, seal_a),
                             L.plus_diagonal(g.h * seal_a.evaluator(-g.x_nodes)))]
    for M in unflagged:
        assert not M.reflection_symmetric
    assert unflagged[2].dense().dtype == np.complex128


def test_reflection_symmetry_is_read_off_the_numbers(model_a):
    """reflection_symmetric holds for a real column and a diagonal that
    reversal leaves unchanged bit for bit: one ulp off either, a complex
    copy of the column, or the same numbers held dense read False. It is
    no constructor argument and cannot be set."""
    g = pdwell.make_grid(8.0, 128, 0.07)
    L = pdwell.assemble_L(model_a, g)
    assert L.reflection_symmetric
    for field in ("column", "diagonal"):
        off = getattr(L, field).copy()
        off[3] = np.nextafter(off[3], np.inf)
        assert not dataclasses.replace(L, **{field: off}).reflection_symmetric
    assert not dataclasses.replace(L, column=L.column.astype(complex)).reflection_symmetric
    assert not OperatorMatrix(g, entries=L.dense()).reflection_symmetric
    with pytest.raises(TypeError):
        OperatorMatrix(g, column=L.column, diagonal=L.diagonal, reflection_symmetric=True)
    with pytest.raises(AttributeError):
        L.reflection_symmetric = False


def test_uneven_multiplier_keeps_complex_circulant():
    g = pdwell.make_grid(8.0, 128, 0.07)

    def a(xi):
        return xi**2/(1 + xi**2) + 0.1*xi

    C = _circulant(a, g)
    assert C.dtype == np.complex128
    assert np.array_equal(C, circulant(np.fft.ifft(a(g.eta_fft))))


def test_assemble_h_scaling(model_a):
    # subtracting the h-order potential leaves the pure multiplier, whose
    # spectrum lies inside [0, sup a]
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g).dense()
    M[np.diag_indices_from(M)] -= g.h * model_a.potential(g.x_nodes)
    C = _circulant(model_a.a, g)
    assert np.max(np.abs(M - C)) < 1e-14
    vals = eigvalsh(0.5*(C + C.conj().T))
    assert vals[0] > -1e-12
    assert vals[-1] < 1.0 + 1e-12


def test_apply_fourier_multiplier(model_a, rng):
    # a(xi)^w applied by the product of a zero-potential circulant
    g = pdwell.make_grid(8.0, 128, 0.07)

    def multiplier(a):
        return _circulant_plus_diagonal(a, lambda x: 0.0 * x, 0.0, g)

    zero = multiplier(lambda xi: 0.0*np.asarray(xi, dtype=float)).apply(
        rng.standard_normal(128))
    assert np.max(np.abs(zero)) == 0.0

    A = multiplier(model_a.a)
    m0 = 17
    mode = np.exp(2j*np.pi*m0*np.arange(128)/128)
    eig = float(model_a.a(np.array(g.eta_fft[m0])))
    assert np.max(np.abs(A.apply(mode) - eig*mode)) < 1e-12

    v = rng.standard_normal(128) + 1j*rng.standard_normal(128)
    dense = _circulant(model_a.a, g) @ v
    assert np.max(np.abs(dense - A.apply(v))) < 1e-12


def test_parity_covariance_modela_exact(model_a):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g).dense()
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
    top = float(np.max(np.abs(eigvalsh(M.dense()))))
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


def _pole(eta):
    with np.errstate(divide="ignore"):
        return 1.0/np.asarray(eta, dtype=float)


def _holed(x, xi=0.0):
    # nan at x = -3, a node of the grid below and a sample of validate_model;
    # 1 elsewhere
    x = np.asarray(x, dtype=float)
    return np.where(x == -3.0, np.nan, 1.0) + 0.0*np.asarray(xi, dtype=float)


@pytest.mark.parametrize("build, named", [
    (lambda g, m: pdwell.assemble_L(pdwell.Model(
        a=_pole, b=m.b, x_right=1.0), g),
     "non-finite multiplier value at xi=0.0"),
    (lambda g, m: pdwell.assemble_L(pdwell.Model(
        a=m.a, b=pdwell.SymbolB(_holed, _holed, xi_independent=True),
        x_right=1.0), g),
     "non-finite potential value at x=-3.0"),
    (lambda g, m: pdwell.schrodinger_matrix(_holed, g, 1.0),
     "non-finite potential value at x=-3.0"),
    (lambda g, m: pdwell.validate_model(pdwell.Model(
        a=m.a, b=pdwell.SymbolB(_holed, _holed, xi_independent=True),
        x_right=1.0)),
     "non-finite symbol b value at x=-3.0, xi=-5.0"),
], ids=["multiplier", "assemble_L_potential", "schrodinger_potential",
        "validate_model_symbol_b"])
def test_nonfinite_multiplier_and_potential_raise(model_a, build, named):
    g = pdwell.make_grid(8.0, 64, 0.15)
    assert -3.0 in g.x_nodes and g.eta_fft[0] == 0.0
    with pytest.raises(EvaluationError) as exc:
        build(g, model_a)
    assert str(exc.value) == named


def test_dump_load_roundtrip(model_a, tmp_path):
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_L(model_a, g)
    path = tmp_path / "op.bin"
    with open(path, "wb") as f:
        pdwell.dump_matrix(M, f)
    entries, N, h = pdwell.load_matrix(path)
    assert N == 128 and h == 0.07
    assert np.array_equal(entries, M.dense())


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


def test_load_matrix_rejects_partial_entry(tmp_path):
    # 65 bytes: four entries of N = 2 and one stray byte
    ragged = tmp_path / "ragged.bin"
    ragged.write_bytes(b"PDOW" + np.uint32(2).tobytes() + np.float64(0.1).tobytes()
                       + bytes(65))
    with pytest.raises(ConfigurationError, match="payload has 65 bytes, expected 64"):
        pdwell.load_matrix(ragged)
