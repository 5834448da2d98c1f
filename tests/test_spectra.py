"""Eigenpair contracts and localization diagnostics."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import pdwell
from pdwell import ConfigurationError, NumericError, PrecisionWarning, spectra
from pdwell.quantize import OperatorMatrix, _circulant_view
from pdwell.spectra import _logsumexp

EPS = np.finfo(float).eps


def _wrap(entries, g):
    return OperatorMatrix(entries=np.asarray(entries, dtype=np.complex128), grid=g)


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
    scale = np.linalg.norm(M.dense())
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


def _scalar_even_operator():
    # a(xi) = 4.8e-173/(1+xi^2) and V = 1.4375 on N = 16, h = 1/64: the
    # operator is numerically scalar and its off-diagonal entries square to
    # underflow, where LAPACK's index-range solver stops with an internal error
    m = pdwell.Model(a=lambda xi: 4.8e-173 / (1.0 + xi*xi),
                     b=lambda x, xi: 1.4375 + 0.0*x + 0.0*xi, x_right=1.0,
                     xi_independent=True)
    return pdwell.assemble_L(m, pdwell.make_grid(8.0, 16, 1/64, xi_min=0.001))


def test_lapack_failure_in_parity_sectors_is_numeric_error():
    M = _scalar_even_operator()
    assert M.reflection_symmetric
    with pytest.raises(NumericError, match=r"N = 16, k = 8"):
        pdwell.lowest_eigenpairs(M, 8)


def test_lapack_failure_in_dense_solve_is_numeric_error():
    # the 9 x 9 even block of the operator above, solved whole, fails the same way
    A = _scalar_even_operator().dense()
    rev = pdwell.reverse_indices(16)
    d = np.ones(9)
    d[[0, 8]] = np.sqrt(0.5)
    block = (A[:9, :9] + A[:9, rev[:9]]) * d * d[:, None]
    g = dataclasses.replace(pdwell.make_grid(8.0, 16, 1/64, xi_min=0.001), n_points=9)
    M = OperatorMatrix(entries=block, grid=g)
    with pytest.raises(NumericError, match=r"N = 9, k = 8"):
        pdwell.lowest_eigenpairs(M, 8)


def test_wrong_reflection_flag_fails_residual_contract(model_a, seal_a):
    # the sealed one-well operator is a circulant plus a diagonal that is not
    # reflection symmetric; solved in parity sectors its vectors miss the
    # full-matrix residual contract
    g = pdwell.make_grid(8.0, 128, 0.07)
    M = pdwell.assemble_onewell(pdwell.assemble_L(model_a, g), seal_a)
    assert M.entries is None and not M.reflection_symmetric
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorMatrix, "reflection_symmetric", property(lambda self: True))
        with pytest.raises(NumericError):
            pdwell.lowest_eigenpairs(M, 2)


@pytest.mark.parametrize("sealed", [True, False], ids=["dense", "parity_sectors"])
def test_nan_eigenvector_fails_residual_contract(monkeypatch, model_a, seal_a, sealed):
    # a nan residual fails `resid > bound` too, so the pair came back
    # with residual = nan and only a RuntimeWarning. ModelA's sealed
    # one-well operator is real and not reflection symmetric: its one solve
    # is dsyevr on the whole N x N matrix, and only that call is patched;
    # L_h is solved in its two smaller parity blocks, both patched
    g = pdwell.make_grid(8.0, 256, 0.05)
    M = pdwell.assemble_L(model_a, g)
    if sealed:
        M = pdwell.assemble_onewell(M, seal_a)
    assert M.reflection_symmetric is not sealed
    solve = spectra.eigh
    calls = []

    def nan_column(a, k, overwrite_a=False):
        calls.append((a.shape, a.dtype))
        w, v = solve(a, k, overwrite_a=overwrite_a)
        if not sealed or a.shape == (g.n_points, g.n_points):
            v[:, 0] = np.nan
        return w, v

    monkeypatch.setattr(spectra, "eigh", nan_column)
    with pytest.raises(NumericError, match="residual nan"):
        pdwell.lowest_eigenpairs(M, 2)
    if sealed:
        assert calls == [((256, 256), np.float64)]
    else:
        assert calls == [((129, 129), np.float64), ((127, 127), np.float64)]


def test_non_finite_matrix_is_numeric_error(g64):
    A = np.eye(64)
    A[3, 2] = np.nan
    with pytest.raises(NumericError, match="infs or NaNs"):
        pdwell.lowest_eigenpairs(_wrap(A, g64), 1)


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
    assert 0.0 < pdwell.fourier_cut(g64) < g64.cutoff
    assert pdwell.fourier_tail(flat, g64) == 0.0


def test_fourier_tail_flat_spectrum_median():
    # spatial delta has a flat momentum spectrum; with the cut between the
    # median |eta| and the next lattice point the tail sits within one
    # lattice weight of 1/2 (the unpaired -N/2 mode makes exactly 0.5
    # unattainable)
    g = pdwell.make_grid(8.0, 8, 0.5, xi_min=0.0)
    eta = np.sort(np.abs(g.eta_fft))
    assert np.median(eta) < pdwell.fourier_cut(g) < eta[5]
    delta = np.zeros(8)
    delta[3] = 1.0
    tail = pdwell.fourier_tail(_pair(delta, g), g)
    assert abs(tail - 0.5) <= 1.0/8.0 + 1e-12


def test_fourier_tail_cut_domain():
    # pi h N / L = 0.5655 at h = 0.09 on N = 16 lies below h^(1/6) = 0.6694
    g = pdwell.make_grid(8.0, 16, 0.09, xi_min=0.01)
    pair = _pair(np.ones(16), g)
    for measure in (pdwell.fourier_cut, lambda g: pdwell.fourier_tail(pair, g)):
        with pytest.raises(ConfigurationError, match="^momentum cutoff pi.h.N/L = 0.5655 "):
            measure(g)
    assert pdwell.fourier_cut(pdwell.make_grid(8.0, 32, 0.09, xi_min=0.01)) == (
        0.09**(1.0/6.0) * (1.0 - 1e-6))


def test_spatial_tail_trivial(grid05):
    inside = np.abs(grid05.x_nodes + 1.0) <= 0.5
    pair = _pair(inside.astype(float), grid05)
    assert pdwell.spatial_tail(pair, grid05, -1.0) == 0.0

    # the ball of radius 0.5 holds 65 of the 512 nodes on [-4, 4)
    uniform = _pair(np.ones(grid05.n_points), grid05)
    assert pdwell.spatial_tail(uniform, grid05, -1.0) == 1.0 - 65/512


@pytest.fixture(scope="module")
def phi05(phase_a_left, grid05):
    """Samples of the left truncated phase at grid05's nodes."""
    return phase_a_left.truncated_evaluator(grid05.x_nodes)


def test_agmon_zero_phase_returns_norm(grid05, onewell05):
    _, pairs = onewell05
    val = pdwell.agmon_weighted_norm(pairs[0], grid05, np.zeros(grid05.n_points))
    assert abs(val - 1.0) < 1e-12


def test_agmon_delta_at_well(grid05, phi05):
    j = int(np.argmin(np.abs(grid05.x_nodes + 1.0)))
    assert grid05.x_nodes[j] == -1.0
    delta = np.zeros(grid05.n_points)
    delta[j] = 1.0
    pair = _pair(delta, grid05)
    assert abs(pdwell.agmon_weighted_norm(pair, grid05, phi05) - 1.0) < 1e-9


def test_agmon_zero_vector_has_zero_norm(grid05, phi05):
    # log|v| is -inf at every node, so no finite contribution is left
    zero = pdwell.Eigenpair(value=0.0, vector=np.zeros(grid05.n_points, complex),
                            residual=0.0)
    assert pdwell.agmon_weighted_norm(zero, grid05, phi05) == 0.0


def test_agmon_overflow_warning(phase_a_left):
    g = pdwell.make_grid(8.0, 8, 1e-6, xi_min=0.0)
    delta = np.zeros(8)
    delta[np.argmin(np.abs(g.x_nodes - 3.0))] = 1.0
    pair = _pair(delta, g)
    phi = phase_a_left.truncated_evaluator(g.x_nodes)
    with pytest.warns(PrecisionWarning), np.errstate(over="ignore"):
        val = pdwell.agmon_weighted_norm(pair, g, phi)
    assert val > 0  # may be inf; the flag is the contract, not the value


def test_onewell_left_right_spectra_agree(model_a, grid05, seal_a, onewell05):
    _, left = onewell05
    # the right well sealed by the reflected bump
    L = pdwell.assemble_L(model_a, grid05)
    M_r = L.plus_diagonal(grid05.h * seal_a.evaluator(-grid05.x_nodes))
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


@pytest.mark.parametrize("case", ["random", "huge", "minus_inf"])
def test_logsumexp_matches_scipy(rng, case):
    a = rng.normal(scale=30.0, size=257)
    if case == "huge":
        a += 1500.0
    elif case == "minus_inf":
        a[::3] = -np.inf
    assert abs(_logsumexp(a) - logsumexp(a)) <= 4e-16 * abs(logsumexp(a))


def test_solves_leave_their_operators_unchanged(model_a, model_b, seal_a):
    """The solver overwrites only its own copy: entries or column (and
    diagonal) are bit for bit the same after lowest_eigenpairs on every
    path, the real parity sectors, the real and the complex full solve."""
    g = pdwell.make_grid(8.0, 128, 0.07)
    L_a = pdwell.assemble_L(model_a, g)
    L_b = pdwell.assemble_L(model_b, g)
    ops = [L_a, L_b,
           pdwell.assemble_Mhbar(model_a, pdwell.make_grid(8.0, 128, np.sqrt(g.h)))]
    ops += [pdwell.assemble_onewell(L, seal_a) for L in (L_a, L_b)]
    assert [M.reflection_symmetric for M in ops] == [True, False, True, False, False]
    for M in ops:
        held = [a for a in (M.entries, M.column, M.diagonal) if a is not None]
        before = [a.copy() for a in held]
        pdwell.lowest_eigenpairs(M, 3)
        assert all(np.array_equal(a, b) for a, b in zip(held, before))


def test_onewell_shares_L_and_applies_as_dense(model_a, model_b, seal_a):
    """assemble_onewell copies no N x N array or column, and its operator
    applies as the dense L_h + h diag(k)."""
    eps = np.finfo(float).eps
    g = pdwell.make_grid(8.0, 128, 0.07)
    rng = np.random.default_rng(0)
    v_real = rng.standard_normal(g.n_points)
    v_complex = v_real + 1j * rng.standard_normal(g.n_points)
    for model in (model_a, model_b):
        L = pdwell.assemble_L(model, g)
        # the right-well operator is the reflected seal added to L_h
        right = L.plus_diagonal(g.h * seal_a.evaluator(-g.x_nodes))
        for ow, x in ((pdwell.assemble_onewell(L, seal_a), g.x_nodes), (right, -g.x_nodes)):
            assert ow.entries is L.entries and ow.column is L.column
            dense = L.dense()
            dense[np.diag_indices_from(dense)] += g.h * seal_a.evaluator(x)
            assert np.array_equal(ow.dense(), dense)
            for v in (v_real, v_complex):
                bound = 64 * eps * np.linalg.norm(dense) * np.linalg.norm(v)
                assert np.linalg.norm(ow.apply(v) - dense @ v) <= bound


# --------------------------------------------------------------------------
# certified shift-invert Lanczos (complex operators solved whole)
# --------------------------------------------------------------------------

def _coupled_entries(rng, N):
    """A complex Hermitian circulant + diagonal + Hankel o Toeplitz matrix,
    shaped like ModelB's L_h: a bounded multiplier with an odd part, a
    double well, and a coupling f((x_j + x_k)/2) t[j - k] with t the
    circulant column of an odd symbol."""
    h = rng.uniform(0.02, 0.2)
    x = -4.0 + 8.0 / N * np.arange(N)
    eta = 2 * np.pi * h / 8.0 * np.fft.fftfreq(N, 1.0 / N)
    a = (rng.uniform(0.5, 2.0) * eta**2 + rng.uniform(-0.3, 0.3) * eta) / (1 + eta**2)
    V = (x**2 - rng.uniform(0.6, 1.4)**2)**2 / (1 + x**4)
    mid = 0.5 * (x[:, None] + x[None, :])
    t = np.fft.ifft(1j * rng.uniform(-1, 1) * eta / (1 + eta**2))
    A = (np.array(_circulant_view(np.fft.ifft(a))) + h * np.diag(V)
         + h * rng.uniform(0, 0.5) * (mid / (1 + mid**2)) * np.array(_circulant_view(t)))
    return 0.5 * (A + A.conj().T)


@st.composite
def coupled_problems(draw):
    """(entries, k, kind): kind "doublet" moves lambda_k+1 to lambda_k + 1e-9
    by a rank-1 update, "tie" doubles every level exactly (A + A)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.sampled_from([32, 64, 128, 256]))
    k = draw(st.sampled_from([1, 3, 4]))
    kind = draw(st.sampled_from(["generic", "doublet", "tie"]))
    if kind == "tie":
        A = np.kron(np.eye(2), _coupled_entries(rng, N // 2))
    else:
        A = _coupled_entries(rng, N)
    if kind == "doublet":
        lam, Q = np.linalg.eigh(A)
        q = Q[:, k]
        A = A + (lam[k - 1] + 1e-9 - lam[k]) * np.outer(q, q.conj())
        A = 0.5 * (A + A.conj().T)
    return A, k, kind


def _count_whole_zheevr(mp, N):
    """Count spectra.eigh calls on an N x N matrix, the zheevr route."""
    calls = []
    solve = spectra.eigh

    def counted(a, k, overwrite_a=False):
        calls.extend([a.shape] if a.shape[0] == N else [])
        return solve(a, k, overwrite_a=overwrite_a)

    mp.setattr(spectra, "eigh", counted)
    return calls


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(coupled_problems())
def test_shift_invert_matches_dense_eigh(problem):
    A, k, kind = problem
    N = A.shape[0]
    g = pdwell.make_grid(8.0, N, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        zheevr = _count_whole_zheevr(mp, N)
        pairs = pdwell.lowest_eigenpairs(_wrap(A, g), k)
    # at N >= 128 the Krylov space converges inside its cap, and only a tie
    # between lambda_k and lambda_k+1 leaves the certificate without a gap
    if N >= 128 and kind != "tie":
        assert zheevr == []
    ref, Q = scipy.linalg.eigh(A)
    norm = np.linalg.norm(A, 2)
    got = np.array([p.value for p in pairs])
    assert np.max(np.abs(got - ref[:k])) <= 32 * EPS * norm
    # each vector lies in the eigenspace of its level's cluster up to the
    # Davis-Kahan angle: residual over the distance to the rest of the spectrum
    for p in pairs:
        v = p.vector * np.sqrt(g.dx)
        cluster = np.abs(ref - p.value) <= 1e-6 * norm
        gap = np.min(np.abs(ref[~cluster] - p.value))
        Qc = Q[:, cluster]
        assert np.linalg.norm(v - Qc @ (Qc.conj().T @ v)) <= (
            p.residual + 32 * EPS * norm) / gap


@pytest.fixture(scope="module")
def modelb_operators(model_b):
    g = pdwell.make_grid(8.0, 256, 0.05)
    L = pdwell.assemble_L(model_b, g)
    return L, pdwell.assemble_onewell(L, pdwell.sealing_function(model_b))


def test_modelb_operators_are_certified(monkeypatch, modelb_operators):
    # both complex operators of a ModelB row are answered by the certified
    # route: no N x N zheevr call, and the dense solve's eigenvalues
    for M in modelb_operators:
        zheevr = _count_whole_zheevr(monkeypatch, M.N)
        pairs = pdwell.lowest_eigenpairs(M, 3)
        assert zheevr == []
        ref = scipy.linalg.eigvalsh(M.dense(), subset_by_index=(0, 2))
        got = np.array([p.value for p in pairs])
        assert np.max(np.abs(got - ref)) <= 32 * EPS * np.linalg.norm(M.dense(), 2)


def test_certificate_rejects_a_block_that_skips_the_ground_pair(modelb_operators):
    L = modelb_operators[0]
    A = L.dense()
    sigma = spectra._gershgorin_floor(A)
    lam, Q = scipy.linalg.eigh(L.dense(), subset_by_index=(0, 4))
    k = 3
    # the true lowest block, tau between lambda_3 and lambda_4: proven
    assert spectra._certified(A, L, Q[:, :k], 0.5 * (lam[2] + lam[3]), sigma)
    # lambda_2..lambda_4 with tau between lambda_4 and lambda_5: the ground
    # pair is below tau and not lifted, so no factor exists
    assert not spectra._certified(A, L, Q[:, 1:k + 1], 0.5 * (lam[3] + lam[4]), sigma)


def _same_pairs(got, ref):
    assert [p.value for p in got] == [p.value for p in ref]
    assert all(p.vector.tobytes() == q.vector.tobytes() for p, q in zip(got, ref))


@pytest.mark.parametrize("failure", ["certificate", "ritz_residual", "nan_ritz_vector"])
def test_forced_certificate_failure_returns_zheevr_bytes(monkeypatch, modelb_operators,
                                                         failure):
    L = modelb_operators[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_krylov", lambda F, k: None)
        zheevr = pdwell.lowest_eigenpairs(L, 3)
    # the zheevr route is today's whole solve: same values as eigh of a copy
    ref_vals, _ = spectra.eigh(L.dense(), 3, overwrite_a=True)
    assert [p.value for p in zheevr] == list(ref_vals)
    if failure == "certificate":
        monkeypatch.setattr(spectra, "_certified", lambda *args: False)
    else:
        # Ritz pairs that miss the residual contract are not certified, and
        # a nan Ritz vector leaves the certificate's factor non-finite
        rayleigh_ritz = spectra._rayleigh_ritz

        def inaccurate(M, Y):
            w, X, resid = rayleigh_ritz(M, Y)
            if failure == "nan_ritz_vector":
                X[:, 0] = np.nan
                return w, X, resid
            return w, X, resid + 1e-9 * M.frobenius_norm()

        monkeypatch.setattr(spectra, "_rayleigh_ritz", inaccurate)
    _same_pairs(pdwell.lowest_eigenpairs(L, 3), zheevr)


def test_krylov_space_without_the_ground_state_goes_to_zheevr(monkeypatch):
    # the ground state e_40 (value 0.5) is decoupled from the other 127
    # coordinates, whose block diag(1..127) + 0.02 u u^H lies above 1 but
    # has Gershgorin rows below 0.5. A start block with a zero row 40 never
    # reaches e_40: Lanczos converges to the block's levels, and only the
    # certificate stands between that and a returned spectrum
    N, ground = 128, 40
    rest = np.delete(np.arange(N), ground)
    u = np.exp(1j * np.arange(N - 1.0))
    A = np.zeros((N, N), dtype=complex)
    A[np.ix_(rest, rest)] = np.diag(np.arange(1.0, N)) + 0.02 * np.outer(u, u.conj())
    A[ground, ground] = 0.5
    M = _wrap(A, pdwell.make_grid(8.0, N, 0.5))
    assert spectra._gershgorin_floor(M.dense()) < 0.5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_krylov", lambda F, k: None)
        zheevr = pdwell.lowest_eigenpairs(M, 3)
    assert zheevr[0].value == pytest.approx(0.5, abs=32 * EPS * N)
    start = spectra._start_block

    def blind(N, b):
        block = start(N, b)
        block[ground] = 0.0
        return block

    monkeypatch.setattr(spectra, "_start_block", blind)
    krylov = spectra._krylov
    seen = []
    monkeypatch.setattr(spectra, "_krylov",
                        lambda F, k: seen.append(krylov(F, k)) or seen[-1])
    _same_pairs(pdwell.lowest_eigenpairs(M, 3), zheevr)
    # Lanczos did converge, to a block orthogonal to the ground state
    assert seen[0] is not None and np.max(np.abs(seen[0][ground])) == 0.0


def test_shift_just_below_the_ground_level_stays_certified(monkeypatch):
    # a ground row coupled by 1e-9 per entry puts the Gershgorin shift 1.3e-7
    # below lambda_1, so the first residual block's Cholesky QR has condition
    # ~5e6 and amplifies what one round of Gram-Schmidt leaves along the
    # basis; the second round keeps the basis orthonormal and the certified
    # route accurate
    N = 128
    A = np.diag(1.0 + 0.05 * np.arange(N)).astype(complex)
    A[7] += 1e-9 * np.exp(1j * np.arange(N))
    A[:, 7] = A[7].conj()
    A[7, 7] = 0.5
    M = _wrap(A, pdwell.make_grid(8.0, N, 0.5))
    ref = scipy.linalg.eigvalsh(A)
    assert ref[0] - spectra._gershgorin_floor(M.dense()) < 2e-7
    zheevr = _count_whole_zheevr(monkeypatch, N)
    got = np.array([p.value for p in pdwell.lowest_eigenpairs(M, 3)])
    assert zheevr == []
    assert np.max(np.abs(got - ref[:3])) <= 32 * EPS * np.linalg.norm(A, 2)


def test_dense_out_matches_dense(model_a, model_b, seal_a):
    # _whole_matrix rewrites its one Fortran-ordered buffer by dense(out=)
    g = pdwell.make_grid(8.0, 128, 0.07)
    for model in (model_a, model_b):
        L = pdwell.assemble_L(model, g)
        for M in (L, pdwell.assemble_onewell(L, seal_a)):
            A = np.full((128, 128), np.nan, dtype=M.dense().dtype, order="F")
            assert M.dense(out=A) is A
            assert A.tobytes() == M.dense().tobytes()
