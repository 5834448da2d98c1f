"""Sealing, Agmon phase, amplitude, and quasimode checks."""

import numpy as np
import pytest
from scipy.integrate import quad

import pdwell
from pdwell import ConfigurationError
from pdwell.wkb import CumulativeIntegral, SealingFunction

# frozen desk-scale values for ModelA with the default seal (eta = 0.4,
# height = 2 V(0)); all from deterministic quadrature, stable to roundoff
A_WINDOW_FROZEN = 3.2050761108166013
PHI_AT_XR_FROZEN = 1.4640828027148152     # sealed, hence > S
PHI_AT_0_FROZEN = 0.6435370998611432
U_AT_WELL_FROZEN = 0.8191082144414263     # (sqrt(2)/pi)^(1/4)
NORM_RAW_FROZEN = 1.119128521839752       # h = 0.05, N = 512


def test_cumulative_integral_polynomial():
    cum = CumulativeIntegral(lambda t: 3.0*t*t, -2.0, 2.0, 64)
    xs = np.linspace(-2.0, 2.0, 101)
    assert np.max(np.abs((cum(xs) - cum(np.array(-2.0))) - (xs**3 + 8.0))) < 1e-12


def test_cumulative_integral_complex():
    cum = CumulativeIntegral(lambda t: np.exp(1j*t), 0.0, 3.0, 64)
    x = np.array(2.0)
    exact = (np.exp(2j) - 1.0) / 1j
    assert abs(cum(x) - exact) < 1e-12


def test_cumulative_integral_clips_to_domain():
    cum = CumulativeIntegral(lambda t: np.ones_like(t), 0.0, 1.0, 16)
    assert abs(cum(np.array(5.0)) - 1.0) < 1e-14
    assert abs(cum(np.array(-5.0)) - 0.0) < 1e-14


def test_bump_support():
    assert pdwell.bump(np.array(0.0)) == np.exp(-1.0)
    assert pdwell.bump(np.array(1.0)) == 0.0
    assert pdwell.bump(np.array(-1.0)) == 0.0
    assert np.all(pdwell.bump(np.array([1.5, -2.0, 10.0])) == 0.0)


def test_smoothstep_ramp():
    t = np.linspace(-2.0, 2.0, 201)
    s = pdwell.smoothstep(t)
    assert abs(s[0]) < 1e-15
    assert abs(s[-1] - 1.0) < 1e-12
    assert abs(float(pdwell.smoothstep(np.array(0.0))) - 0.5) < 1e-12
    assert np.all(np.diff(s) > -1e-15)


def test_seal_pointwise(seal_a, model_a):
    k = seal_a.evaluator
    assert seal_a.height == 2.0 * float(model_a.potential(np.array(0.0)))
    assert abs(float(k(np.array(1.0))) - seal_a.height*np.exp(-1.0)) < 1e-15
    assert float(k(np.array(1.4))) == 0.0
    assert float(k(np.array(0.6))) == 0.0
    assert np.all(k(np.array([-3.0, 0.0, 2.5])) == 0.0)
    assert np.all(k(np.linspace(0.6, 1.4, 101)) >= 0.0)
    assert seal_a.support == (1.0 - 0.4, 1.0 + 0.4)


def test_seal_parameter_errors(model_a):
    with pytest.raises(ConfigurationError):
        pdwell.sealing_function(model_a, eta=1.5)
    with pytest.raises(ConfigurationError):
        pdwell.sealing_function(model_a, eta=-0.1)
    with pytest.raises(ConfigurationError):
        pdwell.sealing_function(model_a, height=-2.0)


def test_seal_competing_minimum_rejected():
    # four zeros; sealing only the +1 well leaves global minima at +-2
    m = pdwell.custom_model("xi**2/(1+xi**2)",
                            "((x**2-1)*(x**2-4))**2/(1+x**8)", 1.0)
    with pytest.raises(ConfigurationError) as exc:
        pdwell.sealing_function(m)
    assert "seal height" in str(exc.value)


def test_sealed_landscape_unique_minimum(model_a, seal_a):
    xs = np.linspace(-6.0, 6.0, 12001)
    land = model_a.potential(xs) + seal_a.evaluator(xs)
    j = int(np.argmin(land))
    assert abs(xs[j] + 1.0) < 1e-3
    assert land[j] < 1e-12
    away = np.abs(xs + 1.0) > 0.05
    assert np.min(land[away]) > 1e-4


def test_onewell_zero_seal_equals_double_well(model_a, grid05):
    zero = SealingFunction(evaluator=lambda x: np.zeros(np.shape(x)),
                           support=(1.0, 1.0), height=0.0, eta=0.4)
    M = pdwell.assemble_L(model_a, grid05)
    M_ow = pdwell.assemble_onewell(M, "left", zero)
    assert np.array_equal(M_ow.entries, M.entries)


def test_onewell_side_error(model_a, grid05, seal_a):
    with pytest.raises(ConfigurationError):
        pdwell.assemble_onewell(pdwell.assemble_L(model_a, grid05), "up", seal_a)


def test_phase_zero_at_well(phase_a_left):
    assert float(phase_a_left.evaluator(np.array(-1.0))) == 0.0
    xs = np.linspace(-6.0, 6.0, 501)
    assert np.min(phase_a_left.evaluator(xs)) > -1e-12


def test_phase_window_constant(phase_a_left):
    assert abs(phase_a_left.A_window - A_WINDOW_FROZEN) < 1e-8
    # A is the binding root: Phi(-A) = Phi(x_r), and Phi exceeds that level
    # outside [-A, A]
    A = phase_a_left.A_window
    target = float(phase_a_left.evaluator(np.array(1.0)))
    assert abs(float(phase_a_left.evaluator(np.array(-A))) - target) < 1e-8
    xs = np.concatenate([np.linspace(-8.0, -A - 1e-6, 200),
                         np.linspace(A + 1e-6, 8.0, 200)])
    assert np.min(phase_a_left.evaluator(xs)) > target - 1e-10


def test_phase_frozen_values(phase_a_left):
    assert abs(float(phase_a_left.evaluator(np.array(1.0))) - PHI_AT_XR_FROZEN) < 1e-9
    assert abs(float(phase_a_left.evaluator(np.array(0.0))) - PHI_AT_0_FROZEN) < 1e-9


def test_phase_unsealed_interval_matches_action(model_a, seal_a, phase_a_left, consts_a):
    # on [x_l, x_r - eta] the seal vanishes, so the phase there must equal
    # the same integral done by an independent adaptive quadrature
    upper = 1.0 - seal_a.eta
    val, _ = quad(lambda s: np.sqrt(max(float(model_a.potential(np.array(s))), 0.0)),
                  -1.0, upper, epsabs=1e-13, epsrel=1e-13, limit=200)
    expected = np.sqrt(2.0/consts_a.a2) * val
    assert abs(float(phase_a_left.evaluator(np.array(upper))) - expected) < 1e-10
    # the sealed full-interval value strictly exceeds the unsealed action S
    assert float(phase_a_left.evaluator(np.array(1.0))) > consts_a.S


def test_eikonal_residual_small(model_a, phase_a_left, grid05):
    resid = pdwell.eikonal_residual(model_a, phase_a_left, grid05.x_nodes)
    assert resid <= 1e-8


def test_phase_derivative_consistent(phase_a_left):
    xs = np.array([-2.3, -1.7, -0.4, 0.3, 1.9, 2.8])
    d = 1e-4
    fd = (phase_a_left.evaluator(xs + d) - phase_a_left.evaluator(xs - d)) / (2*d)
    assert np.max(np.abs(fd - phase_a_left.derivative(xs))) < 1e-7


def test_truncated_phase_lemma_properties(phase_a_left):
    A = phase_a_left.A_window
    xs = np.linspace(-11.0, 11.0, 2201)
    phi = np.asarray(phase_a_left.evaluator(xs))
    phit = np.asarray(phase_a_left.truncated_evaluator(xs))
    assert np.max(phit - phi) < 1e-12

    d = 1e-5
    dphit = (np.asarray(phase_a_left.truncated_evaluator(xs + d))
             - np.asarray(phase_a_left.truncated_evaluator(xs - d))) / (2*d)
    assert np.max(np.abs(dphit) - np.abs(phase_a_left.derivative(xs))) < 1e-6
    assert np.min((xs + 1.0) * dphit) > -1e-9

    inner = np.abs(xs) <= A
    assert np.max(np.abs(phit[inner] - phi[inner])) < 1e-12

    left_tail = float(phase_a_left.truncated_evaluator(np.array(-2*A - 0.05)))
    assert abs(float(phase_a_left.truncated_evaluator(np.array(-11.5))) - left_tail) < 1e-12
    right_tail = float(phase_a_left.truncated_evaluator(np.array(2*A + 0.05)))
    assert abs(float(phase_a_left.truncated_evaluator(np.array(11.5))) - right_tail) < 1e-12


def test_phase_side_validation(model_a, seal_a):
    with pytest.raises(ConfigurationError):
        pdwell.agmon_phase(model_a, seal_a, "middle")


def test_second_at_well(phase_a_left, consts_a):
    expected = np.sqrt(2.0/consts_a.a2) * consts_a.kappa
    assert abs(phase_a_left.second_at_well - expected) < 1e-12
    assert abs(phase_a_left.second_at_well - np.sqrt(2.0)) < 1e-9


def test_amplitude_at_well(model_a, phase_a_left):
    u = pdwell.leading_amplitude(model_a, phase_a_left, np.array(-1.0))
    expected = (phase_a_left.second_at_well / np.pi) ** 0.25
    assert abs(u - expected) < 1e-12
    assert abs(float(np.real(u)) - U_AT_WELL_FROZEN) < 1e-9
    assert float(np.imag(u)) == 0.0


def test_amplitude_real_for_modela(model_a, phase_a_left):
    xs = np.linspace(-2.5, 2.5, 101)
    u = pdwell.leading_amplitude(model_a, phase_a_left, xs)
    assert np.max(np.abs(np.imag(u))) < 1e-14


def test_amplitude_log_derivative_at_well(model_a, phase_a_left):
    # transport forces u'/u -> -Phi'''(x_l)/(2 Phi''(x_l)) at the well;
    # for the reference well this limit is exactly -1/2. Guards the
    # third-derivative stencil inside the amplitude integrand.
    d = 2e-3
    coeff = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
    u0 = pdwell.leading_amplitude(model_a, phase_a_left, np.array(-1.0))
    du = sum(c * pdwell.leading_amplitude(model_a, phase_a_left, np.array(-1.0 + k*d))
             for c, k in zip(coeff, range(-4, 5)) if c != 0.0) / d
    assert abs(float(np.real(du / u0)) + 0.5) < 1e-5


def test_amplitude_modelb_modulus_matches(model_a, model_b, phase_a_left):
    seal_b = pdwell.sealing_function(model_b)
    phase_b = pdwell.agmon_phase(model_b, seal_b, "left")
    xs = np.linspace(-2.5, 2.5, 101)
    u_a = pdwell.leading_amplitude(model_a, phase_a_left, xs)
    u_b = pdwell.leading_amplitude(model_b, phase_b, xs)
    assert np.max(np.abs(np.abs(u_b) - np.abs(u_a))) < 1e-10
    assert np.max(np.abs(np.imag(u_b))) > 1e-3  # genuinely complex


def test_quasimode_norm_raw(model_a, grid05, phase_a_left):
    q = pdwell.wkb_quasimode(model_a, grid05, phase_a_left)
    assert abs(q.norm_raw - NORM_RAW_FROZEN) < 1e-9
    assert abs(q.norm_raw - 1.0) <= 0.6 * np.sqrt(grid05.h)
    norm = np.sqrt(grid05.dx * np.sum(np.abs(q.vector)**2))
    assert abs(norm - 1.0) < 1e-12
    assert q.lambda_wkb == pdwell.wkb_eigenvalue(model_a, grid05.h, 1)


def test_quasimode_mass_bound(model_a, grid05, phase_a_left):
    q = pdwell.wkb_quasimode(model_a, grid05, phase_a_left)
    mass = np.abs(q.vector)**2
    outside = np.abs(grid05.x_nodes + 1.0) > 0.5
    frac = float(np.sum(mass[outside]) / np.sum(mass))
    phi_half = float(phase_a_left.evaluator(np.array(-0.5)))
    bound = np.exp(-2.0 * phi_half * 0.9 / np.sqrt(grid05.h))
    assert frac <= bound


def test_quasimode_overlap(model_a, grid05, phase_a_left, onewell05):
    _, ow = onewell05
    q = pdwell.wkb_quasimode(model_a, grid05, phase_a_left)
    overlap = abs(grid05.dx * np.sum(q.vector * np.conj(ow[0].vector)))
    assert overlap >= 1.0 - 2.0*np.sqrt(grid05.h)
    assert overlap > 0.999


def test_quasimode_side_mismatch(model_a, grid05, phase_a_left):
    with pytest.raises(ConfigurationError):
        pdwell.wkb_quasimode(model_a, grid05, phase_a_left, side="right")


def test_wkb_eigenvalue_ladder(model_a):
    v1 = pdwell.wkb_eigenvalue(model_a, 0.04, 1)
    assert abs(v1 - np.sqrt(2.0)*0.04**1.5) < 1e-12
    assert abs(pdwell.wkb_eigenvalue(model_a, 0.04, 2) - 3.0*v1) < 1e-15
    with pytest.raises(ConfigurationError):
        pdwell.wkb_eigenvalue(model_a, 0.04, 0)


def test_quantization_condition_consistency(model_a, phase_a_left, consts_a):
    denom = consts_a.a2 * phase_a_left.second_at_well
    for n in (1, 2, 3):
        lam3 = (2*n - 1) * consts_a.c0
        assert abs(lam3/denom - 0.5 - (n - 1)) < 1e-10


def _transport_samples():
    return np.concatenate([np.linspace(-1.8, -1.05, 40),
                           np.linspace(-0.95, -0.2, 40)])


def test_transport_residual_small(model_a, model_b, phase_a_left):
    xs = _transport_samples()
    assert pdwell.transport_residual(model_a, phase_a_left, xs) <= 1e-6
    seal_b = pdwell.sealing_function(model_b)
    phase_b = pdwell.agmon_phase(model_b, seal_b, "left")
    assert pdwell.transport_residual(model_b, phase_b, xs) <= 1e-6


def test_transport_well_ball_excluded(model_a, phase_a_left):
    with pytest.raises(ConfigurationError):
        pdwell.transport_residual(model_a, phase_a_left, np.array([-1.0005]))


def test_transport_rejects_non_solution(model_a, phase_a_left, consts_a):
    # evaluate the transport operator on u == 1 by hand: with u' = 0 and
    # d_xi b = 0 only the (a2/2) Phi'' u - c0 u term survives
    xs = _transport_samples()
    resid = np.abs(0.5 * consts_a.a2 * np.asarray(phase_a_left.second_derivative(xs))
                   - consts_a.c0)
    assert np.max(resid) >= 0.1 * consts_a.c0


def test_transport_operator_linearity(model_a, phase_a_left, consts_a):
    xs = _transport_samples()
    u = pdwell.leading_amplitude(model_a, phase_a_left, xs)

    def op(vec):
        return (0.5 * consts_a.a2 * np.asarray(phase_a_left.second_derivative(xs)) * vec
                - consts_a.c0 * vec)

    assert np.allclose(op(2.0*u), 2.0*op(u), rtol=0, atol=1e-15)


def test_quasimode_residual_scale(model_a, grid05, phase_a_left, onewell05):
    M_ow, ow = onewell05
    q = pdwell.wkb_quasimode(model_a, grid05, phase_a_left)
    resid = pdwell.quasimode_residual(M_ow, q)
    assert resid <= 2.0 * grid05.h**2

    exact = pdwell.WkbQuasimode(vector=ow[0].vector, lambda_wkb=ow[0].value,
                                norm_raw=1.0, side="left")
    assert pdwell.quasimode_residual(M_ow, exact) <= 1e-10


def test_quasimode_residual_shape_error(model_a, grid05, phase_a_left, onewell05):
    M_ow, _ = onewell05
    bad = pdwell.WkbQuasimode(vector=np.zeros(16), lambda_wkb=0.0,
                              norm_raw=1.0, side="left")
    with pytest.raises(ConfigurationError):
        pdwell.quasimode_residual(M_ow, bad)


def test_quasimode_residual_decreases_with_h(sweep_report):
    resid = [r["wkb_residual"] for r in sweep_report.rows]
    assert all(np.isfinite(resid))
    assert all(b < a for a, b in zip(resid, resid[1:]))
