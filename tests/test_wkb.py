"""Sealing, Agmon phase, amplitude, and quasimode checks."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import pdwell
from pdwell import ConfigurationError, EvaluationError, NumericError
from pdwell.harness import SweepConfig, sweep_phase
from pdwell.model import CumulativeIntegral, Model, SymbolB
from pdwell.wkb import SealingFunction

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


@pytest.fixture
def counted_tables(monkeypatch):
    """Every table pdwell.wkb builds from here on, the smoothstep ramp's too,
    each counting the integrand points its build evaluated (built) and those
    its queries evaluate (points)."""
    tables = []

    class Counted(CumulativeIntegral):
        def __init__(self, f, *args, **kwargs):
            self.points = 0

            def counted(x):
                self.points += np.size(x)
                return f(x)

            super().__init__(counted, *args, **kwargs)
            self.built, self.points = self.points, 0
            tables.append(self)

    monkeypatch.setattr(pdwell.wkb, "CumulativeIntegral", Counted)
    pdwell.wkb._step_table.cache_clear()
    yield tables
    pdwell.wkb._step_table.cache_clear()


def test_smoothstep_saturated_ramp_evaluates_no_bump(counted_tables):
    t = np.array([-1e300, -7.0, -1.0, 1.0, 1.5, 7.0, 1e300])
    assert pdwell.smoothstep(t).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    assert pdwell.smoothstep(np.float64(1.0)) == 1.0
    (ramp,) = counted_tables
    assert ramp.points == 0
    pdwell.smoothstep(np.array([-1.0, 0.3, 1.0]))
    assert ramp.points == 16


def _sweep_phase():
    # the phase sweep_phase builds, past its cache so the build is counted
    return sweep_phase.__wrapped__(SweepConfig())


def test_grid_nodes_are_table_edges(model_a, seal_a, counted_tables):
    # dx = 8/N is a multiple of every table's cell width 1/256 (24/6144 on
    # the default [-12, 12], 8/2048 on the sweep's [-4, 4]) for N <= 2048,
    # so sampling at the nodes reads cached sums only
    for build in (lambda: pdwell.agmon_phase(model_a, seal_a), _sweep_phase):
        first = len(counted_tables)
        phase = build()
        for t in counted_tables:
            t.points = 0
        for N in (512, 1024, 2048):
            g = pdwell.make_grid(8.0, N, 0.05)
            phase.evaluator(g.x_nodes)
            phase.truncated_evaluator(g.x_nodes)
            pdwell.wkb_quasimode(g, phase)
            assert [t.points for t in counted_tables] == [0] * len(counted_tables)
        # at N = 4096 every other node lies inside a cell
        phase.evaluator(pdwell.make_grid(8.0, 4096, 0.05).x_nodes)
        assert counted_tables[first].points == 16 * 2048
    # built in order, per phase: its table, the ramp (first build only,
    # inside the truncated phase's build), the truncated phase, the amplitude
    assert len(counted_tables) == 4 + 3


def test_sweep_tables_span_the_grid_window(counted_tables):
    # at L = 8 the truncated phase and the amplitude cover [-4, 4] in 2048
    # cells of width 1/256: 32,768 build points each, against 98,304 on
    # [-12, 12]; the phase itself keeps [-12, 12], where A_window is found
    _sweep_phase()
    raw, ramp, trunc, amp = counted_tables
    assert (raw.lo, raw.hi, len(raw.edges) - 1, raw.built) == (-12.0, 12.0, 6144, 98304)
    for t in (trunc, amp):
        assert (t.lo, t.hi, len(t.edges) - 1, t.built) == (-4.0, 4.0, 2048, 32768)


def test_sweep_phase_builds_every_wkb_table(counted_tables):
    # none of the four tables depends on h, so all are built with the phase
    # and not on a row's first quasimode: the phase, the ramp, the truncated
    # phase and the amplitude
    _sweep_phase()
    assert len(counted_tables) == 4


def test_sweep_rows_build_no_table(counted_tables, tmp_path):
    # the out_dir keys a config of its own, so sweep_phase builds here
    cfg = SweepConfig(h_list=(0.09, 0.08), out_dir=str(tmp_path))
    sweep_phase(cfg)
    built = len(counted_tables)
    report = pdwell.run_sweep(cfg)
    assert [r["h"] for r in report.rows] == [0.09, 0.08]
    assert len(counted_tables) == built == 4


def test_sweep_phase_reads_like_the_default_phase(phase_a_left):
    # every table accumulates outward from the well, so the sweep's narrower
    # tables give the default-span values bit for bit at the grid nodes
    phase = sweep_phase(SweepConfig())
    for N in (512, 1024, 2048):
        x = pdwell.make_grid(8.0, N, 0.05).x_nodes
        for read in (lambda p: p.evaluator(x), lambda p: p.truncated_evaluator(x),
                     lambda p: p.amplitude(x)):
            assert read(phase).tobytes() == read(phase_a_left).tobytes()


def test_narrow_tables_refuse_queries_past_their_span(model_a, seal_a, phase_a_left):
    # a table would answer past its end with its end value, a wrong Phi~ and
    # u_{1,0} on every node outside the span
    phase = pdwell.agmon_phase(model_a, seal_a, span=2.0)
    g = pdwell.make_grid(8.0, 512, 0.05)
    for read in (phase.truncated_evaluator, phase.amplitude,
                 lambda x: pdwell.wkb_quasimode(g, phase)):
        with pytest.raises(ConfigurationError,
                           match=r"^query outside the table span 2$"):
            read(g.x_nodes)
    inside = g.x_nodes[np.abs(g.x_nodes) <= 2.0]
    assert np.all(np.isfinite(phase.truncated_evaluator(inside)))
    assert np.all(np.isfinite(phase.amplitude(inside)))
    # the phase itself still spans [-12, 12]
    assert np.array_equal(phase.evaluator(g.x_nodes), phase_a_left.evaluator(g.x_nodes))
    with pytest.raises(ConfigurationError, match="^span 0.5 must contain the wells at"):
        pdwell.agmon_phase(model_a, seal_a, span=0.5)


def test_phase_and_amplitude_build_memory(seal_a):
    # tracemalloc is deterministic. Building 256 cells per integrand call
    # keeps the peak near 4 MiB; one call for all 6144 cells of the default
    # [-12, 12] tables reaches 12.8 MiB, and querying 16 bump values at every
    # node of the truncated phase's flat ramp reached 59 MiB
    m = pdwell.builtin_model("ModelA")
    tracemalloc.start()
    try:
        pdwell.agmon_phase(m, seal_a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_seal_pointwise(seal_a, model_a):
    # default height 2 V(0), support [x_r - eta, x_r + eta] = [0.6, 1.4]
    k = seal_a.evaluator
    height = 2.0 * float(model_a.potential(np.array(0.0)))
    assert abs(float(k(np.array(1.0))) - height*np.exp(-1.0)) < 1e-15
    assert float(k(np.array(1.4))) == 0.0
    assert float(k(np.array(0.6))) == 0.0
    assert np.all(k(np.array([-3.0, 0.0, 2.5])) == 0.0)
    assert np.all(k(np.linspace(0.6, 1.4, 101)[1:-1]) > 0.0)
    assert seal_a.eta == 0.4


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


def _potential_nan_at(model, points):
    """model, with V = nan at exactly the given points."""
    def b(x, xi):
        x = np.asarray(x, dtype=float)
        return np.where(np.isin(x, points), np.nan, model.b(x, xi))

    return Model(a=model.a, b=SymbolB(b, model.b.xi_derivative, True),
                 x_right=model.x_right)


def test_non_finite_sealed_landscape_is_evaluation_error(model_a):
    # validate_model never samples x = 5.1, one of the seal's samples; a nan
    # there made the sampled floor nan, which passed the minimum test even
    # for a seal too low to close the right well
    x_bad = np.linspace(-6.0, 6.0, 4001)[3700]
    m = _potential_nan_at(model_a, [x_bad])
    assert pdwell.validate_model(m).passed
    with pytest.raises(ConfigurationError, match="competing minimum"):
        pdwell.sealing_function(model_a, height=1e-10)
    with pytest.raises(EvaluationError,
                       match=re.escape(f"non-finite sealed landscape value at x={x_bad}")):
        pdwell.sealing_function(m, height=1e-10)


def test_nan_well_level_fails_the_seal_gate(model_a):
    # x_left is no sample of the landscape, which stays finite; the gate
    # reads not (floor > level + 1e-9), so a nan well level fails it
    m = _potential_nan_at(model_a, [model_a.x_left])
    assert np.all(np.isfinite(m.potential(np.linspace(-6.0, 6.0, 4001))))
    with pytest.raises(ConfigurationError, match="well level nan"):
        pdwell.sealing_function(m)


def test_sealed_landscape_unique_minimum(model_a, seal_a):
    xs = np.linspace(-6.0, 6.0, 12001)
    land = model_a.potential(xs) + seal_a.evaluator(xs)
    j = int(np.argmin(land))
    assert abs(xs[j] + 1.0) < 1e-3
    assert land[j] < 1e-12
    away = np.abs(xs + 1.0) > 0.05
    assert np.min(land[away]) > 1e-4


def test_onewell_zero_seal_equals_double_well(model_a, grid05):
    zero = SealingFunction(evaluator=lambda x: np.zeros(np.shape(x)), eta=0.4)
    M = pdwell.assemble_L(model_a, grid05)
    M_ow = pdwell.assemble_onewell(M, zero)
    assert np.array_equal(M_ow.dense(), M.dense())


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


@pytest.mark.parametrize("name", ["ModelA", "ModelB"])
def test_window_constant_is_side_symmetric(name):
    m = pdwell.builtin_model(name)
    seal = pdwell.sealing_function(m)
    left = pdwell.agmon_phase(m, seal)
    # an independent bracketing root finder on the left phase's far branch;
    # the right well's window is its reflection, so the same A
    target = float(left.evaluator(np.array(1.0)))
    root = brentq(lambda t: float(left.evaluator(np.array(t))) - target, -12.0, -1.0,
                  xtol=1e-15)
    assert abs(-root - left.A_window) < 1e-14 * left.A_window


def test_window_root_out_of_domain_raises():
    # a far field of 1e-4 keeps Phi on the far branch below its value at the
    # opposite well, so the Newton steps run off the phase's domain
    m = pdwell.custom_model("xi**2/(1+xi**2)", "(x**2-1)**2/(1+10000*x**4)", 1.0)
    with pytest.raises(NumericError, match="Agmon window root did not converge"):
        pdwell.agmon_phase(m, pdwell.sealing_function(m))


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


def test_eikonal_residual_small(phase_a_left, grid05, eikonal_residual):
    resid = eikonal_residual(phase_a_left, grid05.x_nodes)
    assert resid <= 1e-8


def test_phase_derivative_consistent(phase_a_left, phase_derivatives):
    xs = np.array([-2.3, -1.7, -0.4, 0.3, 1.9, 2.8])
    d = 1e-4
    fd = (phase_a_left.evaluator(xs + d) - phase_a_left.evaluator(xs - d)) / (2*d)
    prime, _ = phase_derivatives(phase_a_left)
    assert np.max(np.abs(fd - prime(xs))) < 1e-7


def test_truncated_phase_lemma_properties(phase_a_left, phase_derivatives):
    A = phase_a_left.A_window
    xs = np.linspace(-11.0, 11.0, 2201)
    phi = np.asarray(phase_a_left.evaluator(xs))
    phit = np.asarray(phase_a_left.truncated_evaluator(xs))
    assert np.max(phit - phi) < 1e-12

    d = 1e-5
    dphit = (np.asarray(phase_a_left.truncated_evaluator(xs + d))
             - np.asarray(phase_a_left.truncated_evaluator(xs - d))) / (2*d)
    prime, _ = phase_derivatives(phase_a_left)
    assert np.max(np.abs(dphit) - np.abs(prime(xs))) < 1e-6
    assert np.min((xs + 1.0) * dphit) > -1e-9

    inner = np.abs(xs) <= A
    assert np.max(np.abs(phit[inner] - phi[inner])) < 1e-12

    left_tail = float(phase_a_left.truncated_evaluator(np.array(-2*A - 0.05)))
    assert abs(float(phase_a_left.truncated_evaluator(np.array(-11.5))) - left_tail) < 1e-12
    right_tail = float(phase_a_left.truncated_evaluator(np.array(2*A + 0.05)))
    assert abs(float(phase_a_left.truncated_evaluator(np.array(11.5))) - right_tail) < 1e-12


def test_amplitude_at_well(model_a, phase_a_left, consts_a):
    # u(well) = (Phi''(well)/pi)^(1/4), Phi''(well) = sqrt(2/a2) kappa by
    # the eikonal identity, sqrt(2) for the reference well
    second_at_well = np.sqrt(2.0/consts_a.a2) * consts_a.kappa
    assert abs(second_at_well - np.sqrt(2.0)) < 1e-9
    u = phase_a_left.amplitude(np.array(-1.0))
    expected = (second_at_well / np.pi) ** 0.25
    assert abs(u - expected) < 1e-12
    assert abs(float(np.real(u)) - U_AT_WELL_FROZEN) < 1e-9
    assert float(np.imag(u)) == 0.0


def test_amplitude_real_for_modela(model_a, phase_a_left):
    xs = np.linspace(-2.5, 2.5, 101)
    u = phase_a_left.amplitude(xs)
    assert np.max(np.abs(np.imag(u))) < 1e-14


def test_amplitude_log_derivative_at_well(model_a, phase_a_left):
    # transport forces u'/u -> -Phi'''(x_l)/(2 Phi''(x_l)) at the well;
    # for the reference well this limit is exactly -1/2. Guards the
    # third-derivative stencil inside the amplitude integrand.
    d = 2e-3
    coeff = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
    u0 = phase_a_left.amplitude(np.array(-1.0))
    du = sum(c * phase_a_left.amplitude(np.array(-1.0 + k*d))
             for c, k in zip(coeff, range(-4, 5)) if c != 0.0) / d
    assert abs(float(np.real(du / u0)) + 0.5) < 1e-5


def test_amplitude_modelb_modulus_matches(model_a, model_b, phase_a_left):
    seal_b = pdwell.sealing_function(model_b)
    phase_b = pdwell.agmon_phase(model_b, seal_b)
    xs = np.linspace(-2.5, 2.5, 101)
    u_a = phase_a_left.amplitude(xs)
    u_b = phase_b.amplitude(xs)
    assert np.max(np.abs(np.abs(u_b) - np.abs(u_a))) < 1e-10
    assert np.max(np.abs(np.imag(u_b))) > 1e-3  # genuinely complex


def test_quasimode_norm_raw(grid05, phase_a_left, consts_a):
    q = pdwell.wkb_quasimode(grid05, phase_a_left)
    assert abs(q.norm_raw - NORM_RAW_FROZEN) < 1e-9
    assert abs(q.norm_raw - 1.0) <= 0.6 * np.sqrt(grid05.h)
    norm = np.sqrt(grid05.dx * np.sum(np.abs(q.vector)**2))
    assert abs(norm - 1.0) < 1e-12
    assert q.lambda_wkb == consts_a.c0 * grid05.h**1.5
    assert abs(q.lambda_wkb - np.sqrt(2.0)*grid05.h**1.5) < 1e-12


def test_quasimode_mass_bound(grid05, phase_a_left):
    q = pdwell.wkb_quasimode(grid05, phase_a_left)
    mass = np.abs(q.vector)**2
    outside = np.abs(grid05.x_nodes + 1.0) > 0.5
    frac = float(np.sum(mass[outside]) / np.sum(mass))
    phi_half = float(phase_a_left.evaluator(np.array(-0.5)))
    bound = np.exp(-2.0 * phi_half * 0.9 / np.sqrt(grid05.h))
    assert frac <= bound


def test_quasimode_overlap(grid05, phase_a_left, onewell05):
    _, ow = onewell05
    q = pdwell.wkb_quasimode(grid05, phase_a_left)
    overlap = abs(grid05.dx * np.sum(q.vector * np.conj(ow[0].vector)))
    assert overlap >= 1.0 - 2.0*np.sqrt(grid05.h)
    assert overlap > 0.999


def test_quantization_condition_consistency(model_a, phase_a_left, consts_a):
    denom = consts_a.a2 * np.sqrt(2.0/consts_a.a2) * consts_a.kappa
    for n in (1, 2, 3):
        lam3 = (2*n - 1) * consts_a.c0
        assert abs(lam3/denom - 0.5 - (n - 1)) < 1e-10


def _transport_samples():
    return np.concatenate([np.linspace(-1.8, -1.05, 40),
                           np.linspace(-0.95, -0.2, 40)])


def test_transport_residual_small(model_b, phase_a_left, transport_residual):
    xs = _transport_samples()
    assert transport_residual(phase_a_left, xs) <= 1e-6
    seal_b = pdwell.sealing_function(model_b)
    phase_b = pdwell.agmon_phase(model_b, seal_b)
    assert transport_residual(phase_b, xs) <= 1e-6


def test_transport_well_ball_excluded(phase_a_left, transport_residual):
    with pytest.raises(ConfigurationError):
        transport_residual(phase_a_left, np.array([-1.0005]))


def test_transport_rejects_non_solution(model_a, phase_a_left, consts_a,
                                        phase_derivatives):
    # evaluate the transport operator on u == 1 by hand: with u' = 0 and
    # d_xi b = 0 only the (a2/2) Phi'' u - c0 u term survives
    xs = _transport_samples()
    _, second = phase_derivatives(phase_a_left)
    resid = np.abs(0.5 * consts_a.a2 * second(xs) - consts_a.c0)
    assert np.max(resid) >= 0.1 * consts_a.c0


def test_transport_operator_linearity(model_a, phase_a_left, consts_a,
                                      phase_derivatives):
    xs = _transport_samples()
    u = phase_a_left.amplitude(xs)
    _, second = phase_derivatives(phase_a_left)

    def op(vec):
        return 0.5 * consts_a.a2 * second(xs) * vec - consts_a.c0 * vec

    assert np.allclose(op(2.0*u), 2.0*op(u), rtol=0, atol=1e-15)


def test_quasimode_residual_scale(grid05, phase_a_left, onewell05):
    M_ow, ow = onewell05
    q = pdwell.wkb_quasimode(grid05, phase_a_left)
    resid = pdwell.quasimode_residual(M_ow, q)
    assert resid <= 2.0 * grid05.h**2

    exact = dataclasses.replace(q, vector=ow[0].vector, lambda_wkb=ow[0].value,
                                norm_raw=1.0)
    assert pdwell.quasimode_residual(M_ow, exact) <= 1e-10


def test_quasimode_residual_shape_error(model_a, grid05, phase_a_left, onewell05):
    M_ow, _ = onewell05
    bad = pdwell.WkbQuasimode(vector=np.zeros(16), lambda_wkb=0.0,
                              norm_raw=1.0, phi=np.zeros(16), amplitude=np.ones(16))
    with pytest.raises(ConfigurationError):
        pdwell.quasimode_residual(M_ow, bad)


def test_quasimode_residual_decreases_with_h(sweep_report):
    resid = [r["wkb_residual"] for r in sweep_report.rows]
    assert all(np.isfinite(resid))
    assert all(b < a for a, b in zip(resid, resid[1:]))
