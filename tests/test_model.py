"""Symbol models, assumption validation, and derived constants."""

import numpy as np
import pytest
from scipy.integrate import quad

import pdwell
from pdwell import ConfigurationError, EvaluationError
from pdwell.model import SymbolA, SymbolB, Model

# quadrature/stencil truths for the reference double well, frozen from the
# closed forms (a2, V2, kappa analytically; S and the prefactor by quad)
A2_EXACT = 2.0
V2_EXACT = 4.0
KAPPA_EXACT = np.sqrt(2.0)
S_FROZEN = 1.2870742001039748
PREFACTOR_FROZEN = -0.2922172879262667
A_FROZEN = 3.5946028107109025


def test_builtin_wells_vanish(model_a):
    assert float(model_a.potential(np.array(-1.0))) == 0.0
    assert float(model_a.potential(np.array(1.0))) == 0.0


def test_builtin_limits(model_a, consts_a):
    assert float(model_a.a(np.array(0.0))) == 0.0
    assert abs(float(model_a.a(np.array(1e8))) - 1.0) < 1e-15
    assert abs(consts_a.b_inf - 1.0) < 0.01
    assert consts_a.V0 == 1.0


def test_modelb_eps_zero_reduces_to_modela(model_a, rng):
    mb0 = pdwell.builtin_model("ModelB", eps=0.0)
    x = rng.uniform(-5, 5, size=200)
    xi = rng.uniform(-5, 5, size=200)
    assert np.array_equal(mb0.b(x, xi), model_a.b(x, xi))
    assert mb0.b.xi_independent


def test_modelb_eps_out_of_range():
    with pytest.raises(ConfigurationError):
        pdwell.builtin_model("ModelB", eps=1.5)
    with pytest.raises(ConfigurationError):
        pdwell.builtin_model("ModelB", eps=-0.1)


def test_unknown_model_name():
    with pytest.raises(ConfigurationError):
        pdwell.builtin_model("ModelC")


def test_validate_builtin_models_pass(model_a, model_b):
    for m in (model_a, model_b):
        report = pdwell.validate_model(m)
        assert report.passed, list(report.lines())


def test_validate_cosine_fails_unique_minimum(model_a):
    # 1 - cos(xi) vanishes again at 2 pi k; expression grammar has no cos,
    # so the symbol is built directly
    m = Model(a=SymbolA(lambda xi: 1.0 - np.cos(np.asarray(xi, dtype=float)), 1.0),
              b=model_a.b, x_left=-1.0, x_right=1.0, name="cosine")
    report = pdwell.validate_model(m)
    assert not report.checks["a_min_unique"]
    assert not report.passed


def test_validate_unbounded_quartic_fails_bound():
    m = pdwell.custom_model("xi**2/(1+xi**2)", "(x**2-1)**2", 1.0)
    report = pdwell.validate_model(m)
    assert not report.checks["b_bounded"]
    assert report.checks["b_two_zeros"]


def test_validate_nonfinite_raises(model_a):
    def singular(x, xi):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0/(x - 2.0) + 0.0*np.asarray(xi, dtype=float)

    m = Model(a=model_a.a,
              b=SymbolB(singular, lambda x, xi: np.zeros(np.shape(x)), True),
              x_left=-1.0, x_right=1.0, name="singular")
    with pytest.raises(EvaluationError):
        pdwell.validate_model(m)


def test_derived_constants_closed_forms(consts_a):
    assert abs(consts_a.a2 - A2_EXACT) < 1e-9
    assert abs(consts_a.V2 - V2_EXACT) < 1e-9
    assert abs(consts_a.kappa - KAPPA_EXACT) < 1e-9
    assert abs(consts_a.c0 - np.sqrt(2.0)) < 1e-9
    # the action quadrature self-reports ~1e-10 accuracy; allow that slack
    # against the independently computed reference value
    assert abs(consts_a.S - S_FROZEN) < 5e-9
    assert abs(consts_a.prefactor_integral - PREFACTOR_FROZEN) < 5e-8
    assert abs(consts_a.A - A_FROZEN) < 1e-6
    assert consts_a.c0 > 0 and consts_a.S > 0 and consts_a.A > 0 and consts_a.b_inf > 0


def test_kappa_matches_branch_oracle(consts_a):
    # sqrt(V) = (1-x^2)/sqrt(1+x^4) inside the wells; differentiate at x = -1
    def branch(x):
        return (1.0 - x*x) / np.sqrt(1.0 + x**4)
    d = 1e-6
    oracle = (branch(-1.0 + d) - branch(-1.0 - d)) / (2*d)
    assert abs(consts_a.kappa - oracle) < 1e-8


def test_c0_internal_consistency(consts_a):
    assert abs(consts_a.c0 - np.sqrt(consts_a.a2 * consts_a.V2) / 2.0) < 1e-10


def test_action_invariant_under_refinement(model_a):
    coarse, _ = pdwell.action_integral(model_a, epsabs=1e-9)
    fine, err = pdwell.action_integral(model_a, epsabs=1e-13)
    assert abs(coarse - fine) < 1e-10 * abs(fine)
    assert err < 1e-10


def test_action_against_independent_quadrature(model_a, consts_a):
    val, _ = quad(lambda s: np.sqrt(max(float(model_a.potential(np.array(s))), 0.0)),
                  -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(consts_a.S - np.sqrt(2.0/consts_a.a2) * val) < 1e-12


def test_modelb_constants_equal_modela(consts_a, model_b):
    cb = pdwell.derived_constants(model_b)
    for name in ("a2", "V2", "c0", "kappa", "S", "A", "b_inf", "V0",
                 "prefactor_integral"):
        va, vb = getattr(consts_a, name), getattr(cb, name)
        assert abs(va - vb) <= 1e-12 * max(1.0, abs(va)), name


def test_modelb_evenness(model_b, rng):
    x = rng.uniform(-6, 6, size=500)
    xi = rng.uniform(-6, 6, size=500)
    d = np.abs(model_b.b(x, xi) - model_b.b(-x, -xi))
    assert np.max(d) < 1e-15


def test_modelb_xi_derivative_on_axis(model_b, rng):
    x = rng.uniform(-4, 4, size=100)
    d = 1e-5
    fd = (model_b.b(x, d) - model_b.b(x, -d)) / (2*d)
    assert np.max(np.abs(model_b.b.xi_derivative(x, 0.0) - fd)) < 1e-8
    assert np.max(np.abs(model_b.b.xi_derivative(x, 0.0)
                         - 0.2*x/(1.0 + x*x))) < 1e-12


def test_parse_symbol_rejects_bad_syntax():
    for expr in ("sin(x)", "x**2.5", "x + y", "__import__('os')",
                 "x.real", "x[0]", "lambda t: t", "(x**2-1", "x +* 2"):
        with pytest.raises(ConfigurationError):
            pdwell.parse_symbol(expr)


def test_parse_symbol_matches_closed_form(model_a, rng):
    f = pdwell.parse_symbol("xi**2/(1+xi**2)", variables=("xi",))
    xi = rng.uniform(-10, 10, size=300)
    assert np.max(np.abs(f(xi) - model_a.a(xi))) < 1e-15


def test_custom_model_roundtrip(model_a, consts_a):
    m = pdwell.custom_model("xi**2/(1+xi**2)", "(x**2-1)**2/(1+x**4)", 1.0)
    assert pdwell.validate_model(m).passed
    c = pdwell.derived_constants(m)
    assert abs(c.a2 - consts_a.a2) < 1e-9
    assert abs(c.S - consts_a.S) < 1e-10
    assert abs(c.A - consts_a.A) < 1e-6
    x = np.linspace(-3, 3, 101)
    assert np.max(np.abs(m.potential(x) - model_a.potential(x))) < 1e-15


def test_custom_model_xi_dependence_flag():
    assert pdwell.custom_model("xi**2", "(x**2-1)**2", 1.0).b.xi_independent
    m = pdwell.custom_model("xi**2", "(x**2-1)**2 + x*xi", 1.0)
    assert not m.b.xi_independent
    # stencil xi-derivative of the parsed b against the analytic one
    x = np.linspace(-2, 2, 41)
    assert np.max(np.abs(m.b.xi_derivative(x, 0.0) - x)) < 1e-9


def test_custom_model_bad_well():
    with pytest.raises(ConfigurationError):
        pdwell.custom_model("xi**2", "(x**2-1)**2", -1.0)


def test_model_well_symmetry_enforced(model_a):
    with pytest.raises(ConfigurationError):
        Model(a=model_a.a, b=model_a.b, x_left=-1.0, x_right=2.0)


def test_validation_report_lines(model_a):
    report = pdwell.validate_model(model_a)
    lines = list(report.lines())
    assert len(lines) == len(report.checks)
    assert all("pass" in line for line in lines)
