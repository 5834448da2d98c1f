"""Symbol models, assumption checks, and derived scalar constants.

The operator under study is built from a pair of real symbols: a principal
part a(xi) with a nondegenerate minimum at xi = 0 and positive far field,
and a subprincipal part b(x, xi) whose restriction V = b(., 0) is an even
double well with nondegenerate zeros at +-x_well. Everything downstream
(quantization, WKB machinery, splitting predictions) consumes either the
raw evaluators or the scalar constants extracted here:

    a2    = a''(0)
    V2    = d^2/dx^2 b(x, 0) at x_left
    c0    = sqrt(a2 * V2 / 4)          harmonic ground frequency
    kappa = (sqrt V)'(x_left)           smooth-branch slope at the well
    S     = sqrt(2/a2) * int sqrt(V)    inter-well Agmon action
    A     = splitting prefactor of the one-term gap formula

Custom symbol pairs can be parsed from a restricted expression grammar
(polynomial / rational in x and xi); see `parse_symbol`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import ConfigurationError, EvaluationError, NumericError

__all__ = [
    "SymbolA", "SymbolB", "Model", "ModelConstants",
    "ValidationConfig", "ValidationReport",
    "builtin_model", "validate_model", "derived_constants",
    "parse_symbol", "custom_model",
]


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass
class SymbolA:
    """Principal symbol a(xi), even, vanishing to second order at 0."""
    evaluator: Callable[[np.ndarray], np.ndarray]
    second_derivative_at_zero: float

    def __call__(self, xi):
        return self.evaluator(xi)


@dataclass
class SymbolB:
    """Subprincipal symbol b(x, xi) together with its xi-derivative."""
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    xi_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # True when b(x, xi) does not depend on xi; unlocks the exact split
    # assembly path in quantize.assemble_L.
    xi_independent: bool = False

    def __call__(self, x, xi):
        return self.evaluator(x, xi)


@dataclass
class Model:
    a: SymbolA
    b: SymbolB
    x_left: float
    x_right: float
    name: str = "custom"
    _constants: Optional["ModelConstants"] = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.x_right > 0 and abs(self.x_right + self.x_left) < 1e-14):
            raise ConfigurationError(
                "wells must satisfy x_right = -x_left > 0, got "
                f"({self.x_left}, {self.x_right})")

    def potential(self, x):
        """V(x) = b(x, 0)."""
        return self.b(np.asarray(x, dtype=float), 0.0)


@dataclass(frozen=True)
class ModelConstants:
    a2: float
    V2: float
    c0: float
    kappa: float
    S: float
    A: float
    b_inf: float
    V0: float
    # regularized prefactor integral int_{x_left}^0 (d_s sqrt V - kappa)/sqrt V ds;
    # kept so the interaction asymptotics can be evaluated from its own closed
    # form instead of back-solving A.
    prefactor_integral: float = 0.0


@dataclass(frozen=True)
class ValidationConfig:
    window: float = 5.0          # half-width of the symmetry sampling window
    n_samples: int = 201
    zero_tol: float = 1e-9       # how exactly the wells must vanish
    sym_tol: float = 1e-11       # evenness, relative to sampled scale
    nondegeneracy_min: float = 1e-6
    far_min: float = 1e-3        # positive floor for far-field values
    xi_far: float = 5.0
    bound_max: float = 1e3       # symbol boundedness ceiling on samples
    well_margin: float = 0.2     # exclusion radius around the wells


@dataclass
class ValidationReport:
    checks: dict
    details: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self):
        for name in self.checks:
            status = "pass" if self.checks[name] else "FAIL"
            yield f"{name}: {status} ({self.details.get(name, '')})"


# --------------------------------------------------------------------------
# finite-difference helpers
# --------------------------------------------------------------------------

def _finite(vals, where):
    vals = np.asarray(vals, dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.asarray(where)[~np.isfinite(vals).ravel()][0]
        raise EvaluationError(f"non-finite symbol value at {bad}")
    return vals


def _fd2(f, x0, d):
    # 5-point centered second derivative, O(d^4)
    return (-f(x0 + 2*d) + 16*f(x0 + d) - 30*f(x0)
            + 16*f(x0 - d) - f(x0 - 2*d)) / (12*d*d)


def _richardson(stencil, f, x0, d, levels):
    # the 5-point stencils carry even error expansions d^4, d^6, d^8, ...
    vals = [stencil(f, x0, d / 2**i) for i in range(levels + 1)]
    for k in range(1, levels + 1):
        fac = 2.0 ** (2*k + 2)
        vals = [(fac*hi - lo) / (fac - 1.0) for lo, hi in zip(vals, vals[1:])]
    return vals[0]


def _fd2_richardson(f, x0, d=0.1, levels=3):
    """Second derivative, Richardson-extrapolated 5-point stencil."""
    return _richardson(_fd2, f, x0, d, levels)


def _fd1(f, x0, d):
    # 5-point centered first derivative, O(d^4)
    return (-f(x0 + 2*d) + 8*f(x0 + d) - 8*f(x0 - d) + f(x0 - 2*d)) / (12*d)


def _fd1_richardson(f, x0, d=0.02, levels=3):
    return _richardson(_fd1, f, x0, d, levels)


# --------------------------------------------------------------------------
# built-in models
# --------------------------------------------------------------------------

def _a_reference(xi):
    xl = np.asarray(xi, dtype=float)
    return xl*xl / (1.0 + xl*xl)


def _quartic_well(x):
    xl = np.asarray(x, dtype=float)
    return (xl*xl - 1.0)**2 / (1.0 + xl**4)


def builtin_model(name: str, eps: float = 0.2) -> Model:
    """Return one of the two reference models.

    ModelA pairs a(xi) = xi^2/(1+xi^2) with b(x, xi) = V(x),
    V(x) = (x^2-1)^2/(1+x^4), wells at +-1. ModelB adds the even coupling
    eps * x*xi / ((1+x^2)(1+xi^2)) which vanishes on the xi = 0 axis but
    makes d_xi b(x, 0) nonzero, exercising the complex amplitude phase.
    """
    if name == "ModelA":
        b = SymbolB(
            evaluator=lambda x, xi: _quartic_well(x) + 0.0*np.asarray(xi, dtype=float),
            xi_derivative=lambda x, xi: np.zeros(np.broadcast(
                np.asarray(x, dtype=float), np.asarray(xi, dtype=float)).shape),
            xi_independent=True)
        return Model(a=SymbolA(_a_reference, 2.0), b=b,
                     x_left=-1.0, x_right=1.0, name="ModelA")
    if name == "ModelB":
        if not 0.0 <= eps <= 1.0:
            raise ConfigurationError(f"ModelB coupling eps must be in [0, 1], got {eps}")

        def b_eval(x, xi):
            x = np.asarray(x, dtype=float)
            xi = np.asarray(xi, dtype=float)
            return _quartic_well(x) + eps*x*xi/((1.0 + x*x)*(1.0 + xi*xi))

        def b_dxi(x, xi):
            x = np.asarray(x, dtype=float)
            xi = np.asarray(xi, dtype=float)
            return eps*x/(1.0 + x*x) * (1.0 - xi*xi)/(1.0 + xi*xi)**2

        return Model(a=SymbolA(_a_reference, 2.0),
                     b=SymbolB(b_eval, b_dxi, xi_independent=(eps == 0.0)),
                     x_left=-1.0, x_right=1.0, name="ModelB")
    raise ConfigurationError(f"unknown model name {name!r}; expected ModelA or ModelB")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate_model(m: Model, tolerances: ValidationConfig | None = None) -> ValidationReport:
    """Check the standing assumptions numerically and report per-check results."""
    cfg = tolerances or ValidationConfig()
    checks, details = {}, {}

    xi = np.linspace(-cfg.window, cfg.window, cfg.n_samples)
    a_vals = _finite(m.a(xi), xi)
    a0 = float(m.a(np.array(0.0)))
    scale_a = max(np.max(np.abs(a_vals)), 1.0)

    checks["a_min_zero"] = abs(a0) <= cfg.zero_tol
    details["a_min_zero"] = f"a(0)={a0:.3e}"

    # minimum must not recur: a strictly positive away from the origin
    xi_away = np.concatenate([np.linspace(0.5, 4*cfg.xi_far, 1000),
                              -np.linspace(0.5, 4*cfg.xi_far, 1000)])
    away = _finite(m.a(xi_away), xi_away)
    checks["a_min_unique"] = bool(np.min(away) > cfg.nondegeneracy_min)
    details["a_min_unique"] = f"min off-origin a={np.min(away):.3e}"

    checks["a_even"] = bool(np.max(np.abs(a_vals - a_vals[::-1])) <= cfg.sym_tol*scale_a)
    details["a_even"] = f"max asym={np.max(np.abs(a_vals - a_vals[::-1])):.3e}"

    a2 = float(_fd2_richardson(m.a, 0.0))
    checks["a_nondegenerate"] = a2 > cfg.nondegeneracy_min
    details["a_nondegenerate"] = f"a''(0)={a2:.6f}"

    xi_ff = np.linspace(cfg.xi_far, 10*cfg.xi_far, 500)
    ff = np.minimum(_finite(m.a(xi_ff), xi_ff), _finite(m.a(-xi_ff), xi_ff))
    checks["a_far_field"] = bool(np.min(ff) > cfg.far_min)
    details["a_far_field"] = f"inf |xi|>={cfg.xi_far}: {np.min(ff):.4f}"

    xs = np.linspace(-cfg.window, cfg.window, cfg.n_samples)
    X, XI = np.meshgrid(xs, xi, indexing="ij")
    b_vals = _finite(m.b(X, XI), np.stack([X, XI], axis=-1).reshape(-1, 2))
    b_flip = m.b(-X, -XI)
    scale_b = max(np.max(np.abs(b_vals)), 1.0)
    checks["b_even"] = bool(np.max(np.abs(b_vals - b_flip)) <= cfg.sym_tol*scale_b)
    details["b_even"] = f"max |b(X)-b(-X)|={np.max(np.abs(b_vals - b_flip)):.3e}"

    v_axis = _finite(m.potential(xs), xs)
    checks["b_nonneg_on_axis"] = bool(np.min(v_axis) >= -cfg.zero_tol)
    details["b_nonneg_on_axis"] = f"min V={np.min(v_axis):.3e}"

    v_l = float(m.potential(np.array(m.x_left)))
    v_r = float(m.potential(np.array(m.x_right)))
    off_wells = xs[(np.abs(xs - m.x_left) > cfg.well_margin)
                   & (np.abs(xs - m.x_right) > cfg.well_margin)]
    floor = float(np.min(m.potential(off_wells)))
    checks["b_two_zeros"] = (abs(v_l) <= cfg.zero_tol and abs(v_r) <= cfg.zero_tol
                             and floor > cfg.nondegeneracy_min)
    details["b_two_zeros"] = f"V(x_l)={v_l:.2e} V(x_r)={v_r:.2e} off-well floor={floor:.3e}"

    V2 = float(_fd2_richardson(lambda t: m.potential(t), m.x_left, d=0.05))
    checks["b_nondegenerate"] = V2 > cfg.nondegeneracy_min
    details["b_nondegenerate"] = f"V''(x_l)={V2:.6f}"

    x_ff = np.linspace(5.0, 50.0, 500)
    b_ff = np.concatenate([_finite(m.potential(x_ff), x_ff),
                           _finite(m.potential(-x_ff), x_ff)])
    checks["b_far_field"] = bool(np.min(b_ff) > cfg.far_min)
    details["b_far_field"] = f"b_inf estimate={float(np.mean(b_ff)):.4f}"

    wide = np.linspace(-50.0, 50.0, 501)
    b_wide = np.abs(_finite(m.potential(wide), wide))
    checks["b_bounded"] = bool(np.max(b_wide) <= cfg.bound_max)
    details["b_bounded"] = f"max |b(x,0)| on [-50,50]: {np.max(b_wide):.3e}"

    return ValidationReport(checks=checks, details=details)


# --------------------------------------------------------------------------
# derived constants
# --------------------------------------------------------------------------

def _smooth_branch(m: Model):
    """s -> sgn(s - x_left) sqrt(V(s)), the smooth branch through the left well."""
    def w(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s - m.x_left) * np.sqrt(np.maximum(m.potential(s), 0.0))
    return w


def action_integral(m: Model, epsabs: float = 1e-13, limit: int = 200):
    """S = sqrt(2/a2) int_{x_l}^{x_r} sqrt(V), with the quadrature error estimate."""
    a2 = float(_fd2_richardson(m.a, 0.0))
    val, err = quad(lambda s: np.sqrt(max(float(m.potential(np.array(s))), 0.0)),
                    m.x_left, m.x_right, epsabs=epsabs, epsrel=epsabs, limit=limit)
    return np.sqrt(2.0/a2) * val, np.sqrt(2.0/a2) * err


def derived_constants(m: Model) -> ModelConstants:
    """Extract all scalar constants used by the splitting formulas.

    Second derivatives come from Richardson-extrapolated centered stencils,
    kappa from differentiating the smooth branch sgn(x - x_l) sqrt(V) at the
    well, S from adaptive quadrature, and the prefactor A from the regularized
    integral of (d_s sqrt(V) - kappa)/sqrt(V) over (x_left, 0).
    """
    if m._constants is not None:
        return m._constants

    a2 = float(_fd2_richardson(m.a, 0.0))
    V2 = float(_fd2_richardson(lambda t: m.potential(t), m.x_left, d=0.05))
    c0 = float(np.sqrt(a2 * V2 / 4.0))
    w = _smooth_branch(m)
    kappa = float(_fd1_richardson(w, m.x_left))
    V0 = float(m.potential(np.array(0.0)))

    S, S_err = action_integral(m)
    if S_err > 1e-10 * max(1.0, abs(S)):
        raise NumericError(f"action quadrature did not converge: abserr={S_err:.3e}")

    # regularized integrand (w' - kappa)/w; the singularity at x_left is
    # removable with limit w''(x_l)/kappa, substituted below 1e-4
    lim = float(_fd2_richardson(w, m.x_left, d=1e-3)) / kappa

    def integrand(s):
        if abs(s - m.x_left) < 1e-4:
            return lim
        ws = float(w(np.array(s)))
        dws = float(_fd1(w, s, 1e-4))
        return (dws - kappa) / ws

    I_A, I_err = quad(integrand, m.x_left, 0.0,
                      points=[m.x_left + 1e-4], epsabs=1e-12, epsrel=1e-12, limit=200)
    if I_err > 1e-8:
        raise NumericError(f"prefactor quadrature did not converge: abserr={I_err:.3e}")

    A = 4.0 * (a2/2.0)**0.25 * np.sqrt(V0) * np.sqrt(kappa/np.pi) * np.exp(-I_A)

    x_ff = np.linspace(5.0, 50.0, 500)
    b_inf = float(np.mean(np.concatenate([m.potential(x_ff), m.potential(-x_ff)])))

    consts = ModelConstants(a2=a2, V2=V2, c0=c0, kappa=kappa, S=float(S),
                            A=float(A), b_inf=b_inf, V0=V0,
                            prefactor_integral=float(I_A))
    m._constants = consts
    return consts


# --------------------------------------------------------------------------
# expression parser for custom models
# --------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _check_node(node, names):
    if isinstance(node, ast.Expression):
        _check_node(node.body, names)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ConfigurationError(f"operator {type(node.op).__name__} not allowed")
        if isinstance(node.op, ast.Pow):
            exp = node.right
            if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)):
                raise ConfigurationError("exponents must be integer literals")
        _check_node(node.left, names)
        _check_node(node.right, names)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ConfigurationError(f"operator {type(node.op).__name__} not allowed")
        _check_node(node.operand, names)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigurationError(f"constant {node.value!r} not allowed")
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise ConfigurationError(f"unknown variable {node.id!r}")
    else:
        raise ConfigurationError(f"syntax element {type(node).__name__} not allowed")


def _parse(expr: str) -> ast.Expression:
    try:
        return ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError) as exc:
        # SyntaxError.msg leaves out the "(<unknown>, line 1)" locator
        detail = getattr(exc, "msg", exc)
        raise ConfigurationError(f"malformed expression {expr!r}: {detail}") from None


def parse_symbol(expr: str, variables=("x", "xi")):
    """Compile a polynomial/rational expression into a vectorized evaluator.

    Only +, -, *, /, integer ** and the given variable names are accepted;
    anything else (calls, attributes, subscripts, malformed syntax) raises
    ConfigurationError.
    """
    tree = _parse(expr)
    _check_node(tree, set(variables))
    code = compile(tree, "<symbol>", "eval")

    def evaluator(*args):
        env = {name: np.asarray(arg, dtype=float)
               for name, arg in zip(variables, args)}
        return eval(code, {"__builtins__": {}}, env)

    evaluator.expression = expr
    return evaluator


def _free_names(expr: str):
    return {n.id for n in ast.walk(_parse(expr)) if isinstance(n, ast.Name)}


def custom_model(a_expr: str, b_expr: str, x_well: float, name: str = "custom") -> Model:
    """Build a Model from expression strings; derivatives fall back to stencils."""
    if not x_well > 0:
        raise ConfigurationError("x_well must be positive")
    a_raw = parse_symbol(a_expr, variables=("xi",))

    def a_eval(xi):
        return a_raw(xi) + 0.0*np.asarray(xi, dtype=float)

    a2 = float(_fd2_richardson(a_eval, 0.0))
    b_raw = parse_symbol(b_expr, variables=("x", "xi"))
    xi_indep = "xi" not in _free_names(b_expr)

    def b_eval(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return b_raw(x, xi) + 0.0*x + 0.0*xi

    def b_dxi(x, xi, _d=1e-4):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return (-b_eval(x, xi + 2*_d) + 8*b_eval(x, xi + _d)
                - 8*b_eval(x, xi - _d) + b_eval(x, xi - 2*_d)) / (12*_d)

    return Model(a=SymbolA(a_eval, a2),
                 b=SymbolB(b_eval, b_dxi, xi_independent=xi_indep),
                 x_left=-x_well, x_right=x_well, name=name)
