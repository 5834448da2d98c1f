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

from .errors import ConfigurationError, EvaluationError, NumericError

__all__ = [
    "SymbolB", "Model", "ModelConstants", "ValidationReport",
    "builtin_model", "validate_model", "derived_constants",
    "parse_symbol", "custom_model", "CumulativeIntegral",
]


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

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
    """Symbols a and b and the wells +-x_right; x_right > 0, so not nan."""
    # principal symbol a(xi), even, vanishing to second order at 0
    a: Callable[[np.ndarray], np.ndarray]
    b: SymbolB
    x_right: float
    # derived_constants' cache; not an init field, so dataclasses.replace
    # gives the new wells an empty cache instead of the old wells' constants
    _constants: Optional["ModelConstants"] = field(default=None, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        if not self.x_right > 0:
            raise ConfigurationError(f"the wells +-x_right need x_right > 0, got {self.x_right}")

    @property
    def x_left(self) -> float:
        return -self.x_right

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

def _finite(what: str, values, **axes) -> np.ndarray:
    """values as floats, or an EvaluationError naming the first non-finite point.

    axes maps each axis label, in the order of values' dimensions, to its nodes."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        point = ", ".join(f"{label}={nodes[i]}" for (label, nodes), i
                          in zip(axes.items(), np.argwhere(bad)[0]))
        raise EvaluationError(f"non-finite {what} value at {point}")
    return values


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


# --------------------------------------------------------------------------
# built-in models
# --------------------------------------------------------------------------

def _a_reference(xi):
    xl = np.asarray(xi, dtype=float)
    return xl*xl / (1.0 + xl*xl)


def _quartic_well(x):
    xl = np.asarray(x, dtype=float)
    x2 = xl*xl      # x2*x2, not xl**4: numpy squares fast but runs **4 through pow
    return (x2 - 1.0)**2 / (1.0 + x2*x2)


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
        return Model(a=_a_reference, b=b, x_right=1.0)
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

        return Model(a=_a_reference,
                     b=SymbolB(b_eval, b_dxi, xi_independent=(eps == 0.0)), x_right=1.0)
    raise ConfigurationError(f"unknown model name {name!r}; expected ModelA or ModelB")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_WINDOW = 5.0            # half-width of the symmetry sampling window
_N_SAMPLES = 201
_ZERO_TOL = 1e-9         # how exactly the wells must vanish
_SYM_TOL = 1e-11         # evenness, relative to sampled scale
_NONDEGENERACY_MIN = 1e-6
_FAR_MIN = 1e-3          # positive floor for far-field values
_XI_FAR = 5.0
_BOUND_MAX = 1e3         # symbol boundedness ceiling on samples
_WELL_MARGIN = 0.2       # exclusion radius around the wells


def validate_model(m: Model) -> ValidationReport:
    """Check the standing assumptions numerically, with the fixed tolerances
    above, and report per-check results."""
    checks, details = {}, {}

    xi = np.linspace(-_WINDOW, _WINDOW, _N_SAMPLES)
    a_vals = _finite("symbol a", m.a(xi), xi=xi)
    a0 = float(m.a(np.array(0.0)))
    scale_a = max(np.max(np.abs(a_vals)), 1.0)

    checks["a_min_zero"] = abs(a0) <= _ZERO_TOL
    details["a_min_zero"] = f"a(0)={a0:.3e}"

    # minimum must not recur: a strictly positive away from the origin
    xi_away = np.concatenate([np.linspace(0.5, 4*_XI_FAR, 1000),
                              -np.linspace(0.5, 4*_XI_FAR, 1000)])
    away = _finite("symbol a", m.a(xi_away), xi=xi_away)
    checks["a_min_unique"] = bool(np.min(away) > _NONDEGENERACY_MIN)
    details["a_min_unique"] = f"min off-origin a={np.min(away):.3e}"

    checks["a_even"] = bool(np.max(np.abs(a_vals - a_vals[::-1])) <= _SYM_TOL*scale_a)
    details["a_even"] = f"max asym={np.max(np.abs(a_vals - a_vals[::-1])):.3e}"

    a2 = float(_fd2_richardson(m.a, 0.0))
    checks["a_nondegenerate"] = a2 > _NONDEGENERACY_MIN
    details["a_nondegenerate"] = f"a''(0)={a2:.6f}"

    xi_ff = np.linspace(_XI_FAR, 10*_XI_FAR, 500)
    ff = np.minimum(_finite("symbol a", m.a(xi_ff), xi=xi_ff),
                    _finite("symbol a", m.a(-xi_ff), xi=-xi_ff))
    checks["a_far_field"] = bool(np.min(ff) > _FAR_MIN)
    details["a_far_field"] = f"inf |xi|>={_XI_FAR}: {np.min(ff):.4f}"

    xs = np.linspace(-_WINDOW, _WINDOW, _N_SAMPLES)
    X, XI = np.meshgrid(xs, xi, indexing="ij")
    b_vals = _finite("symbol b", m.b(X, XI), x=xs, xi=xi)
    b_flip = m.b(-X, -XI)
    scale_b = max(np.max(np.abs(b_vals)), 1.0)
    checks["b_even"] = bool(np.max(np.abs(b_vals - b_flip)) <= _SYM_TOL*scale_b)
    details["b_even"] = f"max |b(X)-b(-X)|={np.max(np.abs(b_vals - b_flip)):.3e}"

    v_axis = _finite("potential", m.potential(xs), x=xs)
    checks["b_nonneg_on_axis"] = bool(np.min(v_axis) >= -_ZERO_TOL)
    details["b_nonneg_on_axis"] = f"min V={np.min(v_axis):.3e}"

    v_l = float(m.potential(np.array(m.x_left)))
    v_r = float(m.potential(np.array(m.x_right)))
    off_wells = xs[(np.abs(xs - m.x_left) > _WELL_MARGIN)
                   & (np.abs(xs - m.x_right) > _WELL_MARGIN)]
    floor = float(np.min(m.potential(off_wells)))
    checks["b_two_zeros"] = (abs(v_l) <= _ZERO_TOL and abs(v_r) <= _ZERO_TOL
                             and floor > _NONDEGENERACY_MIN)
    details["b_two_zeros"] = f"V(x_l)={v_l:.2e} V(x_r)={v_r:.2e} off-well floor={floor:.3e}"

    V2 = float(_fd2_richardson(lambda t: m.potential(t), m.x_left, d=0.05))
    checks["b_nondegenerate"] = V2 > _NONDEGENERACY_MIN
    details["b_nondegenerate"] = f"V''(x_l)={V2:.6f}"

    x_ff = np.linspace(5.0, 50.0, 500)
    b_ff = np.concatenate([_finite("potential", m.potential(x_ff), x=x_ff),
                           _finite("potential", m.potential(-x_ff), x=-x_ff)])
    checks["b_far_field"] = bool(np.min(b_ff) > _FAR_MIN)
    details["b_far_field"] = f"inf |x|>={x_ff[0]}: {np.min(b_ff):.4f}"

    wide = np.linspace(-50.0, 50.0, 501)
    b_wide = np.abs(_finite("potential", m.potential(wide), x=wide))
    checks["b_bounded"] = bool(np.max(b_wide) <= _BOUND_MAX)
    details["b_bounded"] = f"max |b(x,0)| on [-50,50]: {np.max(b_wide):.3e}"

    return ValidationReport(checks=checks, details=details)


# --------------------------------------------------------------------------
# derived constants
# --------------------------------------------------------------------------

def smooth_branch(landscape, x0):
    """s -> sgn(s - x0) sqrt(max(landscape(s), 0)), the branch of the root
    of a landscape vanishing quadratically at x0 that is smooth through x0."""
    def w(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s - x0) * np.sqrt(np.maximum(landscape(s), 0.0))
    return w


# cells per integrand call while a CumulativeIntegral is built
_BLOCK_CELLS = 256


class CumulativeIntegral:
    """Cumulative integral x -> int_anchor^x f, cached on a uniform cell grid.

    Cell sums use n_gauss-point Gauss-Legendre and add up outward from the
    edge nearest anchor (default lo), so the span sets cost, never values. A
    query strictly inside a cell adds the partial cell by the same rule; only
    such queries evaluate f. Queries on an edge, or past lo or hi, read the
    cached sum there. Works for real or complex f; a 0-d query gives a scalar.
    """

    def __init__(self, f, lo: float, hi: float, n_cells: int, n_gauss: int = 16, anchor=None):
        nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
        self.f = f
        self.lo, self.hi = float(lo), float(hi)
        self.width = (hi - lo) / n_cells
        self.edges = lo + self.width * np.arange(n_cells + 1)
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        xs = mids[:, None] + 0.5 * self.width * nodes[None, :]
        # f sees _BLOCK_CELLS cells at a time, which bounds its temporaries;
        # einsum, not @: numpy's @ would run a threaded BLAS gemv
        cell = np.concatenate([
            0.5 * self.width * np.einsum(
                "cg,g->c", np.asarray(f(block.ravel())).reshape(block.shape), weights)
            for block in np.split(xs, range(_BLOCK_CELLS, n_cells, _BLOCK_CELLS))])
        k = 0 if anchor is None else int(round((anchor - self.lo) / self.width))
        self.cum = np.concatenate([-np.cumsum(cell[:k][::-1])[::-1], [0], np.cumsum(cell[k:])])
        self.nodes, self.weights = nodes, weights
        self.cum -= self(np.array(self.lo if anchor is None else anchor))   # 0 on an edge

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.lo, self.hi).ravel()
        idx = np.minimum(((xc - self.lo) / self.width).astype(int),
                         len(self.edges) - 2)
        a = self.edges[idx]
        top = xc == self.hi
        idx[top] = len(self.cum) - 1
        out = self.cum[idx]
        inside = (xc != a) & ~top
        if inside.any():
            xc, a = xc[inside], a[inside]
            half = 0.5 * (xc - a)
            mid = 0.5 * (xc + a)
            xs = mid[:, None] + half[:, None] * self.nodes
            vals = np.asarray(self.f(xs.ravel())).reshape(xs.shape)
            out[inside] += half * np.einsum("...g,g->...", vals, self.weights)
        return out.reshape(x.shape)[()]


def _integral(f, lo: float, hi: float):
    """int_lo^hi f on 16 panels of 32 nodes, and its change from 8 panels."""
    fine, coarse = (float(CumulativeIntegral(f, lo, hi, n, 32).cum[-1]) for n in (16, 8))
    return fine, abs(fine - coarse)


def derived_constants(m: Model) -> ModelConstants:
    """Extract all scalar constants used by the splitting formulas.

    Second derivatives come from Richardson-extrapolated centered stencils,
    kappa from differentiating the smooth branch sgn(x - x_l) sqrt(V) at the
    well, S = sqrt(2/a2) int_{x_l}^{x_r} sqrt(V) from Gauss-Legendre panels,
    and the prefactor A from the regularized integral of (d_s sqrt(V) -
    kappa)/sqrt(V) over (x_left, 0); a quadrature error above its bound, or
    nan, raises NumericError.
    """
    if m._constants is not None:
        return m._constants

    a2 = float(_fd2_richardson(m.a, 0.0))
    V2 = float(_fd2_richardson(lambda t: m.potential(t), m.x_left, d=0.05))
    c0 = float(np.sqrt(a2 * V2 / 4.0))
    w = smooth_branch(m.potential, m.x_left)
    kappa = float(_richardson(_fd1, w, m.x_left, 0.02, 3))
    V_mid = float(m.potential(np.array(0.0)))   # V at the midpoint of the wells

    val, err = _integral(lambda s: np.sqrt(np.maximum(m.potential(s), 0.0)),
                         m.x_left, m.x_right)
    S, S_err = np.sqrt(2.0/a2) * val, np.sqrt(2.0/a2) * err
    # both gates read not (err <= bound), so a nan estimate raises too
    if not (S_err <= 1e-10 * max(1.0, abs(S))):
        raise NumericError(f"action quadrature did not converge: abserr={S_err:.3e}")

    # regularized integrand (w' - kappa)/w; the singularity at x_left is
    # removable, so on (x_left, x_left + 1e-4) it is its limit w''(x_l)/kappa
    I_A, I_err = _integral(lambda s: (_fd1(w, s, 1e-4) - kappa) / w(s),
                           m.x_left + 1e-4, 0.0)
    I_A += float(_fd2_richardson(w, m.x_left, d=1e-3)) / kappa * 1e-4
    if not (I_err <= 1e-8):
        raise NumericError(f"prefactor quadrature did not converge: abserr={I_err:.3e}")

    A = 4.0 * (a2/2.0)**0.25 * np.sqrt(V_mid) * np.sqrt(kappa/np.pi) * np.exp(-I_A)

    x_ff = np.linspace(5.0, 50.0, 500)
    b_inf = float(np.mean(np.concatenate([m.potential(x_ff), m.potential(-x_ff)])))

    consts = ModelConstants(a2=a2, V2=V2, c0=c0, kappa=kappa, S=float(S),
                            A=float(A), b_inf=b_inf)
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


class _FloatLiterals(ast.NodeTransformer):
    """Replace each numeric literal by a name bound to it as a float64."""

    def __init__(self):
        self.values = {}

    def visit_Constant(self, node):
        name = f"_c{len(self.values)}"
        self.values[name] = np.float64(node.value)
        return ast.copy_location(ast.Name(name, ast.Load()), node)


def parse_symbol(expr: str, variables=("x", "xi")):
    """Compile a polynomial/rational expression into a vectorized evaluator.

    Only +, -, *, /, integer ** and the given variable names are accepted;
    anything else (calls, attributes, subscripts, malformed syntax) raises
    ConfigurationError. Literals evaluate as float64, as x and xi do: 10**400
    is inf, never a Python big integer, and the caller reports it. From the
    one parse, the evaluator's .names holds the variables expr reads.
    """
    tree = _parse(expr)
    _check_node(tree, set(variables))
    names = frozenset(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    literals = _FloatLiterals()
    code = compile(literals.visit(tree), "<symbol>", "eval")
    scope = {"__builtins__": {}, **literals.values}

    def evaluator(*args):
        env = {name: np.asarray(arg, dtype=float)
               for name, arg in zip(variables, args)}
        with np.errstate(all="ignore"):
            return eval(code, scope, env)

    evaluator.names = names
    return evaluator


def custom_model(a_expr: str, b_expr: str, x_well: float) -> Model:
    """Build a Model from expression strings; derivatives fall back to stencils."""
    a_raw = parse_symbol(a_expr, variables=("xi",))

    def a_eval(xi):
        return a_raw(xi) + 0.0*np.asarray(xi, dtype=float)

    b_raw = parse_symbol(b_expr, variables=("x", "xi"))
    xi_indep = "xi" not in b_raw.names

    def b_eval(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return b_raw(x, xi) + 0.0*x + 0.0*xi

    def b_dxi(x, xi, _d=1e-4):
        return _fd1(lambda t: b_eval(x, t), np.asarray(xi, dtype=float), _d)

    return Model(a=a_eval, b=SymbolB(b_eval, b_dxi, xi_independent=xi_indep),
                 x_right=x_well)
