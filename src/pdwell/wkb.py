"""One-well sealing, Agmon phase, and the leading WKB quasimode.

The sealed operator closes the opposite well with a compactly supported
bump k so that the chosen well is the unique global minimum of
b(., 0) + k. Its ground state decays like exp(-Phi/sqrt(h)) with the
Agmon phase

    Phi(x) = sqrt(2/a''(0)) | int_well^x sqrt(b_sealed(s, 0)) ds |,

and the leading quasimode is h^(-1/8) chi(x) u(x) exp(-Phi(x)/sqrt(h))
with the amplitude u solving the first transport equation in closed form.
Phases and amplitudes are cached composite Gauss-Legendre cumulative
integrals, so evaluation at arbitrary points stays cheap and smooth.

Every smooth cutoff in the package (seal, phase truncation, quasimode
window, overlap cutoffs) is built from the single bump t -> exp(-1/(1-t^2))
by integration and rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError
from .model import Model, derived_constants
from .quantize import Grid, OperatorMatrix

__all__ = [
    "SealingFunction", "AgmonPhase", "WkbQuasimode",
    "bump", "smoothstep", "CumulativeIntegral",
    "sealing_function", "assemble_onewell", "agmon_phase",
    "leading_amplitude", "wkb_quasimode", "wkb_eigenvalue",
    "eikonal_residual", "transport_residual", "quasimode_residual",
]

# integration domain for all cached cumulative phases; comfortably contains
# the default grid window and the 3A support of every cutoff
_DOMAIN = 12.0
_CELLS = 6144

# the removable singularity of the amplitude integrand is replaced by its
# limit inside this radius around the well
_SING_RADIUS = 1e-4

# finite-difference steps for derivatives of the phase branch
_FD_STEP = 1e-3

# weights of the 8th-order centered first difference, offsets -4 .. 4
_FD8_COEFF = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0


# --------------------------------------------------------------------------
# quadrature and cutoff primitives
# --------------------------------------------------------------------------

class CumulativeIntegral:
    """Cumulative integral x -> int_lo^x f, cached on a uniform cell grid.

    Cell sums use 16-point Gauss-Legendre; a query adds the partial-cell
    contribution with the same rule. Works for real or complex f. Queries
    are clipped to [lo, hi], which extends the result by constants.
    """

    def __init__(self, f, lo: float, hi: float, n_cells: int, n_gauss: int = 16):
        nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
        self.f = f
        self.lo, self.hi = float(lo), float(hi)
        self.width = (hi - lo) / n_cells
        self.edges = lo + self.width * np.arange(n_cells + 1)
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        xs = mids[:, None] + 0.5 * self.width * nodes[None, :]
        vals = np.asarray(f(xs.ravel())).reshape(n_cells, n_gauss)
        cell = 0.5 * self.width * (vals @ weights)
        self.cum = np.concatenate([np.zeros(1, dtype=cell.dtype), np.cumsum(cell)])
        self.nodes, self.weights = nodes, weights

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, self.lo, self.hi)
        idx = np.minimum(((xc - self.lo) / self.width).astype(int),
                         len(self.edges) - 2)
        a = self.edges[idx]
        half = 0.5 * (xc - a)
        mid = 0.5 * (xc + a)
        xs = mid[..., None] + half[..., None] * self.nodes
        vals = np.asarray(self.f(xs.ravel())).reshape(xs.shape)
        return self.cum[idx] + half * (vals @ self.weights)


def bump(t):
    """The compact C-infinity bump exp(-1/(1-t^2)) on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


_STEP_CUM: Optional[CumulativeIntegral] = None
_STEP_MASS: float = 0.0


def smoothstep(t):
    """Monotone C-infinity ramp: 0 for t <= -1, 1 for t >= 1."""
    global _STEP_CUM, _STEP_MASS
    if _STEP_CUM is None:
        _STEP_CUM = CumulativeIntegral(bump, -1.0, 1.0, 256)
        _STEP_MASS = float(_STEP_CUM.cum[-1])
    return _STEP_CUM(t) / _STEP_MASS


# --------------------------------------------------------------------------
# sealing
# --------------------------------------------------------------------------

@dataclass
class SealingFunction:
    """Nonnegative bump k closing the right well; k(-x) closes the left one."""
    evaluator: Callable[[np.ndarray], np.ndarray]
    support: tuple
    height: float
    eta: float


def sealing_function(m: Model, eta: float = 0.4, height: float | None = None) -> SealingFunction:
    """Bump k(x) = height * exp(-1/(1-t^2)), t = (x - x_r)/eta.

    Post-validates that b(., 0) + k has a unique global minimum at x_left:
    the sealed landscape must exceed its value at x_left everywhere outside
    a small ball around x_left.
    """
    if not 0.0 < eta < m.x_right:
        raise ConfigurationError(f"seal width must be in (0, {m.x_right}), got {eta}")
    if height is None:
        height = 2.0 * float(m.potential(np.array(0.0)))
    if height <= 0:
        raise ConfigurationError(f"seal height must be positive, got {height}")
    x_r, hgt, w = m.x_right, float(height), float(eta)

    def k(x):
        return hgt * bump((np.asarray(x, dtype=float) - x_r) / w)

    xs = np.linspace(-6.0, 6.0, 4001)
    landscape = np.asarray(m.potential(xs), dtype=float) + k(xs)
    level = float(m.potential(np.array(m.x_left))) + float(k(np.array(m.x_left)))
    away = np.abs(xs - m.x_left) > 0.02
    idx = np.nonzero(away)[0]
    i = int(idx[np.argmin(landscape[idx])])
    floor = float(landscape[i])
    # a competing minimum sitting between nodes samples as O(dx^2) above its
    # true level; refine the sampled floor through the parabola vertex
    if 0 < i < len(xs) - 1:
        y0, y1, y2 = landscape[i - 1:i + 2]
        denom = y0 - 2.0 * y1 + y2
        if denom > 0:
            step = float(np.clip(0.5 * (y0 - y2) / denom, -1.0, 1.0))
            x_star = xs[i] + step * (xs[1] - xs[0])
            if abs(x_star - m.x_left) > 0.02:
                refined = float(m.potential(np.array(x_star))) + float(k(np.array(x_star)))
                floor = min(floor, refined)
    if floor <= level + 1e-9:
        raise ConfigurationError(
            f"sealed landscape has a competing minimum at level {floor:.3e} "
            f"(well level {level:.3e}); increase the seal height above {hgt}")
    return SealingFunction(evaluator=k, support=(x_r - w, x_r + w), height=hgt, eta=w)


def assemble_onewell(M: OperatorMatrix, side: str, seal: SealingFunction) -> OperatorMatrix:
    """Matrix of the sealed operator: the assembled L_h plus h * diag(k).

    M is left unchanged. The seal enters at order h because it perturbs the
    subprincipal symbol. side = "right" reflects the bump, sealing the left
    well instead.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    g = M.grid
    x = g.x_nodes if side == "left" else -g.x_nodes
    entries = M.entries.copy()
    entries[np.diag_indices_from(entries)] += g.h * seal.evaluator(x)
    return OperatorMatrix(entries=entries,
                          hermiticity_defect=M.hermiticity_defect,
                          grid=g, defect_warning=M.defect_warning)


# --------------------------------------------------------------------------
# Agmon phase
# --------------------------------------------------------------------------

@dataclass
class AgmonPhase:
    side: str
    evaluator: Callable          # Phi
    truncated_evaluator: Callable  # Phi~, constant outside [-2A, 2A]
    A_window: float
    derivative: Callable         # Phi' = sqrt(2/a2) * branch, analytic
    second_derivative: Callable  # Phi'' by differentiating the branch
    second_at_well: float        # Phi''(x_well) from the eikonal identity
    x_well: float
    model: Model = field(repr=False, default=None)
    seal: SealingFunction = field(repr=False, default=None)
    _amplitude: Optional["_Amplitude"] = field(repr=False, default=None)


def _sealed_branch(m: Model, seal: SealingFunction, side: str):
    """s -> sgn(s - x_well) sqrt(b_sealed(s, 0)), smooth through the well."""
    x_well = m.x_left if side == "left" else m.x_right

    def k_side(x):
        return seal.evaluator(x) if side == "left" else seal.evaluator(-x)

    def g(s):
        s = np.asarray(s, dtype=float)
        land = np.asarray(m.potential(s), dtype=float) + k_side(s)
        return np.sign(s - x_well) * np.sqrt(np.maximum(land, 0.0))

    return g, x_well


def agmon_phase(m: Model, seal: SealingFunction, side: str = "left") -> AgmonPhase:
    """Phase Phi, its truncation Phi~, and the window constant A.

    A is the smallest half-width such that Phi exceeds Phi at the opposite
    well outside [-A, A]; the truncation multiplies Phi' by a smooth cutoff
    equal to 1 on [-A, A] and 0 outside [-2A, 2A] before integrating.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    consts = derived_constants(m)
    pref = np.sqrt(2.0 / consts.a2)
    g, x_well = _sealed_branch(m, seal, side)

    cum = CumulativeIntegral(g, -_DOMAIN, _DOMAIN, _CELLS)
    anchor = cum(np.array(x_well))

    def phi(x):
        return pref * (cum(x) - anchor)

    def phi_prime(x):
        return pref * g(x)

    def phi_second(x, d=_FD_STEP):
        x = np.asarray(x, dtype=float)
        return pref * (-g(x + 2*d) + 8*g(x + d) - 8*g(x - d) + g(x - 2*d)) / (12*d)

    # A_window: Phi is monotone on each side of the well, so the binding
    # constraint is the far branch reaching Phi(opposite well); the near
    # branch only forces A >= |x_opposite|.
    x_opp = m.x_right if side == "left" else m.x_left
    target = float(phi(np.array(x_opp)))
    if side == "left":
        root = brentq(lambda t: float(phi(np.array(t))) - target, -_DOMAIN, x_well)
    else:
        root = brentq(lambda t: float(phi(np.array(t))) - target, x_well, _DOMAIN)
    A = max(abs(x_opp), abs(root))

    def chi0(s):
        s = np.asarray(s, dtype=float)
        return smoothstep(2.0*s/A + 3.0) * smoothstep(3.0 - 2.0*s/A)

    cum_trunc = CumulativeIntegral(lambda s: chi0(s) * phi_prime(s),
                                   -_DOMAIN, _DOMAIN, _CELLS)
    anchor_trunc = cum_trunc(np.array(x_well))

    def phi_trunc(x):
        return cum_trunc(x) - anchor_trunc

    return AgmonPhase(side=side, evaluator=phi, truncated_evaluator=phi_trunc,
                      A_window=float(A), derivative=phi_prime,
                      second_derivative=phi_second,
                      second_at_well=float(pref * consts.kappa),
                      x_well=x_well, model=m, seal=seal)


# --------------------------------------------------------------------------
# amplitude and quasimode
# --------------------------------------------------------------------------

class _Amplitude:
    """Leading transport solution u_{1,0} as a cached cumulative integral.

    u(x) = (Phi''(well)/pi)^(1/4) * exp(-I(x)) with
    I(x) = int_well^x [ (Phi''(s) - Phi''(well)) / (2 Phi'(s))
                        + (i/a''(0)) d_xi b(s, 0) ] ds.
    The first term has a removable singularity at the well; inside a small
    ball it is replaced by its limit Phi'''(well)/(2 Phi''(well)), where
    Phi''' comes from a centered second-derivative stencil of the branch.
    """

    def __init__(self, m: Model, phase: AgmonPhase):
        consts = derived_constants(m)
        a2 = consts.a2
        well = phase.x_well
        pp_well = phase.second_at_well
        d = _FD_STEP
        g_branch, _ = _sealed_branch(m, phase.seal, phase.side)
        # Phi''' = sqrt(2/a2) g''(well)
        ppp_well = float(np.sqrt(2.0/a2) * (
            -g_branch(well + 2*d) + 16*g_branch(well + d) - 30*g_branch(well)
            + 16*g_branch(well - d) - g_branch(well - 2*d)) / (12*d*d))
        self.limit = ppp_well / (2.0 * pp_well)
        self.prefactor = (pp_well / np.pi) ** 0.25

        def integrand(s):
            s = np.asarray(s, dtype=float)
            near = np.abs(s - well) < _SING_RADIUS
            with np.errstate(divide="ignore", invalid="ignore"):
                reg = (phase.second_derivative(s) - pp_well) / (2.0 * phase.derivative(s))
            real_part = np.where(near, self.limit, reg)
            imag_part = np.asarray(m.b.xi_derivative(s, 0.0), dtype=float) / a2
            return real_part + 1j * imag_part

        self._cum = CumulativeIntegral(integrand, -_DOMAIN, _DOMAIN, _CELLS)
        self._anchor = self._cum(np.array(well))

    def __call__(self, x):
        return self.prefactor * np.exp(-(self._cum(x) - self._anchor))


def _amplitude_of(m: Model, phase: AgmonPhase) -> _Amplitude:
    if phase._amplitude is None:
        phase._amplitude = _Amplitude(m, phase)
    return phase._amplitude


def leading_amplitude(m: Model, phase: AgmonPhase, x):
    """u_{1,0}(x); real positive at the well, complex when d_xi b(., 0) != 0."""
    return _amplitude_of(m, phase)(x)


@dataclass
class WkbQuasimode:
    vector: np.ndarray     # normalized grid samples
    lambda_wkb: float      # c0 h^(3/2)
    norm_raw: float        # norm before normalization; 1 + O(sqrt h)
    side: str


def wkb_quasimode(m: Model, g: Grid, phase: AgmonPhase, side: str | None = None) -> WkbQuasimode:
    """Grid samples of h^(-1/8) chi(x) u_{1,0}(x) exp(-Phi(x)/sqrt(h)).

    chi is 1 on [-2A, 2A] and vanishes outside (-3A, 3A), so the quasimode
    agrees with the raw Ansatz wherever Phi~ still equals Phi.
    """
    side = side or phase.side
    if side != phase.side:
        raise ConfigurationError(
            f"phase was built for side {phase.side!r}, requested {side!r}")
    consts = derived_constants(m)
    A = phase.A_window
    x = g.x_nodes
    chi = smoothstep(2.0*x/A + 5.0) * smoothstep(5.0 - 2.0*x/A)
    u = _amplitude_of(m, phase)(x)
    raw = g.h**(-0.125) * chi * u * np.exp(-np.asarray(phase.evaluator(x)) / np.sqrt(g.h))
    norm_raw = float(np.sqrt(g.dx * np.sum(np.abs(raw)**2)))
    return WkbQuasimode(vector=raw / norm_raw,
                        lambda_wkb=float(consts.c0 * g.h**1.5),
                        norm_raw=norm_raw, side=side)


def wkb_eigenvalue(m: Model, h: float, n: int = 1) -> float:
    """Ladder value (2n-1) c0 h^(3/2) of the leading quantization condition."""
    if n < 1:
        raise ConfigurationError(f"level index must be >= 1, got {n}")
    consts = derived_constants(m)
    return float((2*n - 1) * consts.c0 * h**1.5)


def _fd8(f, xs, d):
    """8th-order centered first difference of f at xs with step d."""
    return sum(c * np.asarray(f(xs + off*d))
               for c, off in zip(_FD8_COEFF, range(-4, 5)) if c != 0.0) / d


def eikonal_residual(m: Model, phase: AgmonPhase, sample_xs, d: float = 2e-3) -> float:
    """Residual of (Phi')^2 = (2/a''(0)) b_sealed(., 0) at the samples.

    Phi' comes from an 8th-order differentiation of the cumulative phase
    itself, not from the analytic branch, so this genuinely cross-checks
    the quadrature against the defining identity.
    """
    xs = np.asarray(sample_xs, dtype=float)
    consts = derived_constants(m)
    dphi = _fd8(phase.evaluator, xs, d)
    g_branch, _ = _sealed_branch(m, phase.seal, phase.side)
    landscape = g_branch(xs)**2
    return float(np.max(np.abs(dphi**2 - (2.0/consts.a2) * landscape)))


def transport_residual(m: Model, phase: AgmonPhase, sample_xs) -> float:
    """Residual of the first transport equation at the sample points.

    Evaluates | i Phi' d_xi b(x,0) u + (a2/2) Phi'' u + a2 Phi' u' - c0 u |
    with u the leading amplitude and u' a high-order finite difference of
    the amplitude callable. Samples must stay 1e-3 away from the well,
    where Phi' vanishes and the equation degenerates.
    """
    xs = np.asarray(sample_xs, dtype=float)
    if np.any(np.abs(xs - phase.x_well) < 1e-3):
        raise ConfigurationError(
            "sample points must exclude the 1e-3 ball around the well")
    consts = derived_constants(m)
    a2, c0 = consts.a2, consts.c0
    u_of = _amplitude_of(m, phase)
    u = u_of(xs)
    du = _fd8(u_of, xs, 1e-3)
    resid = (1j * np.asarray(phase.derivative(xs)) * np.asarray(m.b.xi_derivative(xs, 0.0)) * u
             + 0.5 * a2 * np.asarray(phase.second_derivative(xs)) * u
             + a2 * np.asarray(phase.derivative(xs)) * du
             - c0 * u)
    return float(np.max(np.abs(resid)))


def quasimode_residual(M_onewell: OperatorMatrix, q: WkbQuasimode) -> float:
    """Relative residual ||(M - lambda_wkb) q|| / ||q||."""
    v = q.vector
    if v.shape != (M_onewell.N,):
        raise ConfigurationError(
            f"quasimode length {v.shape} does not match matrix N={M_onewell.N}")
    return float(np.linalg.norm(M_onewell.entries @ v - q.lambda_wkb * v)
                 / np.linalg.norm(v))
