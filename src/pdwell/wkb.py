"""One-well sealing, Agmon phase, and the leading WKB quasimode.

The sealed operator closes the right well with a compactly supported bump
k so that the left well is the unique global minimum of b(., 0) + k. Its
ground state decays like exp(-Phi/sqrt(h)) with the Agmon phase

    Phi(x) = sqrt(2/a''(0)) | int_{x_left}^x sqrt(b_sealed(s, 0)) ds |,

and the leading quasimode is h^(-1/8) chi(x) u(x) exp(-Phi(x)/sqrt(h))
with the amplitude u solving the first transport equation in closed form.
Phases and amplitudes are cached Gauss-Legendre cumulative integrals from
the well, cheap and smooth to evaluate; Phi~ and u refuse x past their span.
The right well's states are the reflections x -> -x of the left well's.

Every smooth cutoff in the package is built here from the single bump
t -> exp(-1/(1-t^2)): the seal, the phase truncation, the quasimode window
and the overlap cutoff chi_left, 1 on [-A, x_r - 2 eta] and 0 left of -2A
and right of x_r - eta; the right state is the left one's reflection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError
from .model import (CumulativeIntegral, Model, _fd1, _fd2, _finite, derived_constants,
                    smooth_branch)
from .quantize import Grid, OperatorMatrix

__all__ = [
    "SealingFunction", "AgmonPhase", "WkbQuasimode", "bump", "smoothstep",
    "sealing_function", "assemble_onewell", "agmon_phase", "wkb_quasimode",
    "quasimode_residual",
]

# least span of the phase table (it holds the 3A support of every cutoff)
# and default span of Phi~ and u; cells of width 1/256 put grid nodes on edges
_DOMAIN = 12.0
_CELLS_PER_UNIT = 256

# the removable singularity of the amplitude integrand is replaced by its
# limit inside this radius around the well
_SING_RADIUS = 1e-4

# the finite-difference step of the phase branch's derivatives, and d of the
# complex step d_xi b(x, 0) = Im b(x, i d) / d, a power of two so / d is exact
_FD_STEP = 1e-3
_XI_STEP = 2.0**-100


# --------------------------------------------------------------------------
# cutoff primitives
# --------------------------------------------------------------------------

def bump(t):
    """The compact C-infinity bump exp(-1/(1-t^2)) on (-1, 1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@functools.cache
def _step_table() -> tuple[CumulativeIntegral, float]:
    """bump's cumulative table on [-1, 1] and its total mass, built on first use."""
    table = CumulativeIntegral(bump, -1.0, 1.0, 256)
    return table, float(table.cum[-1])


def smoothstep(t):
    """Monotone C-infinity ramp: 0 for t <= -1, 1 for t >= 1.

    The ramp is a cumulative table of bump on [-1, 1], so only points with
    |t| < 1 off the table's cell edges evaluate bump; the flat parts cost a
    comparison each.
    """
    table, mass = _step_table()
    return table(t) / mass


# --------------------------------------------------------------------------
# sealing
# --------------------------------------------------------------------------

@dataclass
class SealingFunction:
    """Nonnegative bump k closing the right well, leaving the left well the
    sealed landscape's unique minimum."""
    evaluator: Callable[[np.ndarray], np.ndarray]
    eta: float


def sealing_function(m: Model, eta: float = 0.4, height: float | None = None) -> SealingFunction:
    """Bump k(x) = height * exp(-1/(1-t^2)), t = (x - x_r)/eta.

    Post-validates that b(., 0) + k has a unique global minimum at x_left:
    the sealed landscape must exceed its value at x_left everywhere outside
    a small ball around x_left. A non-finite sample of the landscape on
    [-6, 6] is an EvaluationError naming its point.
    """
    if not 0.0 < eta < m.x_right:
        raise ConfigurationError(f"seal width must be in (0, {m.x_right}), got {eta}")
    if height is None:
        height = 2.0 * float(m.potential(np.array(0.0)))
    if not 0.0 < height < np.inf:
        raise ConfigurationError(f"seal height must lie in (0, inf), got {height}")
    x_r, hgt, w = m.x_right, float(height), float(eta)

    def k(x):
        return hgt * bump((np.asarray(x, dtype=float) - x_r) / w)

    xs = np.linspace(-6.0, 6.0, 4001)
    landscape = np.asarray(m.potential(xs), dtype=float) + k(xs)
    landscape = _finite("sealed landscape", landscape, x=xs)
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
    if not (floor > level + 1e-9):
        raise ConfigurationError(
            f"sealed landscape has a competing minimum at level {floor:.3e} "
            f"(well level {level:.3e}); increase the seal height above {hgt}")
    return SealingFunction(evaluator=k, eta=w)


def assemble_onewell(M: OperatorMatrix, seal: SealingFunction) -> OperatorMatrix:
    """The sealed operator: the assembled L_h plus h * diag(k), at O(N) cost.

    M.plus_diagonal(h k(x_j)) shares M's entries or circulant column,
    copying no N x N array; M is left unchanged. The seal enters at order h
    because it perturbs the subprincipal symbol.
    """
    g = M.grid
    return M.plus_diagonal(g.h * seal.evaluator(g.x_nodes))


# --------------------------------------------------------------------------
# Agmon phase and amplitude
# --------------------------------------------------------------------------

@dataclass
class AgmonPhase:
    """The left well's h-independent tables and cutoff, built once per sweep."""
    evaluator: Callable            # Phi
    truncated_evaluator: Callable  # Phi~, constant outside [-2A, 2A]
    amplitude: Callable            # u_{1,0}; complex when d_xi b(., 0) != 0
    chi_left: Callable             # overlap cutoff of the left state
    A_window: float
    model: Model = field(repr=False)
    seal: SealingFunction = field(repr=False)


def _table(f, span: float, well: float) -> CumulativeIntegral:
    """f's table from the well on [-span, span], rounded up to whole cells."""
    n = int(np.ceil(span * _CELLS_PER_UNIT))
    return CumulativeIntegral(f, -n / _CELLS_PER_UNIT, n / _CELLS_PER_UNIT, 2 * n, anchor=well)


def _read(table: CumulativeIntegral, x):
    if np.abs(x).max(initial=0.0) > table.hi:
        raise ConfigurationError(f"query outside the table span {table.hi:g}")
    return table(x)


def agmon_phase(m: Model, seal: SealingFunction, *, span: float = _DOMAIN) -> AgmonPhase:
    """The left well's phase Phi, its truncation Phi~, the window constant A,
    the leading amplitude u_{1,0} and the overlap cutoff chi_left.

    A is the smallest half-width such that Phi exceeds Phi at the right
    well outside [-A, A]; the truncation multiplies Phi' by a smooth cutoff
    equal to 1 on [-A, A] and 0 outside [-2A, 2A] before integrating.

    u solves the first transport equation in closed form:
    u(x) = (Phi''(well)/pi)^(1/4) * exp(-I(x)) with
    I(x) = int_well^x [ (Phi''(s) - Phi''(well)) / (2 Phi'(s))
                        + (i/a''(0)) d_xi b(s, 0) ] ds
    and Phi''(well) = sqrt(2/a''(0)) kappa. The first term of I has a
    removable singularity at the well; inside a small ball it is replaced
    by its limit Phi'''(well)/(2 Phi''(well)), where Phi''' comes from a
    centered second-derivative stencil of the branch. d_xi b(s, 0) is the
    complex step Im b(s, i d)/d: exact for b analytic in xi, 0 if b omits xi.

    chi_left is 1 on [-A, x_r - 2 eta] and 0 left of -2A and right of
    x_r - eta (eta the seal's width), so chi_left * k = 0. Phi~ and u
    answer on [-span, span], Phi on the wider of that and [-12, 12].
    """
    if not abs(m.x_left) < span:
        raise ConfigurationError(f"span {span:g} must contain the wells at +-{m.x_right:g}")
    consts = derived_constants(m)
    pref = np.sqrt(2.0 / consts.a2)
    well = m.x_left

    def landscape(s):
        return np.asarray(m.potential(s), dtype=float) + seal.evaluator(s)

    g = smooth_branch(landscape, well)

    cum = _table(g, max(_DOMAIN, span), well)

    def phi(x):
        return pref * cum(x)

    def phi_prime(x):
        return pref * g(x)

    # A_window: Phi is monotone on each side of the well, so the binding
    # constraint is the far branch (left of the well) reaching Phi(x_right);
    # the near branch only forces A >= x_right. The far branch's table
    # edges, read outward, bracket the root and Newton steps refine it.
    target = float(phi(np.array(m.x_right)))
    far = cum.edges < well
    j = np.searchsorted(pref * cum.cum[far][::-1], target)
    root = float(cum.edges[far][::-1][min(j, np.count_nonzero(far) - 1)])
    for _ in range(8):
        step = (float(phi(root)) - target) / float(phi_prime(root))
        root -= step
        if abs(step) <= 1e-14 * abs(root):
            break
    else:
        raise NumericError(f"Agmon window root did not converge: last step {step:.3e}")
    A = max(m.x_right, abs(root))

    def chi0(s):
        s = np.asarray(s, dtype=float)
        return smoothstep(2.0*s/A + 3.0) * smoothstep(3.0 - 2.0*s/A)

    phi_trunc = functools.partial(_read, _table(lambda s: chi0(s) * phi_prime(s), span, well))

    pp_well = float(pref * consts.kappa)
    limit = float(pref * _fd2(g, well, _FD_STEP)) / (2.0 * pp_well)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        near = np.abs(s - well) < _SING_RADIUS
        with np.errstate(divide="ignore", invalid="ignore"):
            reg = (pref * _fd1(g, s, _FD_STEP) - pp_well) / (2.0 * phi_prime(s))
        imag_part = np.imag(m.b(s, 1j * _XI_STEP)) / _XI_STEP / consts.a2
        return np.where(near, limit, reg) + 1j * imag_part

    u_table = _table(integrand, span, well)
    prefactor = (pp_well / np.pi) ** 0.25

    def amplitude(x):
        return prefactor * np.exp(-_read(u_table, x))

    eta, x_r = seal.eta, m.x_right

    def chi_left(x):
        x = np.asarray(x, dtype=float)
        return (smoothstep(2.0*(x + 2.0*A)/A - 1.0)
                * smoothstep(1.0 - 2.0*(x - (x_r - 2.0*eta))/eta))

    return AgmonPhase(evaluator=phi, truncated_evaluator=phi_trunc, amplitude=amplitude,
                      chi_left=chi_left, A_window=float(A), model=m, seal=seal)


# --------------------------------------------------------------------------
# quasimode
# --------------------------------------------------------------------------

@dataclass
class WkbQuasimode:
    vector: np.ndarray     # normalized grid samples
    lambda_wkb: float      # c0 h^(3/2)
    norm_raw: float        # norm before normalization; 1 + O(sqrt h)
    phi: np.ndarray        # Agmon phase Phi at the grid nodes
    amplitude: np.ndarray  # u_{1,0} at the grid nodes


def wkb_quasimode(g: Grid, phase: AgmonPhase) -> WkbQuasimode:
    """Grid samples of h^(-1/8) chi(x) u_{1,0}(x) exp(-Phi(x)/sqrt(h)).

    The well and the model are phase's. chi is 1 on [-2A, 2A] and vanishes
    outside (-3A, 3A), so the quasimode agrees with the raw Ansatz wherever
    Phi~ still equals Phi.
    """
    consts = derived_constants(phase.model)
    A = phase.A_window
    x = g.x_nodes
    chi = smoothstep(2.0*x/A + 5.0) * smoothstep(5.0 - 2.0*x/A)
    u = phase.amplitude(x)
    phi = np.asarray(phase.evaluator(x))
    raw = g.h**(-0.125) * chi * u * np.exp(-phi / np.sqrt(g.h))
    norm_raw = float(np.sqrt(g.dx * np.sum(np.abs(raw)**2)))
    return WkbQuasimode(vector=raw / norm_raw,
                        lambda_wkb=float(consts.c0 * g.h**1.5),
                        norm_raw=norm_raw, phi=phi, amplitude=u)


def quasimode_residual(M_onewell: OperatorMatrix, q: WkbQuasimode) -> float:
    """Relative residual ||(M - lambda_wkb) q|| / ||q||."""
    v = q.vector
    if v.shape != (M_onewell.N,):
        raise ConfigurationError(
            f"quasimode length {v.shape} does not match matrix N={M_onewell.N}")
    return float(np.linalg.norm(M_onewell.apply(v) - q.lambda_wkb * v)
                 / np.linalg.norm(v))
