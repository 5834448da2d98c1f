"""Low-lying eigenpairs and localization diagnostics.

Eigenvectors are normalized against the dx-weighted inner product
<u, v> = dx * sum u conj(v) and carry a fixed phase (largest-modulus entry
real positive). Diagnostics quantify where an eigenvector lives: momentum
tail beyond a cutoff, spatial mass away from the wells, parity under
x -> -x, and the exponentially weighted norm that measures Agmon decay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.special import logsumexp

from .errors import ConfigurationError, NumericError, PrecisionWarning
from .model import Model
from .quantize import Grid, OperatorMatrix, reverse_indices

__all__ = [
    "Eigenpair", "lowest_eigenpairs", "gap_near_residual", "parity_of",
    "fourier_tail", "spatial_tail", "agmon_weighted_norm", "reverse_indices",
]

# solver residual contract, relative to the Frobenius norm of the matrix
RESIDUAL_RTOL = 1e-10

# a gap within this factor of the eigensolver residual is flagged
GAP_RESIDUAL_FACTOR = 100.0

# single-node weighted contribution beyond exp(700) trips the overflow flag
LOG_GUARD = 700.0


@dataclass
class Eigenpair:
    value: float
    vector: np.ndarray   # unit norm under the dx-weighted inner product
    residual: float


def lowest_eigenpairs(M: OperatorMatrix, k: int) -> list[Eigenpair]:
    """The k smallest eigenpairs, ascending, with the phase convention applied."""
    N = M.N
    if not 1 <= k <= N:
        raise ConfigurationError(f"k must be in [1, {N}], got {k}")
    vals, vecs = eigh(M.entries, subset_by_index=(0, k - 1))
    scale = float(np.linalg.norm(M.entries))
    dx = M.grid.dx
    out = []
    for i in range(k):
        col = vecs[:, i]
        resid = float(np.linalg.norm(M.entries @ col - vals[i] * col))
        if resid > RESIDUAL_RTOL * max(scale, 1e-300):
            raise NumericError(
                f"eigensolver residual {resid:.3e} exceeds "
                f"{RESIDUAL_RTOL:.0e} * ||M||_F = {RESIDUAL_RTOL*scale:.3e}")
        j = int(np.argmax(np.abs(col)))
        phase = col[j] / abs(col[j])
        out.append(Eigenpair(value=float(vals[i]),
                             vector=col * np.conj(phase) / np.sqrt(dx),
                             residual=resid))
    return out


def gap_near_residual(pairs: list[Eigenpair], label: str) -> bool:
    """Precision flag of the gap lambda_2 - lambda_1 of ascending pairs.

    True, with a PrecisionWarning, when the gap is within
    GAP_RESIDUAL_FACTOR of the largest residual among the pairs.
    """
    gap = pairs[1].value - pairs[0].value
    resid = max(p.residual for p in pairs)
    flag = gap < GAP_RESIDUAL_FACTOR * resid
    if flag:
        warnings.warn(
            f"{label} {gap:.3e} is within {GAP_RESIDUAL_FACTOR:.0f}x of "
            f"the eigensolver residual {resid:.3e}", PrecisionWarning)
    return flag


def parity_of(v: Eigenpair, g: Grid) -> float:
    """Re<v, Uv> with U the reflection v(x) -> v(-x); +-1 for definite parity."""
    rev = v.vector[reverse_indices(g.n_points)]
    return float(np.real(g.dx * np.sum(v.vector * np.conj(rev))))


def fourier_tail(v: Eigenpair, g: Grid, xi_cut: float) -> float:
    """Fraction of momentum mass beyond |eta| > xi_cut."""
    if not 0.0 < xi_cut < g.cutoff:
        raise ConfigurationError(
            f"xi_cut must be in (0, {g.cutoff:.4f}), got {xi_cut}")
    power = np.abs(np.fft.fft(v.vector))**2
    tail = power[np.abs(g.eta_fft) > xi_cut]
    return float(np.sum(tail) / np.sum(power))


def spatial_tail(v: Eigenpair, g: Grid, centers, radius: float) -> float:
    """Fraction of |v|^2 mass outside the union of balls B(center, radius)."""
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    inside = np.zeros(g.n_points, dtype=bool)
    for c in centers:
        inside |= np.abs(g.x_nodes - c) <= radius
    mass = np.abs(v.vector)**2
    return float(np.sum(mass[~inside]) / np.sum(mass))


def agmon_weighted_norm(v: Eigenpair, g: Grid, m: Model, eps: float,
                        side: str = "left", phase=None) -> float:
    """Weighted norm ||exp((1-eps) Phi~/sqrt(h)) v|| with dx weighting.

    Phi~ is the truncated Agmon phase of the requested side. All sums run
    in log space; a single-node contribution past exp(700) raises a
    PrecisionWarning but the log-space value is still returned.
    """
    if not 0.0 < eps <= 1.0:
        raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
    if phase is None:
        from .wkb import agmon_phase, sealing_function
        phase = agmon_phase(m, sealing_function(m), side)
    w = (1.0 - eps) * np.asarray(phase.truncated_evaluator(g.x_nodes)) / np.sqrt(g.h)
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(v.vector))
    contrib = w + log_v
    if np.max(contrib) > LOG_GUARD:
        warnings.warn(
            f"weighted nodal contribution exp({np.max(contrib):.1f}) "
            "exceeds exp(700)", PrecisionWarning)
    finite = contrib[np.isfinite(contrib)]
    if finite.size == 0:
        return 0.0
    log_sq = logsumexp(2.0 * finite) + np.log(g.dx)
    return float(np.exp(0.5 * log_sq))
