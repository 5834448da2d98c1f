"""Low-lying eigenpairs and localization diagnostics.

Eigenvectors are normalized against the dx-weighted inner product
<u, v> = dx * sum u conj(v) and carry a fixed phase (largest-modulus entry
real positive, the lowest index among equal moduli). A matrix that commutes
exactly with the reflection U: x -> -x (OperatorMatrix.reflection_symmetric)
is block diagonal in the even and odd vectors, so its eigenpairs are those
of two half-size blocks, solved separately and merged by value; each vector
then satisfies Uv = +-v exactly. Every other matrix is solved whole.
Diagnostics quantify where an eigenvector lives: momentum
tail beyond a cutoff, spatial mass away from the wells, parity under
x -> -x, and the exponentially weighted norm that measures Agmon decay.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._lapack import eigh
from .errors import ConfigurationError, NumericError, PrecisionWarning
from .quantize import Grid, OperatorMatrix, frobenius_norm, reverse_indices

__all__ = [
    "Eigenpair", "lowest_eigenpairs", "gap_near_residual", "parity_of",
    "fourier_tail", "spatial_tail", "agmon_weighted_norm",
]

# solver residual contract, relative to the Frobenius norm of the matrix
RESIDUAL_RTOL = 1e-10

# a gap within this factor of the eigensolver residual is flagged
GAP_RESIDUAL_FACTOR = 100.0

# single-node weighted contribution beyond exp(700) trips the overflow flag
LOG_GUARD = 700.0


@dataclass
class Eigenpair:
    """One eigenpair; vector has unit norm under the dx-weighted inner product.

    Phase: the entry of largest modulus is real positive. np.argmax takes
    the lowest index among equal moduli, so a vector with Uv = +-v, whose
    moduli at j and N - j are equal, is positive at its peak with j <= N/2.
    """
    value: float
    vector: np.ndarray
    residual: float


def _parity_sectors(M: OperatorMatrix, k: int):
    """The k smallest eigenpairs, as eigh's, of a circulant M commuting with U.

    The even block, in the basis e_0, e_{N/2} and (e_j + e_{N-j})/sqrt 2
    for 0 < j < N/2, has size N/2 + 1; the odd block, in the basis
    (e_j - e_{N-j})/sqrt 2, has size N/2 - 1. Each is built just before its
    solve; up to k pairs of each are solved, lifted back to the grid and
    merged by value, even first on ties.
    """
    N = M.N
    half = N // 2
    # with U M = M U, <u_a, M u_b> = d_a d_b (M[a, b] +- M[a, N - b]), where
    # d = 1/sqrt 2 on the singletons 0 and N/2 and 1 on the pairs
    d = np.ones(half + 1)
    d[[0, half]] = math.sqrt(0.5)
    vals, vecs = [], []
    for parity in (1.0, -1.0) if half > 1 else (1.0,):
        # eigh overwrites the symmetric block's Fortran-ordered transpose
        block = M.parity_block(parity)
        if parity > 0:
            block *= d
            block *= d[:, None]
        n = min(k, block.shape[0])
        v, y = eigh(block.T, n, overwrite_a=True)
        del block
        lifted = np.zeros((N, n), dtype=y.dtype)
        if parity > 0:
            lifted[:half + 1] = y * (math.sqrt(0.5) / d)[:, None]
        else:
            lifted[1:half] = y * math.sqrt(0.5)
        lifted[half + 1:] = parity * lifted[half - 1:0:-1]
        vals.append(v)
        vecs.append(lifted)
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")[:k]
    return vals[order], np.concatenate(vecs, axis=1)[:, order]


def lowest_eigenpairs(M: OperatorMatrix, k: int) -> list[Eigenpair]:
    """The k smallest eigenpairs, ascending, with the phase convention applied.

    A reflection-symmetric M is solved in its parity sectors, so each
    returned vector is exactly even or odd and, by Eigenpair's tie-break,
    positive at its lowest-index peak. Every vector must meet the residual
    contract against the full matrix; a wrong reflection flag therefore
    raises NumericError instead of returning a wrong spectrum. So do a nan
    residual, a non-finite entry and a LAPACK failure inside the solver.
    """
    N = M.N
    if not 1 <= k <= N:
        raise ConfigurationError(f"k must be in [1, {N}], got {k}")
    try:
        if M.reflection_symmetric:
            scale = M.frobenius_norm()
            vals, vecs = _parity_sectors(M, k)
        else:
            # a full solve gets its own Fortran-ordered copy, which LAPACK
            # overwrites; for a circulant it is the only N x N array
            A = M.dense(order="F")
            scale = frobenius_norm(A)
            vals, vecs = eigh(A, k, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on N = {N}, k = {k}: {exc}") from exc
    dx = M.grid.dx
    out = []
    for i in range(k):
        col = vecs[:, i]
        resid = float(np.linalg.norm(M.apply(col) - vals[i] * col))
        # written as not (resid <= bound), so a nan residual fails the contract
        if not (resid <= RESIDUAL_RTOL * max(scale, 1e-300)):
            raise NumericError(
                f"eigensolver residual {resid:.3e} exceeds "
                f"{RESIDUAL_RTOL:.0e} * ||M||_F = {RESIDUAL_RTOL*scale:.3e}")
        # the moduli of the returned vector, so that ties its scaling rounds
        # together also resolve to the lowest index
        j = int(np.argmax(np.abs(col) / np.sqrt(dx)))
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
    return g.inner(v.vector, v.vector[reverse_indices(g.n_points)]).real


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


def _logsumexp(a) -> float:
    """log(sum(exp(a))) shifted by the largest entry, as scipy's logsumexp."""
    i = int(np.argmax(a))
    terms = np.exp(a - a[i])
    terms[i] = 0.0
    return float(a[i] + np.log1p(np.sum(terms)))


def agmon_weighted_norm(v: Eigenpair, g: Grid, phi_trunc, eps: float) -> float:
    """Weighted norm ||exp((1-eps) Phi~/sqrt(h)) v|| with dx weighting.

    phi_trunc holds the samples of the truncated phase Phi~ at g's nodes,
    whose side and seal fix the weight. All sums run in log space; a
    single-node contribution past exp(700) raises a PrecisionWarning but the
    log-space value is still returned.
    """
    if not 0.0 < eps <= 1.0:
        raise ConfigurationError(f"eps must be in (0, 1], got {eps}")
    w = (1.0 - eps) * np.asarray(phi_trunc) / np.sqrt(g.h)
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
    log_sq = _logsumexp(2.0 * finite) + np.log(g.dx)
    return float(np.exp(0.5 * log_sq))
