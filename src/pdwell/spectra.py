"""Low-lying eigenpairs, parities and localization measures.

Eigenvectors are normalized against the dx-weighted inner product
<u, v> = dx * sum u conj(v) and carry a fixed phase (largest-modulus entry
real positive, the lowest index among equal moduli). An operator takes one
of three routes, chosen from the operator itself:

* A matrix that commutes exactly with the reflection U: x -> -x, as
  OperatorMatrix.reflection_symmetric reads off its own numbers, is block
  diagonal in the even and odd vectors, so its eigenpairs are those of two
  half-size blocks, solved separately by ?syevr and merged by value; each
  vector then satisfies Uv = +-v exactly.
* Any other real matrix is solved whole by dsyevr.
* Any other complex matrix is solved whole by shift-invert block Lanczos on
  a Cholesky factor. The shift sigma, a Gershgorin lower bound, is proven
  below the spectrum when M - sigma I factors. Each new Krylov block is
  orthogonalized against the whole basis in two rounds, each followed by a
  Cholesky QR, and the k + 1 leading Ritz vectors get a final Rayleigh-Ritz
  step with M. A certificate then proves that no eigenvalue below the k
  returned ones was missed: with tau between the Ritz values theta_k and
  theta_k+1 and V the k Ritz vectors, a Cholesky factor of
  M - tau I + 2 (tau - sigma) V V^H exists only if lambda_k+1(M) > tau,
  since a rank-k positive term raises at most k eigenvalues. Ties, an
  iteration that does not converge, a Ritz residual above the contract and
  a failed factorization send the matrix to zheevr, so no unproven
  spectrum returns.

Every route's vectors must meet the residual contract against the full
matrix. Diagnostics quantify where an eigenvector lives: momentum
tail beyond a cut, spatial mass away from a well, parity under x -> -x,
and the exponentially weighted norm that measures Agmon decay.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import cho_factor, cho_solve, eigh, gemm, herk, trsm
from .errors import ConfigurationError, NumericError, PrecisionWarning
from .quantize import Grid, OperatorMatrix, frobenius_norm, reverse_indices

__all__ = [
    "Eigenpair", "lowest_eigenpairs", "gap_near_residual", "parity_of",
    "fourier_cut", "fourier_tail", "spatial_tail", "agmon_weighted_norm",
]

# solver residual contract, relative to the Frobenius norm of the matrix
RESIDUAL_RTOL = 1e-10

# a gap within this factor of the eigensolver residual is flagged
GAP_RESIDUAL_FACTOR = 100.0

# single-node weighted contribution beyond exp(700) trips the overflow flag
LOG_GUARD = 700.0

# shift-invert Lanczos stops when the residual of each of its k + 1 leading
# Ritz pairs of the inverse is below this, relative to the pair's Ritz value
KRYLOV_RTOL = 1e-12

# Krylov blocks before shift-invert Lanczos gives the matrix to zheevr;
# ModelB's rows take 12-13 blocks of k + 2 = 5 vectors at h = 0.09-0.05,
# N = 512, and 20 at h = 0.008, N = 1024
KRYLOV_MAX_BLOCKS = 40

# fractional part of the golden ratio, the chirp rate of the start block
_GOLDEN = 0.6180339887498949


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


def _factor_in_place(A: np.ndarray) -> bool:
    """Overwrite A's lower triangle with its Cholesky factor; False when A
    is not positive definite. ?potrf is given no scan for non-finite
    entries and factors them with info = 0; every one reaches the factor's
    diagonal, so a non-finite diagonal is no factor either."""
    try:
        F = cho_factor(A)
    except LinAlgError:
        return False
    return bool(np.isfinite(np.diagonal(F)).all())


def _gershgorin_floor(A: np.ndarray) -> float:
    """min_j (A_jj - sum_{i != j} |A_ij|), a lower bound on the spectrum of
    a Hermitian A, read a block of columns at a time."""
    floor = math.inf
    for lo in range(0, A.shape[0], 64):
        cols = A[:, lo:lo + 64]
        d = np.diagonal(cols, offset=-lo)
        radius = np.sum(np.abs(cols), axis=0) - np.abs(d)
        floor = min(floor, float(np.min(d.real - radius)))
    return floor


def _start_block(N: int, b: int) -> np.ndarray:
    """Fixed N x b start block of unit-modulus chirp entries, with no
    parity under x -> -x."""
    n = np.arange(N * b, dtype=float).reshape((N, b), order="F")
    return np.exp(2j * np.pi * ((_GOLDEN * n * n) % 1.0))


def _project_out(Q: np.ndarray, W: np.ndarray):
    """(Qn, C, R) with W = Q C + Qn R, Qn's columns orthonormal and
    orthogonal to Q's, R upper triangular; None when W has numerically
    dependent columns outside span(Q).

    Two rounds of block Gram-Schmidt against Q, each followed by a Cholesky
    QR: the second round removes what the first left along Q, including
    what its QR amplified, and makes Qn orthonormal to roundoff.
    """
    C = 0.0
    R = np.eye(W.shape[1], dtype=W.dtype)
    for _ in range(2):
        H = gemm(1.0, Q, W, trans_a=2)
        W = gemm(-1.0, Q, H, beta=1.0, c=W, overwrite_c=1)
        G = herk(1.0, W, trans=2, lower=1)
        if not _factor_in_place(G):
            return None
        W = trsm(1.0, G, W, side=1, lower=1, trans_a=2, overwrite_b=1)
        C = C + gemm(1.0, H, R)
        R = gemm(1.0, np.tril(G), R, trans_a=2)
    return W, C, R


def _krylov(F: np.ndarray, k: int):
    """Approximations to the eigenvectors of the k + 1 largest eigenvalues
    of (L L^H)^{-1}, L the lower Cholesky factor in F, as an N x (k + 1)
    orthonormal block; None when block Lanczos does not converge.

    Blocks of b = k + 2 vectors. Each new block is orthogonalized against
    the whole basis (_project_out); its coefficients on the current block
    are the diagonal blocks of the block tridiagonal T, and its triangular
    factor the subdiagonal ones. T is kept negated, so its lowest
    eigenpairs are the largest Ritz pairs; it fills the leading block of one
    uninitialized cap x cap array as the basis grows.
    """
    N = F.shape[0]
    b = min(k + 2, N)
    cap = min(N, b * KRYLOV_MAX_BLOCKS)
    Q = np.empty((N, cap), dtype=F.dtype, order="F")
    block = _project_out(Q[:, :0], _start_block(N, b))
    if block is None:
        return None
    Q[:, :b], _, R = block
    # only T[:hi, :hi] is read, and eigh scans all of it for non-finite
    # entries: each block zeroes its new row and column strips, so only
    # the pages of T's first hi columns are ever touched
    T = np.empty((cap, cap), dtype=F.dtype, order="F")
    for lo in range(0, cap - b + 1, b):
        hi = lo + b
        T[lo:hi, :hi] = 0.0
        T[:lo, lo:hi] = 0.0
        if lo:
            T[lo:hi, lo - b:lo] = -R
        block = _project_out(Q[:, :hi], cho_solve(F, Q[:, lo:hi]))
        if block is None:
            return None
        Qn, C, R = block
        T[lo:hi, lo:hi] = -C[lo:hi]
        theta, S = eigh(T[:hi, :hi], k + 1)
        # Ritz vector Q S[:, i] has residual Qn R S[lo:hi, i]
        RS = gemm(1.0, R, S[lo:hi])
        beta = np.sqrt(np.sum(RS.real**2 + RS.imag**2, axis=0))
        if np.all(beta <= KRYLOV_RTOL * -theta):
            return gemm(1.0, Q[:, :hi], S)
        # cap >= b, so the last block always returns here
        if hi + b > cap:
            return None
        Q[:, hi:hi + b] = Qn


def _rayleigh_ritz(M: OperatorMatrix, Y: np.ndarray):
    """Ritz values, ascending, Ritz vectors and their residual norms
    ||M x - w x|| for M on the orthonormal columns of Y."""
    MY = np.column_stack([M.apply(y) for y in Y.T])
    w, Z = eigh(gemm(1.0, Y, MY, trans_a=2), Y.shape[1])
    X = gemm(1.0, Y, Z)
    R = gemm(1.0, MY, Z) - X * w
    return w, X, np.sqrt(np.sum(R.real**2 + R.imag**2, axis=0))


def _certified(A: np.ndarray, M: OperatorMatrix, V: np.ndarray, tau: float,
               sigma: float) -> bool:
    """True when D = M - tau I + 2 (tau - sigma) V V^H, written into A, has a
    Cholesky factor.

    A rank-k positive term raises at most k eigenvalues, so the (k + 1)-th
    eigenvalue of M - tau I is at least the lowest of D: a factor proves
    lambda_k+1(M) > tau. The weight lifts M's eigenvalues on the span of V,
    all above sigma, to at least tau - sigma > 0.
    """
    M.dense(out=A)
    A[np.diag_indices_from(A)] -= tau
    herk(2.0 * (tau - sigma), V, beta=1.0, c=A, lower=1, overwrite_c=1)
    return _factor_in_place(A)


def _whole_matrix(M: OperatorMatrix, k: int):
    """(values, vectors, ||M||_F) of the k smallest eigenpairs of M, solved
    whole: certified shift-invert Lanczos for a complex M, else ?syevr (and
    zheevr where the Lanczos route gives up).

    One N x N array serves every stage, rewritten by M.dense(out=A): the
    shifted matrix and its factor, the certificate's matrix, and zheevr's
    copy when the certificate fails.
    """
    A = M.dense()
    scale = frobenius_norm(A)
    # a finite norm is the one scan for non-finite entries; zheevr reports them
    if np.iscomplexobj(A) and k < M.N and math.isfinite(scale):
        sigma = _gershgorin_floor(A)
        A[np.diag_indices_from(A)] -= sigma
        # a factor proves sigma below the spectrum
        Y = _krylov(A, k) if _factor_in_place(A) else None
        if Y is not None:
            w, X, resid = _rayleigh_ritz(M, Y)
            tau = 0.5 * (w[k - 1] + w[k])
            # a shift close to lambda_1 limits the accuracy of the solves;
            # such a result leaves the contract to zheevr instead of failing it
            if (w[k - 1] < tau < w[k]
                    and np.all(resid[:k] <= RESIDUAL_RTOL * scale)
                    and _certified(A, M, X[:, :k], tau, sigma)):
                return w[:k], X[:, :k], scale
        M.dense(out=A)
    vals, vecs = eigh(A, k, overwrite_a=True)
    return vals, vecs, scale


def lowest_eigenpairs(M: OperatorMatrix, k: int) -> list[Eigenpair]:
    """The k smallest eigenpairs, ascending, with the phase convention applied.

    A reflection-symmetric M is solved in its parity sectors, so each
    returned vector is exactly even or odd and, by Eigenpair's tie-break,
    positive at its lowest-index peak. Any other M is solved whole (see the
    module docstring for the three routes). Every vector must meet the
    residual contract against the full matrix; a wrong reflection_symmetric
    therefore raises NumericError instead of returning a wrong spectrum. So
    do a nan residual, a non-finite entry and a LAPACK failure inside the
    solver.
    """
    N = M.N
    if not 1 <= k <= N:
        raise ConfigurationError(f"k must be in [1, {N}], got {k}")
    try:
        if M.reflection_symmetric:
            scale = M.frobenius_norm()
            vals, vecs = _parity_sectors(M, k)
        else:
            vals, vecs, scale = _whole_matrix(M, k)
    except LinAlgError as exc:
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


def fourier_cut(g: Grid) -> float:
    """Criterion 10's momentum cut h^(1/6) (1 - 1e-6) on g; a ConfigurationError
    when g's momentum cutoff pi h N / L does not exceed it."""
    cut = g.h**(1.0/6.0) * (1.0 - 1e-6)
    if not cut < g.cutoff:
        raise ConfigurationError(
            f"momentum cutoff pi*h*N/L = {g.cutoff:.4f} at h = {g.h:g} does not "
            f"exceed the Fourier tail's cut h^(1/6) = {cut:.4f}; raise N or xi_min")
    return cut


def fourier_tail(v: Eigenpair, g: Grid) -> float:
    """Fraction of momentum mass beyond |eta| > fourier_cut(g)."""
    power = np.abs(np.fft.fft(v.vector))**2
    return float(np.sum(power[np.abs(g.eta_fft) > fourier_cut(g)]) / np.sum(power))


def spatial_tail(v: Eigenpair, g: Grid, center: float) -> float:
    """Criterion 10's fraction of |v|^2 mass farther than 0.5 from center."""
    mass = np.abs(v.vector)**2
    return float(np.sum(mass[np.abs(g.x_nodes - center) > 0.5]) / np.sum(mass))


def _logsumexp(a) -> float:
    """log(sum(exp(a))) shifted by the largest entry, as scipy's logsumexp."""
    i = int(np.argmax(a))
    terms = np.exp(a - a[i])
    terms[i] = 0.0
    return float(a[i] + np.log1p(np.sum(terms)))


def agmon_weighted_norm(v: Eigenpair, g: Grid, phi_trunc) -> float:
    """Criterion 10's weighted norm ||exp((1 - 0.2) Phi~/sqrt(h)) v||, dx-weighted.

    phi_trunc holds the samples of the truncated phase Phi~ at g's nodes,
    whose side and seal fix the weight. All sums run in log space; a
    single-node contribution past exp(700) raises a PrecisionWarning but the
    log-space value is still returned.
    """
    w = (1.0 - 0.2) * np.asarray(phi_trunc) / np.sqrt(g.h)
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
