"""Discrete Weyl quantization on a periodic grid.

A symbol p(x, xi) becomes the dense matrix

    M[j, k] = (1/N) sum_m p((x_j + x_k)/2, eta_m) exp(2 pi i m (j - k)/N),

with eta_m = 2 pi h m / L for m = -N/2 .. N/2 - 1. Along an anti-diagonal
j + k = c the midpoint is constant, so each anti-diagonal is one length-N
inverse DFT of p(midpoint, .); the full matrix costs O(N^2 log N). The
eta-lattice is asymmetric (m = -N/2 present, +N/2 absent), which leaves a
roundoff-sized Hermiticity defect; we record the defect and symmetrize.

A multiplier a(xi) even on the lattice gives a real symmetric circulant (the
inverse DFT of a real even sequence is real), so a(xi) + h V(x) is stored and
solved in real arithmetic; symbols coupling x and xi stay complex Hermitian.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import circulant

from .errors import ConfigurationError, EvaluationError
from .model import Model, SymbolA

__all__ = [
    "Grid", "OperatorMatrix", "make_grid", "weyl_matrix", "assemble_L",
    "apply_fourier_multiplier", "fourier_multiplier_matrix", "reverse_indices",
    "dump_matrix", "load_matrix",
]

logger = logging.getLogger(__name__)

# pre-symmetrization Hermiticity defect above this (relative to ||M||_F)
# sets the warning flag on the result
DEFECT_RTOL = 1e-9

_MAGIC = b"PDOW"

# anti-diagonals per FFT batch during assembly
_BLOCK = 512


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid with the matched discrete momentum lattice.

    x_nodes[j] = -L/2 + j dx and eta_nodes[m'] = 2 pi h m / L for
    m = -N/2 .. N/2 - 1 (ascending). The pairing satisfies
    exp(i (x_j - x_k) eta_m / h) = exp(2 pi i m (j - k)/N) exactly.
    """
    n_points: int
    length: float
    h: float
    dx: float
    x_nodes: np.ndarray
    eta_nodes: np.ndarray

    @property
    def N(self) -> int:
        return self.n_points

    @property
    def L(self) -> float:
        return self.length

    @property
    def cutoff(self) -> float:
        """Momentum cutoff Xi = pi h N / L."""
        return np.pi * self.h * self.n_points / self.length

    @property
    def eta_fft(self) -> np.ndarray:
        """Momentum lattice in FFT storage order (0 .. N/2-1, -N/2 .. -1)."""
        return 2.0*np.pi*self.h/self.length * np.fft.fftfreq(self.n_points, d=1.0/self.n_points)


@dataclass
class OperatorMatrix:
    """Dense Hermitian matrix, real symmetric when the symbol is even in xi."""
    entries: np.ndarray
    hermiticity_defect: float
    grid: Grid
    defect_warning: bool = field(default=False)

    @property
    def N(self) -> int:
        return self.entries.shape[0]


def reverse_indices(N: int) -> np.ndarray:
    """Index permutation realizing x -> -x, and eta -> -eta in FFT order."""
    return (-np.arange(N)) % N


def make_grid(L: float, N: int, h: float, xi_min: float = 3.0) -> Grid:
    """Build the grid, enforcing the momentum cutoff pi h N / L >= xi_min."""
    if L <= 0:
        raise ConfigurationError(f"domain length must be positive, got {L}")
    if not (0.0 < h <= 1.0):
        raise ConfigurationError(f"semiclassical parameter must be in (0, 1], got {h}")
    if N < 2 or (N & (N - 1)) != 0:
        raise ConfigurationError(f"N must be a power of two >= 2, got {N}")
    cutoff = np.pi * h * N / L
    if cutoff < xi_min:
        n_min = 2
        while np.pi * h * n_min / L < xi_min:
            n_min *= 2
        raise ConfigurationError(
            f"momentum cutoff pi*h*N/L = {cutoff:.4f} < {xi_min}; "
            f"smallest admissible power of two is N = {n_min}")
    dx = L / N
    x = -L/2.0 + dx * np.arange(N)
    m = np.arange(-N//2, N//2)
    eta = 2.0*np.pi*h/L * m
    return Grid(n_points=N, length=L, h=h, dx=dx, x_nodes=x, eta_nodes=eta)


def _symmetrize(M: np.ndarray, grid: Grid) -> OperatorMatrix:
    defect = float(np.linalg.norm(M - M.conj().T))
    scale = float(np.linalg.norm(M))
    warn = defect > DEFECT_RTOL * max(scale, 1e-300)
    if warn:
        logger.warning("Hermiticity defect %.3e exceeds %.1e of ||M||_F=%.3e",
                       defect, DEFECT_RTOL, scale)
    else:
        logger.debug("Hermiticity defect %.3e (||M||_F=%.3e)", defect, scale)
    M = 0.5 * (M + M.conj().T)
    return OperatorMatrix(entries=M, hermiticity_defect=defect, grid=grid,
                          defect_warning=warn)


def weyl_matrix(p, g: Grid) -> OperatorMatrix:
    """Assemble the Weyl matrix of the symbol evaluator p(x, xi).

    Anti-diagonal c = j + k has constant midpoint s_c = -L/2 + c dx/2
    (no periodic wrapping of midpoints); one inverse DFT per anti-diagonal,
    batched in blocks. The entry rule is M[j, c-j] = W_c[(2j - c) mod N].
    """
    N = g.n_points
    eta = g.eta_fft
    mids = -g.length/2.0 + np.arange(2*N - 1) * (g.dx/2.0)
    M = np.zeros((N, N), dtype=np.complex128)
    for start in range(0, 2*N - 1, _BLOCK):
        cs = np.arange(start, min(start + _BLOCK, 2*N - 1))
        P = np.asarray(p(mids[cs][:, None], eta[None, :]), dtype=float)
        if not np.all(np.isfinite(P)):
            i, mcol = np.argwhere(~np.isfinite(P))[0]
            raise EvaluationError(
                f"non-finite symbol value at (x={mids[cs[i]]}, xi={eta[mcol]})")
        W = np.fft.ifft(P, axis=1)
        for i, c in enumerate(cs):
            js = np.arange(max(0, c - N + 1), min(c, N - 1) + 1)
            M[js, c - js] = W[i, (2*js - c) % N]
    return _symmetrize(M, g)


def fourier_multiplier_matrix(a, g: Grid) -> np.ndarray:
    """Dense circulant of the multiplier a(eta); real if a is even on the lattice."""
    vals = np.asarray(a(g.eta_fft), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = g.eta_fft[~np.isfinite(vals)][0]
        raise EvaluationError(f"non-finite multiplier value at xi={bad}")
    col = np.fft.ifft(vals)
    even = np.array_equal(vals, vals[reverse_indices(g.n_points)])
    return circulant(col.real if even else col)


def apply_fourier_multiplier(a: SymbolA, g: Grid, v: np.ndarray) -> np.ndarray:
    """Apply a(xi)^w to a vector: DFT, pointwise multiply, inverse DFT."""
    v = np.asarray(v)
    if v.shape != (g.n_points,):
        raise ConfigurationError(
            f"vector length {v.shape} does not match grid N={g.n_points}")
    return np.fft.ifft(np.asarray(a(g.eta_fft), dtype=float) * np.fft.fft(v))


def assemble_L(m: Model, g: Grid) -> OperatorMatrix:
    """Matrix of a(xi) + h b(x, xi).

    When b does not depend on xi the quantization splits exactly into the
    circulant of a plus h times the diagonal of V; otherwise the combined
    symbol goes through the anti-diagonal assembly.
    """
    if m.b.xi_independent:
        M = fourier_multiplier_matrix(m.a.evaluator, g)
        V = np.asarray(m.potential(g.x_nodes), dtype=float)
        if not np.all(np.isfinite(V)):
            bad = g.x_nodes[~np.isfinite(V)][0]
            raise EvaluationError(f"non-finite potential value at x={bad}")
        M[np.diag_indices_from(M)] += g.h * V
        return _symmetrize(M, g)

    def combined(x, xi):
        return m.a(xi) + g.h * m.b(x, xi)

    return weyl_matrix(combined, g)


# --------------------------------------------------------------------------
# binary dump (little-endian; 16-byte header: magic, u32 N, f64 h)
# --------------------------------------------------------------------------

def dump_matrix(M: OperatorMatrix, path) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", M.N))
        f.write(struct.pack("<d", M.grid.h))
        f.write(np.ascontiguousarray(M.entries, dtype="<c16").tobytes())


def load_matrix(path):
    """Read a dumped matrix; returns (entries, N, h)."""
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16 or head[:4] != _MAGIC:
            raise ConfigurationError(f"{path}: not a matrix dump (bad magic)")
        N = struct.unpack("<I", head[4:8])[0]
        h = struct.unpack("<d", head[8:16])[0]
        data = np.frombuffer(f.read(), dtype="<c16")
    if data.size != N * N:
        raise ConfigurationError(
            f"{path}: payload has {data.size} entries, expected {N*N}")
    return data.reshape(N, N).copy(), N, h
