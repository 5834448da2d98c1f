"""Discrete Weyl quantization on a periodic grid.

A symbol p(x, xi) becomes the dense matrix

    M[j, k] = (1/N) sum_m p((x_j + x_k)/2, eta_m) exp(2 pi i m (j - k)/N),

with eta_m = 2 pi h m / L for m = -N/2 .. N/2 - 1. Along an anti-diagonal
j + k = c the midpoint is constant, so each anti-diagonal is one length-N
inverse DFT of p(midpoint, .), done a small block at a time into the one
N x N result; the full matrix costs O(N^2 log N). Entries (j, c - j) and
(c - j, j) read W_c[n] and W_c[-n] of one such DFT, and for a real symbol
W_c[-n] = conj W_c[n] up to FFT roundoff. One rule makes every result
exactly Hermitian: _symmetrize averages each inverse-DFT row with its
reflected conjugate, (W[n] + conj W[-n]) * 0.5, before the scatter, which is
0.5 (M + M^H) entry for entry with no pass over the N x N matrix.

A multiplier a(xi) plus a diagonal h V(x) is held as the first column of its
circulant and its main diagonal, O(N) numbers from which every product,
norm, parity block and dense copy is made. A multiplier even on the lattice
gives a real column (the inverse DFT of a real even sequence is real);
symbols coupling x and xi stay complex Hermitian N x N matrices. A
circulant's column goes through the same _symmetrize, an O(N) average that
gives the Hermitian part of the circulant. Only this module reads the
stored form; the rest of the package calls OperatorMatrix's methods, among
them reflection_symmetric, read off the operator's own numbers, on which
spectra.lowest_eigenpairs solves two parity sectors separately.

The numpy and scipy wheels each bundle an OpenBLAS with its own thread pool.
Products of a dense matrix with a vector call scipy's compiled gemv
(OperatorMatrix.apply, through _lapack, without importing scipy.linalg), the
library that also runs the eigensolves; circulant products use numpy's FFT
and N x N norms an einsum (frobenius_norm), neither of which calls BLAS.
numpy's pool then stays idle instead of spinning its workers against scipy's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._lapack import gemv
from .errors import ConfigurationError
from .model import Model, _finite

__all__ = [
    "Grid", "OperatorMatrix", "frobenius_norm", "auto_points", "make_grid",
    "weyl_matrix", "assemble_L", "reverse_indices", "dump_matrix", "load_matrix",
]

# largest N auto_points tries; no dense matrix of this size fits in memory
MAX_POINTS = 2**20

_MAGIC = b"PDOW"

# anti-diagonals per FFT batch during assembly
_BLOCK = 64


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid with the matched discrete momentum lattice.

    x_nodes[j] = -L/2 + j dx and eta_m = 2 pi h m / L for m = -N/2 .. N/2 - 1
    (eta_fft, in FFT order). The pairing satisfies
    exp(i (x_j - x_k) eta_m / h) = exp(2 pi i m (j - k)/N) exactly.
    """
    n_points: int
    length: float
    h: float
    dx: float
    x_nodes: np.ndarray

    @property
    def cutoff(self) -> float:
        """Momentum cutoff Xi = pi h N / L."""
        return np.pi * self.h * self.n_points / self.length

    @property
    def eta_fft(self) -> np.ndarray:
        """Momentum lattice in FFT storage order (0 .. N/2-1, -N/2 .. -1)."""
        return 2.0*np.pi*self.h/self.length * np.fft.fftfreq(self.n_points, d=1.0/self.n_points)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """The dx-weighted inner product <u, v> = dx * sum u conj(v)."""
        return complex(self.dx * np.sum(u * np.conj(v)))


@dataclass
class OperatorMatrix:
    """Hermitian operator on the grid, real symmetric when its symbol is even in xi.

    A dense operator is entries + diag(diagonal); the optional real diagonal
    lets it share another's entries (plus_diagonal). A circulant plus a
    diagonal holds no N x N array: entries is None, column is the first
    column of the circulant that gives its off-diagonal entries, and
    diagonal is its whole real main diagonal. dense() materializes either
    form. These fields are read in this module only.
    """
    grid: Grid
    entries: np.ndarray | None = field(default=None)
    column: np.ndarray | None = field(default=None)
    diagonal: np.ndarray | None = field(default=None)

    @property
    def N(self) -> int:
        return len(self.column if self.entries is None else self.entries)

    @property
    def reflection_symmetric(self) -> bool:
        """True when U M U == M bit for bit (U = reverse_indices): a real
        circulant column and a diagonal that reversal leaves unchanged. A
        dense operator reads False."""
        if self.entries is not None:
            return False
        rev = reverse_indices(self.N)
        return (not np.iscomplexobj(self.column)
                and np.array_equal(self.column[rev], self.column)
                and np.array_equal(self.diagonal[rev], self.diagonal))

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The operator in out, overwritten, or in a new Fortran-ordered array."""
        if out is None:
            held = self.column if self.entries is None else self.entries
            out = np.empty((self.N, self.N), dtype=held.dtype, order="F")
        if self.entries is None:
            out[...] = _circulant_view(self.column)
            out[np.diag_indices_from(out)] = self.diagonal
        else:
            out[...] = self.entries
            if self.diagonal is not None:
                out[np.diag_indices_from(out)] += self.diagonal
        return out

    def plus_diagonal(self, d: np.ndarray) -> "OperatorMatrix":
        """M + diag(d), sharing M's entries or circulant column; M is unchanged."""
        return replace(self, diagonal=d if self.diagonal is None else d + self.diagonal)

    def frobenius_norm(self) -> float:
        """||M||_F, in O(N) from the column and diagonal of a circulant."""
        if self.entries is not None:
            return frobenius_norm(self.dense())
        return math.hypot(math.sqrt(self.N) * np.linalg.norm(self.column[1:]),
                          np.linalg.norm(self.diagonal))

    def parity_block(self, parity: float) -> np.ndarray:
        """M[a, b] +- M[a, N - b] for 0 <= a, b <= N/2 (+1) or 0 < a, b < N/2 (-1).

        A new C-ordered array read off a circulant's column: M[a, b] is a
        Toeplitz block with M's diagonal, and M[a, N - b] = col[a + b] a
        Hankel block, diagonal only where a = b = 0 or N/2.
        """
        col, diag, half = self.column, self.diagonal, self.N // 2
        lo, hi = (0, half + 1) if parity > 0 else (1, half)
        n = hi - lo
        block = np.array(_circulant_view(col)[lo:hi, lo:hi])
        block[np.diag_indices(n)] = diag[lo:hi]
        if parity < 0:
            block -= sliding_window_view(col[2:], n)[:n]
        else:
            block += sliding_window_view(np.append(col, col[0]), n)
            block[[0, half], [0, half]] = 2.0 * diag[[0, half]]
        return block

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M @ v: by FFT of the off-diagonal column plus diagonal * v, or by
        scipy's compiled gemv on entries.T, Fortran-contiguous, trans=1."""
        if self.entries is None:
            off = self.column.copy()
            off[0] = 0.0
            if np.iscomplexobj(off) or np.iscomplexobj(v):
                out = np.fft.ifft(np.fft.fft(off) * np.fft.fft(v))
            else:
                out = np.fft.irfft(np.fft.rfft(off) * np.fft.rfft(v), self.N)
            return out + self.diagonal * v
        out = gemv(self.entries, v)
        return out if self.diagonal is None else out + self.diagonal * v


def _circulant_view(col: np.ndarray) -> np.ndarray:
    """Read-only N x N view C[j, k] = col[(j - k) mod N] over 2N - 1 numbers."""
    rev = col[::-1]
    return sliding_window_view(np.concatenate((rev, rev[:-1])), len(col))[::-1]


def frobenius_norm(A: np.ndarray) -> float:
    """sqrt(sum |A_ij|^2) by an einsum reduction, which calls no BLAS."""
    if np.iscomplexobj(A):
        return math.sqrt(np.einsum("ij,ij->", A.real, A.real)
                         + np.einsum("ij,ij->", A.imag, A.imag))
    return math.sqrt(np.einsum("ij,ij->", A, A))


def reverse_indices(N: int) -> np.ndarray:
    """Index permutation realizing x -> -x, and eta -> -eta in FFT order."""
    return (-np.arange(N)) % N


def auto_points(L: float, h: float, xi_min: float, floor: int = 512) -> int:
    """Smallest power of two N >= floor with pi h N / L >= xi_min.

    L outside (0, inf), h outside (0, 1], a non-finite or negative xi_min
    (nan and any negative value meet the cutoff vacuously) and a cutoff no
    N <= MAX_POINTS meets are configuration errors.
    """
    if not 0.0 < L < math.inf:
        raise ConfigurationError(f"domain length must be positive, got {L}")
    if not (0.0 < h <= 1.0):
        raise ConfigurationError(f"semiclassical parameter must be in (0, 1], got {h}")
    if not math.isfinite(xi_min):
        raise ConfigurationError(f"xi_min must be finite, got {xi_min}")
    if xi_min < 0.0:
        raise ConfigurationError(f"xi_min must be >= 0, got {xi_min}")
    N = floor
    while math.pi * h * N / L < xi_min:
        N *= 2
        if N > MAX_POINTS:
            raise ConfigurationError(
                f"no N <= {MAX_POINTS} meets pi*h*N/L >= {xi_min} at h = {h}, L = {L}")
    return N


def make_grid(L: float, N: int, h: float, xi_min: float = 3.0) -> Grid:
    """Build the grid, enforcing the momentum cutoff pi h N / L >= xi_min."""
    n_min = auto_points(L, h, xi_min, floor=2)
    if N < 2 or (N & (N - 1)) != 0:
        raise ConfigurationError(f"N must be a power of two >= 2, got {N}")
    if N < n_min:
        raise ConfigurationError(
            f"momentum cutoff pi*h*N/L = {np.pi * h * N / L:.4f} < {xi_min}; "
            f"smallest admissible power of two is N = {n_min}")
    dx = L / N
    x = -L/2.0 + dx * np.arange(N)
    return Grid(n_points=N, length=L, h=h, dx=dx, x_nodes=x)


def _symmetrize(W: np.ndarray) -> None:
    """Average each row W[..., n] in place with its reflected conjugate."""
    W += np.conj(W[..., reverse_indices(W.shape[-1])])
    W *= 0.5


def weyl_matrix(p, g: Grid) -> OperatorMatrix:
    """Assemble the Weyl matrix of the symbol evaluator p(x, xi).

    Anti-diagonal c = j + k has constant midpoint s_c = -L/2 + c dx/2
    (no periodic wrapping of midpoints); one inverse DFT per anti-diagonal,
    batched in blocks. The entry rule is M[j, c-j] = W_c[(2j - c) mod N],
    one fancy-index assignment per block.
    """
    N = g.n_points
    eta = g.eta_fft
    mids = -g.length/2.0 + np.arange(2*N - 1) * (g.dx/2.0)
    M = np.zeros((N, N), dtype=np.complex128)
    j = np.arange(N)
    for start in range(0, 2*N - 1, _BLOCK):
        cs = np.arange(start, min(start + _BLOCK, 2*N - 1))
        P = _finite("symbol", p(mids[cs][:, None], eta[None, :]),
                    x=mids[cs], xi=eta)
        W = np.fft.ifft(P, axis=1)
        _symmetrize(W)
        # (i, js) for every entry j + k = cs[i] with 0 <= k < N
        i, js = np.nonzero((j <= cs[:, None]) & (j > cs[:, None] - N))
        M[js, cs[i] - js] = W[i, (2*js - cs[i]) % N]
    return OperatorMatrix(g, entries=M)


def _multiplier_column(a, g: Grid) -> np.ndarray:
    """First column of the circulant of a(eta); real if a is even on the lattice."""
    vals = _finite("multiplier", a(g.eta_fft), xi=g.eta_fft)
    col = np.fft.ifft(vals)
    even = np.array_equal(vals, vals[reverse_indices(g.n_points)])
    # a contiguous array, not a strided view into the complex one
    return col.real.copy() if even else col


def _circulant_plus_diagonal(a, potential, coupling: float, g: Grid) -> OperatorMatrix:
    """Hermitian circulant of the multiplier a(xi) plus the diagonal coupling V(x).

    C[j, k] = col[(j - k) mod N], so C^H is the circulant of conj(col[rev]),
    and the column _symmetrize averages gives 0.5 (C + C^H) bit for bit. A
    real column is then even, so the result is reflection symmetric when
    its diagonal is.
    """
    col = _multiplier_column(a, g)
    _symmetrize(col)
    V = np.broadcast_to(_finite("potential", potential(g.x_nodes), x=g.x_nodes),
                        (g.n_points,))
    return OperatorMatrix(g, column=col, diagonal=col[0].real + coupling * V)


def assemble_L(m: Model, g: Grid) -> OperatorMatrix:
    """Matrix of a(xi) + h b(x, xi).

    When b does not depend on xi the quantization splits exactly into the
    circulant of a plus h times the diagonal of V; otherwise the combined
    symbol goes through the anti-diagonal assembly.
    """
    if m.xi_independent:
        return _circulant_plus_diagonal(m.a, m.potential, g.h, g)

    def combined(x, xi):
        return m.a(xi) + g.h * m.b(x, xi)

    return weyl_matrix(combined, g)


# --------------------------------------------------------------------------
# binary dump (little-endian; 16-byte header: magic, u32 N, f64 h)
# --------------------------------------------------------------------------

def dump_matrix(M: OperatorMatrix, f) -> None:
    """Write M to f, a binary file open for writing."""
    f.write(_MAGIC + struct.pack("<Id", M.N, M.grid.h))
    f.write(M.dense().astype("<c16", copy=False).tobytes(order="C"))


def load_matrix(path):
    """Read a dumped matrix; returns (entries, N, h)."""
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16 or head[:4] != _MAGIC:
            raise ConfigurationError(f"{path}: not a matrix dump (bad magic)")
        N, h = struct.unpack("<Id", head[4:16])
        payload = f.read()
    if len(payload) != 16 * N * N:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, expected {16*N*N}")
    return np.frombuffer(payload, dtype="<c16").reshape(N, N).copy(), N, h
