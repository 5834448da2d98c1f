"""Effective Schrodinger operator and the one-term splitting formula.

The double-well operator's low-lying spectrum is governed, after the
rescaling hbar = sqrt(h), by

    M_hbar = -hbar^2 (a''(0)/2) d^2/dx^2 + b(x, 0),

discretized pseudo-spectrally: the kinetic part is the exact Fourier
multiplier (a''(0)/2) eta^2 on the hbar-matched momentum lattice, even in
eta, so M_hbar is real symmetric. Its ground-state gap admits the classical
one-term asymptotics A hbar^(1/2) exp(-S/hbar), which this module evaluates.
"""

from __future__ import annotations

import numpy as np

from .model import Model, derived_constants
from .quantize import (Grid, OperatorMatrix, fourier_multiplier_matrix,
                       make_grid, _symmetrize)
from .spectra import gap_near_residual, lowest_eigenpairs

__all__ = [
    "schrodinger_matrix", "assemble_Mhbar", "gap_Mhbar",
    "classical_splitting_formula",
]


def schrodinger_matrix(potential, g: Grid, hbar: float, a2: float) -> OperatorMatrix:
    """Dense matrix of -hbar^2 (a2/2) d^2 + potential on the grid window.

    The grid's own momentum lattice must already be matched to hbar
    (g.h == hbar); use assemble_Mhbar for automatic rebuilding.
    """
    M = fourier_multiplier_matrix(lambda eta: 0.5 * a2 * eta * eta, g)
    M[np.diag_indices_from(M)] += np.asarray(potential(g.x_nodes), dtype=float)
    return _symmetrize(M, g)


def assemble_Mhbar(m: Model, g: Grid, hbar: float) -> OperatorMatrix:
    """Effective operator at hbar, rebuilding the momentum lattice if needed.

    The returned matrix's grid carries hbar as its semiclassical parameter.
    """
    if abs(g.h - hbar) > 1e-15:
        g = make_grid(g.length, g.n_points, hbar)
    return schrodinger_matrix(m.potential, g, hbar, derived_constants(m).a2)


def gap_Mhbar(m: Model, g: Grid, hbar: float) -> float:
    """Ground-state gap lambda_2 - lambda_1 of the effective operator."""
    pairs = lowest_eigenpairs(assemble_Mhbar(m, g, hbar), 2)
    gap_near_residual(pairs, "effective gap")
    return float(pairs[1].value - pairs[0].value)


def classical_splitting_formula(m: Model, hbar: float) -> float:
    """One-term gap prediction A sqrt(hbar) exp(-S/hbar)."""
    consts = derived_constants(m)
    return float(consts.A * np.sqrt(hbar) * np.exp(-consts.S / hbar))
