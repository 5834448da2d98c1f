"""Effective Schrodinger operator and the one-term splitting formula.

The double-well operator's low-lying spectrum is governed, after the
rescaling hbar = sqrt(h), by

    M_hbar = -hbar^2 (a''(0)/2) d^2/dx^2 + b(x, 0),

discretized pseudo-spectrally on a grid whose semiclassical parameter is
hbar itself, sized by the same rule as every other operator's grid
(SweepConfig.grid_for(hbar)): the kinetic part is the exact Fourier
multiplier (a''(0)/2) eta^2 on that grid's momentum lattice, even in eta,
so M_hbar is real symmetric. When the potential is even at the nodes
bit for bit, as for the built-in models, M_hbar commutes exactly with the
reflection x -> -x and is solved in parity sectors, by gap_Mhbar alone.
Its ground-state gap admits the classical one-term asymptotics
A hbar^(1/2) exp(-S/hbar), which this module evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model, derived_constants
from .quantize import Grid, OperatorMatrix, _circulant_plus_diagonal
from .spectra import Eigenpair, gap_near_residual, lowest_eigenpairs

__all__ = [
    "EffectiveGap", "schrodinger_matrix", "assemble_Mhbar", "gap_Mhbar",
    "classical_splitting_formula",
]


@dataclass
class EffectiveGap:
    pairs: list[Eigenpair]   # the four lowest, ascending
    gap: float               # lambda_2 - lambda_1
    flag: bool               # gap_near_residual's precision flag


def schrodinger_matrix(potential, g: Grid, a2: float) -> OperatorMatrix:
    """Operator -hbar^2 (a2/2) d^2 + potential on the grid window.

    hbar is g.h: the kinetic multiplier (a2/2) eta^2 lives on the grid's
    momentum lattice.
    """
    return _circulant_plus_diagonal(lambda eta: 0.5 * a2 * eta * eta,
                                    potential, 1.0, g)


def assemble_Mhbar(m: Model, g: Grid) -> OperatorMatrix:
    """Effective operator at hbar = g.h on the grid g."""
    return schrodinger_matrix(m.potential, g, derived_constants(m).a2)


def gap_Mhbar(m: Model, g: Grid) -> EffectiveGap:
    """The effective operator's one solve at hbar = g.h, read by the sweep
    row and by `pdwell effective`; a set flag also warns."""
    pairs = lowest_eigenpairs(assemble_Mhbar(m, g), 4)
    flag = gap_near_residual(pairs, "effective gap")
    return EffectiveGap(pairs=pairs, gap=pairs[1].value - pairs[0].value, flag=flag)


def classical_splitting_formula(m: Model, hbar: float) -> float:
    """One-term gap prediction A sqrt(hbar) exp(-S/hbar), the formula's one
    spelling: `pdwell effective` tabulates it, and a sweep row's formula_pred
    is h times it at hbar = sqrt(h)."""
    consts = derived_constants(m)
    return float(consts.A * np.sqrt(hbar) * np.exp(-consts.S / hbar))
