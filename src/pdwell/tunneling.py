"""Tunneling splitting: measurement, interaction term, and 2x2 reduction.

The exponentially small gap lambda_2 - lambda_1 of the double-well operator
is measured directly and compared against three independent routes:

  * the interaction term w_h = <(L_h - mu) f_l, f_r> built from cut-off
    one-well ground states, predicting a gap of 2|w_h|;
  * the 2x2 Gram reduction of the quadratic form onto the projected
    states g_* = Pi_h f_*;
  * the closed-form asymptotics, via the effective operator's gap at
    hbar = sqrt(h) and via the explicit constant of the interaction term.

Inner products are dx-weighted throughout, matching the eigenpair
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh, inv, sqrtm

from .errors import DegeneracyError
from .model import Model, derived_constants
from .quantize import Grid, OperatorMatrix, assemble_L, make_grid
from .spectra import Eigenpair, gap_near_residual, lowest_eigenpairs, reverse_indices
from .wkb import AgmonPhase, SealingFunction, smoothstep
from .effective import gap_Mhbar

__all__ = [
    "CutoffPair", "InteractionReport", "cutoff_pair", "measured_splitting",
    "interaction_term", "gram_reduction", "predicted_splitting_theorem",
    "interaction_asymptotic",
]


@dataclass
class CutoffPair:
    """Smooth overlap cutoffs: chi_left = 1 on [-A, x_r - 2 eta], vanishing
    left of -2A and right of x_r - eta; chi_right is its reflection."""
    chi_left: Callable
    chi_right: Callable
    A_window: float
    eta: float


def cutoff_pair(phase: AgmonPhase, seal: SealingFunction) -> CutoffPair:
    A = phase.A_window
    eta = seal.eta
    x_r = phase.model.x_right

    def chi_left(x):
        x = np.asarray(x, dtype=float)
        return (smoothstep(2.0*(x + 2.0*A)/A - 1.0)
                * smoothstep(1.0 - 2.0*(x - (x_r - 2.0*eta))/eta))

    def chi_right(x):
        return chi_left(-np.asarray(x, dtype=float))

    return CutoffPair(chi_left=chi_left, chi_right=chi_right,
                      A_window=A, eta=eta)


@dataclass
class InteractionReport:
    h: float
    mu: float                 # lambda_1 of the sealed operator
    w_h: complex              # <(L_h - mu) f_l, f_r>
    overlap: complex          # <f_l, f_r>
    gram_eigen_gap: float     # gap of G^(-1/2) L G^(-1/2)
    measured_gap: float       # lambda_2 - lambda_1 of L_h
    thm_prediction: float     # h * effective-operator gap at sqrt(h)
    formula_prediction: float  # 2 * interaction_asymptotic
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    gap23: float = 0.0
    precision_flag: bool = False


def _inner(g: Grid, u: np.ndarray, v: np.ndarray) -> complex:
    return complex(g.dx * np.sum(u * np.conj(v)))


def measured_splitting(m: Model, g: Grid):
    """Direct gaps of the double-well operator: (gap12, gap23, lambda1)."""
    pairs = lowest_eigenpairs(assemble_L(m, g), 3)
    gap_near_residual(pairs, "splitting")
    return (pairs[1].value - pairs[0].value, pairs[2].value - pairs[1].value,
            pairs[0].value)


def gram_reduction(psi_l: Eigenpair, psi_r: Eigenpair, cut: CutoffPair,
                   M: OperatorMatrix, mu: float, basis: list[Eigenpair]):
    """2x2 reduction onto the projected cut-off states.

    Builds f_* = chi_* psi_*, projects onto the span of basis (the two
    lowest eigenpairs of M), and returns (G, L, gap) where G is the Gram
    matrix, L the quadratic-form matrix of M - mu, and gap the eigenvalue
    difference of G^(-1/2) L G^(-1/2). The mu-shift leaves gap unchanged.
    """
    g = M.grid
    x = g.x_nodes
    f_l = cut.chi_left(x) * psi_l.vector
    f_r = cut.chi_right(x) * psi_r.vector

    def project(v):
        return sum(e.vector * _inner(g, v, e.vector) for e in basis)

    g_l, g_r = project(f_l), project(f_r)
    pair = (g_l, g_r)
    G = np.array([[_inner(g, a, b) for b in pair] for a in pair])
    G = 0.5 * (G + G.conj().T)
    if float(np.min(eigvalsh(G))) <= 0.0:
        raise DegeneracyError(
            f"Gram matrix lost positive definiteness (eigenvalues {eigvalsh(G)}); "
            "well localization broke down")

    shifted = [M.entries @ v - mu * v for v in pair]
    L = np.array([[_inner(g, sv, b) for b in pair] for sv in shifted])
    L = 0.5 * (L + L.conj().T)

    Gh_inv = inv(sqrtm(G))
    T = Gh_inv @ L @ Gh_inv.conj().T
    evals = eigvalsh(0.5 * (T + T.conj().T))
    return G, L, float(evals[1] - evals[0])


def interaction_term(m: Model, M: OperatorMatrix, pairs: list[Eigenpair],
                     ow: Eigenpair, cut: CutoffPair) -> InteractionReport:
    """Compute w_h and every gap route at the h of M's grid.

    M is the assembled L_h and pairs its three lowest eigenpairs; ow is the
    ground pair of the sealed left-well operator. The only solve made here
    is the effective operator's, for the theorem prediction.
    """
    g = M.grid
    lam = [p.value for p in pairs]
    gap12, gap23 = lam[1] - lam[0], lam[2] - lam[1]
    flag = gap_near_residual(pairs, "splitting")

    mu = ow.value
    rev = reverse_indices(g.n_points)
    psi_r = Eigenpair(value=ow.value, vector=ow.vector[rev], residual=ow.residual)

    f_l = cut.chi_left(g.x_nodes) * ow.vector
    f_r = f_l[rev]
    w_h = _inner(g, M.entries @ f_l - mu * f_l, f_r)
    overlap = _inner(g, f_l, f_r)

    _, _, gram_gap = gram_reduction(ow, psi_r, cut, M, mu, pairs[:2])

    g_eff = make_grid(g.length, g.n_points, np.sqrt(g.h))
    thm = predicted_splitting_theorem(m, g_eff, g.h)
    formula = 2.0 * interaction_asymptotic(m, g.h)

    return InteractionReport(h=g.h, mu=mu, w_h=w_h, overlap=overlap,
                             gram_eigen_gap=gram_gap, measured_gap=gap12,
                             thm_prediction=thm, formula_prediction=formula,
                             lambda1=lam[0], lambda2=lam[1], lambda3=lam[2],
                             gap23=gap23, precision_flag=flag)


def predicted_splitting_theorem(m: Model, g_eff: Grid, h: float) -> float:
    """Main prediction: h times the effective operator's gap at hbar = sqrt(h)."""
    return float(h * gap_Mhbar(m, g_eff, np.sqrt(h)))


def interaction_asymptotic(m: Model, h: float) -> float:
    """Closed-form |w_h| asymptotics.

    2 (a2/2)^(1/4) h^(5/4) sqrt(V(0)) sqrt(kappa/pi) exp(-I) exp(-S/sqrt h),
    with I the regularized prefactor integral over (x_left, 0) and S the
    phase value Phi(x_r) = sqrt(2/a2) int sqrt(V). Twice this value equals
    h * classical_splitting_formula(sqrt h) identically.
    """
    consts = derived_constants(m)
    return float(2.0 * (consts.a2/2.0)**0.25 * h**1.25
                 * np.sqrt(consts.V0) * np.sqrt(consts.kappa/np.pi)
                 * np.exp(-consts.prefactor_integral)
                 * np.exp(-consts.S/np.sqrt(h)))
