"""Tunneling splitting: interaction term, 2x2 reduction, and predictions.

The exponentially small gap lambda_2 - lambda_1 of the double-well operator,
read from its lowest eigenpairs, is compared against three routes:

  * the interaction term w_h = <(L_h - mu) f_l, f_r> built from cut-off
    one-well ground states, predicting a gap of 2|w_h|;
  * the 2x2 Gram reduction of the quadratic form onto the projected
    states g_* = Pi_h f_*, with the same f_l and f_r. It is not
    independent: Pi_h projects onto the two lowest eigenvectors of L_h,
    so it returns lambda_2 - lambda_1 by construction (to 5.1e-12 on
    the default rows), and a check of it tests that identity;
  * the asymptotics: the effective operator's gap at hbar = sqrt(h)
    (effective.gap_Mhbar) and the closed-form interaction_asymptotic.

Inner products are dx-weighted throughout, matching the eigenpair
normalization.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._lapack import eigvalsh
from .errors import DegeneracyError
from .model import Model, derived_constants
from .quantize import OperatorMatrix, reverse_indices
from .spectra import Eigenpair
from .wkb import AgmonPhase, smoothstep

__all__ = [
    "overlap_cutoff", "interaction_term", "gram_reduction",
    "interaction_asymptotic",
]


def overlap_cutoff(phase: AgmonPhase) -> Callable:
    """Smooth cutoff chi_left = 1 on [-A, x_r - 2 eta], vanishing left of
    -2A and right of x_r - eta, with eta the width of phase's seal; the
    right state is the grid reflection of the left one, so no right cutoff
    is built."""
    A = phase.A_window
    eta = phase.seal.eta
    x_r = phase.model.x_right

    def chi_left(x):
        x = np.asarray(x, dtype=float)
        return (smoothstep(2.0*(x + 2.0*A)/A - 1.0)
                * smoothstep(1.0 - 2.0*(x - (x_r - 2.0*eta))/eta))

    return chi_left


def gram_reduction(f_l: np.ndarray, f_r: np.ndarray, M: OperatorMatrix,
                   mu: float, basis: list[Eigenpair]):
    """2x2 reduction onto the projected cut-off states.

    Projects the states f_l and f_r onto the span of basis (the two lowest
    eigenpairs of M), and returns (G, L, gap) where G is the Gram matrix,
    L the quadratic-form matrix of M - mu, and gap the eigenvalue
    difference of the generalized problem L c = lambda G c (that of
    G^(-1/2) L G^(-1/2)). The mu-shift leaves gap unchanged.
    """
    g = M.grid

    def project(v):
        return sum(e.vector * g.inner(v, e.vector) for e in basis)

    pair = (project(f_l), project(f_r))
    G = np.array([[g.inner(a, b) for b in pair] for a in pair])
    G = 0.5 * (G + G.conj().T)
    if float(np.min(eigvalsh(G))) <= 0.0:
        raise DegeneracyError(
            f"Gram matrix lost positive definiteness (eigenvalues {eigvalsh(G)}); "
            "well localization broke down")

    shifted = [M.apply(v) - mu * v for v in pair]
    L = np.array([[g.inner(sv, b) for b in pair] for sv in shifted])
    L = 0.5 * (L + L.conj().T)

    evals = eigvalsh(L, G)
    return G, L, float(evals[1] - evals[0])


def interaction_term(M: OperatorMatrix, pairs: list[Eigenpair], ow: Eigenpair,
                     chi_left: Callable) -> tuple[complex, complex, float]:
    """(w_h, overlap, gram_gap) at the h of M's grid.

    M is the assembled L_h and pairs its lowest eigenpairs (two or more);
    ow is the ground pair of the sealed left-well operator, mu = ow.value.
    The left state f_l = chi_left ow and its grid reflection f_r feed
    w_h = <(L_h - mu) f_l, f_r>, the overlap <f_l, f_r> and the Gram route
    alike. No eigensolve is made here.
    """
    g = M.grid
    mu = ow.value
    f_l = chi_left(g.x_nodes) * ow.vector
    f_r = f_l[reverse_indices(g.n_points)]
    w_h = g.inner(M.apply(f_l) - mu * f_l, f_r)
    overlap = g.inner(f_l, f_r)

    _, _, gram_gap = gram_reduction(f_l, f_r, M, mu, pairs[:2])
    return w_h, overlap, gram_gap


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
