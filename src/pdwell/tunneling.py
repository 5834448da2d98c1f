"""Tunneling splitting: interaction term and 2x2 reduction.

The exponentially small gap lambda_2 - lambda_1 of the double-well operator,
read from its lowest eigenpairs, is compared against two routes built here:

  * the interaction term w_h = <(L_h - mu) f_l, f_r> built from cut-off
    one-well ground states, predicting a gap of 2|w_h|;
  * the 2x2 Gram reduction of L_h onto the projected states
    g_* = Pi_h f_*, with the same f_l and f_r. It is not independent:
    Pi_h projects onto the two lowest eigenvectors e_1, e_2 of L_h, and
    whenever the coefficients C[a, j] = <f_a, e_j> have det C != 0 the
    reduced pencil has the eigenvalues of E[j, k] = <L_h e_j, e_k>, which
    are lambda_1 and lambda_2 up to roundoff. So the route returns E's gap
    in closed form, and a check of it tests that identity.

The asymptotic predictions come from the effective operator, in effective.

The cutoff chi_left that makes f_l is an argument, built once per sweep
with the Agmon phase (wkb.agmon_phase); this module builds none. Inner
products are dx-weighted throughout, matching the eigenpair normalization.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DegeneracyError
from .quantize import OperatorMatrix, reverse_indices
from .spectra import Eigenpair

__all__ = ["interaction_term", "gram_reduction"]


def gram_reduction(f_l: np.ndarray, f_r: np.ndarray, M: OperatorMatrix,
                   basis: list[Eigenpair]) -> float:
    """Eigenvalue gap of M reduced onto the projected cut-off states.

    With e_1, e_2 the vectors of basis (the two lowest eigenpairs of M), the
    projections of f_l and f_r are sum_j C[a, j] e_j, C[a, j] = <f_a, e_j>.
    Their Gram matrix is G = C C^H and their form matrix C E C^H, with
    E[j, k] = <M e_j, e_k>; when det C != 0 the pencil has E's eigenvalues,
    whatever f_l and f_r are, so the gap is E's: hypot(E22 - E11, 2 |E12|).
    DegeneracyError is raised only when the computed det C is exactly 0 or
    nan; nearly collinear projected states pass, and the gap, which does not
    depend on C, is as accurate for them as for any others.
    """
    g = M.grid
    e = [p.vector for p in basis]
    (c11, c12), (c21, c22) = [[g.inner(f, ej) for ej in e] for f in (f_l, f_r)]
    det = c11 * c22 - c12 * c21
    # written as not (|det| > 0), so a nan coefficient raises too
    if not abs(det) > 0.0:
        raise DegeneracyError(
            f"Gram matrix is singular (det C = {det:.3e}); "
            "well localization broke down")
    Me = [M.apply(ej) for ej in e]
    E11, E22, E12 = g.inner(Me[0], e[0]), g.inner(Me[1], e[1]), g.inner(Me[0], e[1])
    return math.hypot(E22.real - E11.real, 2.0 * abs(E12))


def interaction_term(M: OperatorMatrix, pairs: list[Eigenpair], ow: Eigenpair,
                     chi_left: Callable) -> tuple[complex, complex, float]:
    """(w_h, overlap, gram_gap) at the h of M's grid.

    M is the assembled L_h and pairs its lowest eigenpairs (two or more);
    ow is the ground pair of the sealed left-well operator, mu = ow.value,
    and chi_left is AgmonPhase.chi_left. The left state f_l = chi_left ow and
    its grid reflection f_r feed w_h = <(L_h - mu) f_l, f_r>, the overlap
    <f_l, f_r> and the Gram route alike. No eigensolve is made here.
    """
    g = M.grid
    mu = ow.value
    f_l = chi_left(g.x_nodes) * ow.vector
    f_r = f_l[reverse_indices(g.n_points)]
    w_h = g.inner(M.apply(f_l) - mu * f_l, f_r)
    return w_h, g.inner(f_l, f_r), gram_reduction(f_l, f_r, M, pairs[:2])

