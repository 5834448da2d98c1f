"""Acceptance gate: one end-to-end check per pinned criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers and
then asserts the same verdict. Criteria 3, 4, 5 and 6 state limits as
h -> 0, which the desk sweep (h = 0.09 ... 0.04, so hbar = sqrt(h) =
0.30 ... 0.20) does not reach. Each of them therefore checks its h -> 0
statement from the unflagged rows of the default sweep: a least-squares fit
in hbar carries the first corrections of the asymptotic formula, and the
fitted limit must meet the criterion's own tolerance. The desk-scale
numbers stay on the printed line. Criteria 3 and 10 are red for causes in
the program that their docstrings name. README.md walks through every line.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import pdwell
from pdwell.effective import schrodinger_matrix
from pdwell.quantize import _circulant_plus_diagonal


@pytest.fixture
def check(capsys):
    def _check(num, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
        assert ok, detail
    return _check


def unflagged(rows):
    return [r for r in rows if not r["precision_flag"]]


def hbar_limit(rows, values):
    """hbar -> 0 value of the least-squares quadratic in hbar = sqrt(h).

    The prefactors of the ladder and tunneling asymptotics are power series
    in hbar; over the desk rows the quadratic carries their first two terms.
    """
    hbar = np.sqrt([r["h"] for r in rows])
    return float(np.polyfit(hbar, values, 2)[-1])


def excited_gap_verdict(rows, c0):
    """Criterion 4: gap23 / (c0 h^{3/2}) tends to the ladder spacing 2, to 10%.

    The limit implies the half-gap clause gap23 >= c0 h^{3/2} for small h.
    """
    ratios = [r["gap23"] / (c0 * r["h"]**1.5) for r in rows]
    limit = hbar_limit(rows, ratios)
    ok = abs(limit - 2.0) <= 0.2
    return ok, ("gap23 / (c0 h^1.5) over sweep: "
                + " ".join(f"{q:.3f}" for q in ratios)
                + f"; hbar -> 0 limit {limit:.3f} within 10% of 2 "
                "(so >= 1, half the 2 c0 h^1.5 ladder gap, for small h)")


def splitting_ratio_verdict(rows):
    """Criterion 5: ratio_thm in [0.7, 1.3] at h = 0.05 and tending to 1."""
    at005 = next(r for r in rows if r["h"] == 0.05)
    band = 0.7 <= at005["ratio_thm"] <= 1.3
    ratios = [r["ratio_thm"] for r in rows]
    limit = hbar_limit(rows, ratios)
    ok = band and abs(limit - 1.0) <= 0.05
    return ok, (f"measured/(h * effective gap) at h=0.05: {at005['ratio_thm']:.4f} "
                f"in [0.7, 1.3]: {band}; |ratio-1| sequence "
                + " ".join(f"{abs(q - 1.0):.4f}" for q in ratios)
                + f"; hbar -> 0 limit {limit:.4f} (within 0.05 of 1)")


def action_fit_verdict(rows, S):
    """Criterion 6: the action fitted with the formula's prefactor is S to 5%.

    The fit is the sweep's own, pdwell.fit_action.
    """
    fitted = pdwell.fit_action(rows)[0]
    rel = abs(fitted - S) / S
    return rel <= 0.05, (f"fit of log(gap / h^1.25) = log A - S/hbar + alpha hbar: "
                         f"S {fitted:.4f} vs {S:.4f}, rel dev {100*rel:.2f}% (<= 5%)")


def test_criterion_01_quantization_exactness(model_a, model_b, check):
    g = pdwell.make_grid(8.0, 256, 0.07)
    mult = pdwell.weyl_matrix(lambda x, xi: model_a.potential(x) + 0.0*xi, g)
    dev_mult = float(np.max(np.abs(
        mult.entries - np.diag(model_a.potential(g.x_nodes)))))
    four = pdwell.weyl_matrix(lambda x, xi: model_a.a(xi) + 0.0*x, g)
    circulant = _circulant_plus_diagonal(model_a.a, lambda x: 0.0*x, 0.0, g)
    dev_four = float(np.max(np.abs(four.entries - circulant.dense())))
    M = pdwell.assemble_L(model_b, g)
    hermitian = np.array_equal(M.entries, M.entries.conj().T)
    ok = dev_mult <= 1e-12 and dev_four <= 1e-12 and hermitian
    check(1, ok,
          f"multiplication dev {dev_mult:.2e}, multiplier dev {dev_four:.2e} "
          f"(both <= 1e-12); ModelB's L_h == L_h^H exactly: {hermitian}")


def test_criterion_02_harmonic_oracle(check):
    g = pdwell.make_grid(16.0, 512, 0.1)
    M = schrodinger_matrix(lambda x: x**2, g, 2.0)
    pairs = pdwell.lowest_eigenpairs(M, 4)
    rel = max(abs(p.value - (2*n - 1)*0.1) / ((2*n - 1)*0.1)
              for n, p in enumerate(pairs, start=1))
    ok = rel <= 1e-8
    check(2, ok, f"harmonic levels 0.1/0.3/0.5/0.7 max rel dev {rel:.2e} (<= 1e-8)")


def test_criterion_03_one_well_ladder(sweep_report, consts_a, check):
    """lambda_n / h^{3/2} -> (2n-1) c0 for n = 1, 2, 3, each limit to 10%.

    Red for a cause in the program, not the extrapolation: n = 1 passes
    (limit 0.992), slots 2 and 3 do not (1.169 and 0.596). The default seal
    (eta = 0.4, height = 2 V(0)) peaks at height/e = 0.74, below V(0) = 1,
    and leaves two pockets in the sealed landscape, at x ~ 0.64 (level 0.31)
    and x ~ 1.37 (level 0.17). At desk h one-well slot 2 is the state trapped
    at x ~ 1.37, with 84-92% of its mass in x > 1. Slot 3 is then the left
    well's second ladder level, which this check compares with the third;
    the third, 5 c0 h^{3/2}, lies above the barrier for every h > 0.02.
    sealing_function meets its documented contract (a unique global
    minimum); PAPER.md does not settle whether the one-well construction
    must also exclude local pockets. Excluding them changes the sealed
    one-well operator and so every one-well column of every sweep row
    (lambda_ow1..3, the wkb and localization columns), which the
    benchmark's reference rows pin.
    """
    rows = unflagged(sweep_report.rows)
    devs, limits = {}, {}
    for n in (1, 2, 3):
        q = [r[f"lambda_ow{n}"] / ((2*n - 1) * consts_a.c0 * r["h"]**1.5)
             for r in rows]
        devs[n] = [abs(x - 1.0) for x in q]
        limits[n] = hbar_limit(rows, q)
    within = all(abs(lim - 1.0) <= 0.10 for lim in limits.values())
    mono = all(all(b < a for a, b in zip(seq, seq[1:])) for seq in devs.values())
    ok = within and mono
    check(3, ok,
          "lambda_n / ((2n-1) c0 h^1.5) hbar -> 0 limits: "
          + ", ".join(f"n={n}: {limits[n]:.3f}" for n in (1, 2, 3))
          + " (each within 10% of 1); rel devs at h=0.04: "
          + ", ".join(f"{devs[n][-1]:.3f}" for n in (1, 2, 3))
          + f"; monotone decrease over sweep: {mono}")


def test_criterion_04_excited_gap_clause(sweep_report, consts_a, check):
    check(4, *excited_gap_verdict(unflagged(sweep_report.rows), consts_a.c0))


def test_criterion_05_splitting_ratio(sweep_report, check):
    check(5, *splitting_ratio_verdict(unflagged(sweep_report.rows)))


def test_criterion_06_action_fit(sweep_report, consts_a, check):
    check(6, *action_fit_verdict(sweep_report.rows, consts_a.S))


def test_criterion_07_interaction_and_gram(sweep_report, check):
    rows = [r for r in sweep_report.rows if not r["precision_flag"]]
    inter = max(abs(r["two_abs_wh"] - r["gap12"]) / r["gap12"] for r in rows)
    gram = max(abs(r["gram_gap"] - r["gap12"]) / r["gap12"] for r in rows)
    ok = inter <= 0.3 and gram <= 0.05
    check(7, ok,
          f"max |2|w_h| - gap|/gap = {inter:.2e} (<= 0.3); "
          f"max gram-reduction dev {gram:.2e} (<= 0.05)")


def test_criterion_08_wkb_quality(sweep_report, check):
    hs = np.array([r["h"] for r in sweep_report.rows])
    res = np.array([r["wkb_residual"] for r in sweep_report.rows])
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    overlap_ok = all(r["wkb_overlap"] >= 1.0 - 2.0*np.sqrt(r["h"])
                     for r in sweep_report.rows)
    ok = slope >= 1.8 and overlap_ok
    check(8, ok,
          f"quasimode residual log-log slope {slope:.3f} (>= 1.8); "
          f"overlap >= 1 - 2 sqrt(h) at every h: {overlap_ok}")


def test_criterion_09_transport_eikonal(model_b, phase_a_left, grid05, check,
                                        eikonal_residual, transport_residual,
                                        phase_derivatives):
    """The oracles are the residual fixtures of conftest.py. The right
    well's amplitude is the left one's reflection, u_r(x) = u_l(-x): the
    symbol satisfies b(x, xi) = b(-x, -xi), so the reflection solves the
    right well's transport equation."""
    trans_xs = np.concatenate([np.linspace(-1.8, -1.05, 40),
                               np.linspace(-0.95, -0.2, 40)])
    # both sealed landscapes agree with the bare potential only on
    # (-0.6, 0.6); the product is constant exactly there
    inter = np.linspace(-0.55, 0.55, 111)
    details, ok = [], True
    seal_b = pdwell.sealing_function(model_b)
    cases = ((phase_a_left, "ModelA"),
             (pdwell.agmon_phase(model_b, seal_b), "ModelB"))
    for phl, tag in cases:
        eik = eikonal_residual(phl, grid05.x_nodes)
        tra = transport_residual(phl, trans_xs)
        prime, _ = phase_derivatives(phl)
        prod = (prime(inter)
                * phl.amplitude(inter)
                * np.conj(phl.amplitude(-inter)))
        const = float(np.max(np.abs(prod - prod.mean())) / abs(prod.mean()))
        ok = ok and eik <= 1e-8 and tra <= 1e-6 and const <= 1e-6
        details.append(f"{tag}: eikonal {eik:.1e}, transport {tra:.1e}, "
                       f"product constancy {const:.1e}")
    check(9, ok, "; ".join(details) + " (<= 1e-8 / 1e-6 / 1e-6)")


def test_criterion_10_localization(sweep_report, check):
    """One-well states 1..3 localize in space, in frequency and in Agmon norm.

    Red for three causes. (a) A program fault in
    spectra.agmon_weighted_norm: the eigenvectors live on the periodic grid,
    but the weight is the line phase Phi~, which jumps at the seam
    x = +-L/2 (Phi~(-4) = 2.17, Phi~(3.99) = 3.81). Every agmon_n is set by
    the node at x ~ 3.98 and grows as h falls (agmon_1 37.7 -> 157.6). With
    the distance on the circle, min(Phi~, Phi~(-L/2) + Phi~(L/2) - Phi~),
    agmon_1 falls from 4.83 to 3.19 instead. (b) Slot 2 is the seal-pocket
    state of criterion 3: its spatial tail is 0.9997, and even with the
    circle weight its Agmon norm grows 17.5x. (c) The tail bounds, 1e-6 in
    Fourier space and 1e-2 in space at h <= 0.05, are fixed-h thresholds;
    the ground state's spatial tail of 0.155 at h = 0.05 is its Gaussian
    width. Mending (a) and (b) changes agmon_1..3 and every one-well column
    of every sweep row, which the benchmark's reference rows pin, so this
    assertion waits for the change that renews them.
    """
    small = [r for r in sweep_report.rows if r["h"] <= 0.05]
    four = max(r[f"fourier_tail_{n}"] for r in small for n in (1, 2, 3))
    spat = max(r[f"spatial_tail_{n}"] for r in small for n in (1, 2, 3))
    growth = []
    for n in (1, 2, 3):
        seq = [r[f"agmon_{n}"] for r in sweep_report.rows]
        growth.append(max(seq) / seq[0])
    worst = max(growth)
    bounded = bool(np.isfinite(worst)) and worst <= 2.0
    ok = four <= 1e-6 and spat <= 1e-2 and bounded
    check(10, ok,
          f"max fourier tail {four:.2e} (<= 1e-6); max spatial tail "
          f"{spat:.2e} (<= 1e-2); max Agmon norm growth over sweep "
          f"{worst:.2f}x (common bound taken as <= 2x the h=0.09 value)")


def test_criterion_11_closed_form_identity(model_a, check):
    """The sweep's formula_pred, h * classical_splitting_formula(sqrt h),
    against the 2|w_h| form 4 (a2/2)^(1/4) h^(5/4) sqrt(V(0)) sqrt(kappa/pi)
    exp(-I) exp(-S/sqrt h), written here from inputs that share no code with
    derived_constants: ModelA's exact a2 = 2, kappa = sqrt 2 and V(0) = 1,
    and S and the prefactor integral I = int_{-1}^0 (w' - kappa)/w by quad
    on the analytic branch w = (1 - s^2)/sqrt(1 + s^4) of sqrt V, with w'
    in closed form. The bound 5e-8 admits the prefactor stencil's known
    1.0e-8 error (ROADMAP item 23); A scaled by 0.97 or 1.03 reads 3e-2.
    """
    a2, kappa, V0 = 2.0, np.sqrt(2.0), 1.0

    def w(s):
        return (1.0 - s*s) / np.sqrt(1.0 + s**4)

    def dw(s):
        return -2.0 * s * (1.0 + s*s) / (1.0 + s**4)**1.5

    tol = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
    S = np.sqrt(2.0 / a2) * quad(w, -1.0, 1.0, **tol)[0]
    I_A = quad(lambda s: (dw(s) - kappa) / w(s), -1.0, 0.0, **tol)[0]
    rng = np.random.default_rng(7)
    hs = rng.uniform(0.0, 1.0, 100)
    lhs = np.array([h * pdwell.classical_splitting_formula(model_a, np.sqrt(h))
                    for h in hs])
    rhs = (4.0 * (a2/2.0)**0.25 * hs**1.25 * np.sqrt(V0) * np.sqrt(kappa/np.pi)
           * np.exp(-I_A) * np.exp(-S / np.sqrt(hs)))
    rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    ok = rel <= 5e-8
    check(11, ok, f"h-scaled formula vs 2 w_h form from quad: max rel dev "
                  f"{rel:.2e} over 100 seeded h (<= 5e-8)")


def _scale_gap12(rows, factor):
    """Copies of rows with gap12, and ratio_thm built on it, times factor(h)."""
    out = []
    for r in rows:
        f = factor(r["h"])
        out.append({**r, "gap12": r["gap12"] * f, "ratio_thm": r["ratio_thm"] * f})
    return out


def test_corrected_verdicts_reject_perturbed_rows(sweep_report, consts_a):
    rows = unflagged(sweep_report.rows)
    c0, S = consts_a.c0, consts_a.S
    # limit 1.65
    assert not excited_gap_verdict(
        [{**r, "gap23": 0.8 * r["gap23"]} for r in rows], c0)[0]
    # limit 0.915
    assert not splitting_ratio_verdict(
        [{**r, "ratio_thm": 0.9 * r["ratio_thm"]} for r in rows])[0]
    # action shifted by 2%: limits 0.72 and 1.38
    for sign in (-1.0, 1.0):
        shifted = _scale_gap12(rows, lambda h: np.exp(sign * 0.02 * S / np.sqrt(h)))
        assert not splitting_ratio_verdict(shifted)[0]
    # action shifted by 7%: fitted S off by 6.0% and 8.0%
    for sign in (-1.0, 1.0):
        shifted = _scale_gap12(rows, lambda h: np.exp(sign * 0.07 * S / np.sqrt(h)))
        assert not action_fit_verdict(shifted, S)[0]
