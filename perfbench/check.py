"""Correctness check of `pdwell sweep` output that does not compare bytes.

CSV bytes change with the BLAS thread count and the CPU kernel OpenBLAS
picks, so the check compares numbers within tolerances set by what the dense
eigensolver can resolve:

* every seed: invariants that need no reference (no row raised an error,
  the Gram and interaction routes agree with the measured gap, the two
  lowest states have parity +1 and -1);
* the default seed: every known column against the reference rows in
  `reference/<workload>.csv`, with the per-column tolerances below.

A tolerance reads |value - reference| <= atol + rtol * |reference|.
"""

import csv
import io
import math
import re

EPS = 2.220446049250313e-16

# Eigenvalue precision of a dense Hermitian eigensolve is c * EPS * ||M||_2;
# for L_h on the benchmark's models ||L_h||_2 < 1.2 (a < 1, b < 1.05, h < 0.1).
# Across BLAS thread counts and CPU kernels the largest drift seen is 3e-15.
EIG = 64 * EPS
# Eigenvector angle error is EIG over the separation from the rest of the
# spectrum, which is above 1e-4 for every one-well state the sweep reports.
VEC = EIG / 1e-4

GRID_L = 8.0        # domain length of every workload config
A2 = 2.0            # a''(0) of a(xi) = xi^2 / (1 + xi^2)

GRAM_RTOL = 1e-6            # gram_gap against gap12
INTERACTION_RTOL = 0.3      # 2|w_h| against gap12, the `splitting --check` gate
PARITY_ATOL = 1e-8          # parity1 = +1, parity2 = -1

# column -> (atol, rtol); columns named here must be present in the output
FIXED = {
    "h": (0.0, 0.0),
    "precision_flag": (0.0, 0.0),
    # eigenvalues of L_h and of the sealed one-well operator
    **{c: (EIG, 0.0) for c in (
        "lambda1", "lambda2", "lambda3", "gap12", "gap23", "mu", "gram_gap",
        "lambda_ow1", "lambda_ow2", "lambda_ow3")},
    # inner products of unit vectors through L_h - mu
    **{c: (EIG, 0.0) for c in (
        "re_wh", "im_wh", "two_abs_wh", "overlap_abs", "wkb_residual")},
    # quadratic forms in eigenvectors: overlaps, parities and mass fractions
    **{c: (VEC, 0.0) for c in (
        "wkb_overlap", "parity1", "parity2",
        "fourier_tail_1", "fourier_tail_2", "fourier_tail_3",
        "spatial_tail_1", "spatial_tail_2", "spatial_tail_3")},
    # closed forms and quadratures that involve no eigensolve
    **{c: (0.0, 1e-12) for c in ("formula_pred", "wkb_lambda", "norm_raw")},
    # exp(0.8 Phi / sqrt(h)) weights amplify eigenvector error in the tail;
    # the largest drift seen across thread counts is 2.4e-7 relative
    **{c: (0.0, 1e-5) for c in ("agmon_1", "agmon_2", "agmon_3")},
}
DERIVED = ("thm_pred", "ratio_thm", "ratio_formula")
COLUMNS = tuple(FIXED) + DERIVED

_FLAGGED = re.compile(r"^flagged: h=([^:]+): (.*)$")


def thm_atol(h, N):
    """Precision of h * gap(M_hbar): M_hbar at hbar = sqrt(h) on an N-point
    grid has ||M_hbar||_2 <= 1 + (a2/2) (pi hbar N / L)^2."""
    return EIG * h * (1.0 + 0.5 * A2 * (math.pi * math.sqrt(h) * N / GRID_L) ** 2)


def tolerance(column, ref, N):
    """(atol, rtol) of one column, given the reference row it belongs to."""
    if column in FIXED:
        return FIXED[column]
    thm_rel = thm_atol(ref["h"], N) / abs(ref["thm_pred"])
    gap_rel = EIG / abs(ref["gap12"])
    if column == "thm_pred":
        return 0.0, thm_rel
    if column == "ratio_thm":
        return 0.0, gap_rel + thm_rel
    return 0.0, gap_rel                        # ratio_formula


def parse_sweep(csv_text, stdout_text=""):
    """Rows of a sweep CSV as dicts of floats.

    A row's "error" is the text the harness printed for it ("flagged: h=...")
    or the value of an "error" column, when the CSV has one.
    """
    errors = {}
    for line in stdout_text.splitlines():
        match = _FLAGGED.match(line.strip())
        if match:
            errors[float(match.group(1))] = match.group(2)
    rows = []
    for raw in csv.DictReader(io.StringIO(csv_text)):
        row = {}
        for key, text in raw.items():
            try:
                row[key] = float(text)
            except (TypeError, ValueError):
                row[key] = text
        row["error"] = raw.get("error") or errors.get(row.get("h")) or None
        rows.append(row)
    return rows


def row_problems(row, N, ref=None):
    """Every way one row fails the check; empty when it passes."""
    if row.get("error"):
        return [f"pipeline raised: {row['error']}"]
    problems = []
    for c in COLUMNS:
        v = row.get(c)
        if not isinstance(v, float) or not math.isfinite(v):
            problems.append(f"{c} is missing or not finite: {v!r}")
    if problems:
        return problems

    gap = row["gap12"]
    if abs(row["gram_gap"] - gap) > GRAM_RTOL * abs(gap) + EIG:
        problems.append(f"gram_gap {row['gram_gap']!r} disagrees with gap12 {gap!r}")
    if abs(row["two_abs_wh"] - gap) > INTERACTION_RTOL * abs(gap):
        problems.append(f"2|w_h| {row['two_abs_wh']!r} is not within 30% of gap12 {gap!r}")
    if abs(row["parity1"] - 1.0) > PARITY_ATOL:
        problems.append(f"parity1 = {row['parity1']!r}, expected +1")
    if abs(row["parity2"] + 1.0) > PARITY_ATOL:
        problems.append(f"parity2 = {row['parity2']!r}, expected -1")

    if ref is not None:
        for c in COLUMNS:
            atol, rtol = tolerance(c, ref, N)
            if abs(row[c] - ref[c]) > atol + rtol * abs(ref[c]):
                problems.append(f"{c} = {row[c]!r}, reference {ref[c]!r} "
                                f"(atol {atol:.3g}, rtol {rtol:.3g})")
    return problems


def check_sweep(rows, h_list, N, reference=None):
    """Check one sweep's rows against its h list and, if given, the reference.

    Returns one (h, failed, problems) triple per expected h. A row failed
    when its pipeline raised (the harness then fills it with nan) or when it
    is missing.
    """
    by_h = {row.get("h"): row for row in rows}
    refs = {ref["h"]: ref for ref in reference} if reference is not None else {}
    if reference is not None and sorted(refs) != sorted(h_list):
        raise ValueError("reference rows do not cover the workload's h list")
    out = []
    for h in h_list:
        row = by_h.get(h)
        if row is None:
            out.append((h, True, ["row missing from the CSV"]))
            continue
        problems = row_problems(row, N, refs.get(h))
        gap = row.get("gap12")
        failed = bool(row.get("error")) or not (isinstance(gap, float) and math.isfinite(gap))
        out.append((h, failed, problems))
    extra = [row.get("h") for row in rows if row.get("h") not in h_list]
    if extra:
        out.append((None, False, [f"rows for unexpected h {extra}"]))
    return out
