"""Command-line entry point.

Subcommands mirror the pipeline stages: validate a model, print spectra at
one h, dump WKB profiles, tabulate the effective operator, run the
splitting comparison, and run the full sweep. Exit codes: 0 success,
2 configuration error, 3 numeric failure, 4 failed acceptance check
(only when --check is passed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .effective import assemble_Mhbar, classical_splitting_formula
from .errors import ConfigurationError, EvaluationError, NumericError
from .harness import (SPLITTING_COLUMNS, _sweep_row, auto_points, build_model,
                      convergence_ratios, format_value, load_config,
                      run_sweep, sweep_objects)
from .model import derived_constants, validate_model
from .quantize import assemble_L, dump_matrix, make_grid
from .spectra import lowest_eigenpairs
from .wkb import assemble_onewell, leading_amplitude, wkb_quasimode

DEFAULT_HBAR_LIST = (0.35, 0.30, 0.25, 0.20, 0.15)


def _out_path(cfg, name):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    m = build_model(cfg)
    report = validate_model(m)
    for line in report.lines():
        print(line)
    if report.passed:
        c = derived_constants(m)
        print(f"a2 = {c.a2:.12g}")
        print(f"V2 = {c.V2:.12g}")
        print(f"c0 = {c.c0:.12g}")
        print(f"kappa = {c.kappa:.12g}")
        print(f"S = {c.S:.12g}")
        print(f"A = {c.A:.12g}")
        print(f"b_inf = {c.b_inf:.12g}")
    if args.check and not report.passed:
        return 4
    return 0


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    s = sweep_objects(cfg)
    g = cfg.grid_for(args.h)
    M = assemble_L(s.model, g)
    print(f"# h = {args.h:g}  N = {g.n_points}  L = {g.length:g}  "
          f"defect = {M.hermiticity_defect:.3e}")
    M_ow = assemble_onewell(M, "left", s.seal)
    for label, op in (("lambda", M), ("lambda_onewell", M_ow)):
        for i, p in enumerate(lowest_eigenpairs(op, args.k), start=1):
            print(f"{label}_{i} = {format_value(p.value)}")
    if args.dump_matrix:
        dump_matrix(M, args.dump_matrix)
        print(f"# matrix written to {args.dump_matrix}")
    return 0


def cmd_wkb(args) -> int:
    cfg = load_config(args.config)
    s = sweep_objects(cfg)
    g = cfg.grid_for(args.h)
    q = wkb_quasimode(s.model, g, s.phase)
    x = g.x_nodes
    u = leading_amplitude(s.model, s.phase, x)
    path = _out_path(cfg, f"wkb_h{args.h:g}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "phi_l", "phi_l_trunc", "re_u10", "im_u10", "psi_wkb"])
        phi = np.asarray(s.phase.evaluator(x))
        phit = np.asarray(s.phase.truncated_evaluator(x))
        for j in range(g.n_points):
            writer.writerow([format_value(x[j]), format_value(phi[j]),
                             format_value(phit[j]), format_value(u[j].real),
                             format_value(u[j].imag), format_value(q.vector[j].real)])
    print(f"# A_window = {s.phase.A_window:.12g}  norm_raw = {q.norm_raw:.12g}  "
          f"lambda_wkb = {q.lambda_wkb:.12g}")
    print(path)
    return 0


def cmd_effective(args) -> int:
    cfg = load_config(args.config)
    m = build_model(cfg)
    hbars = tuple(args.hbar_list) if args.hbar_list else DEFAULT_HBAR_LIST
    path = _out_path(cfg, "effective.csv")
    cols = ["hbar", "lambda1", "lambda2", "lambda3", "lambda4",
            "gap12", "formula", "ratio"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for hbar in hbars:
            g = make_grid(cfg.L, auto_points(cfg.L, hbar, cfg.xi_min),
                          hbar, cfg.xi_min)
            pairs = lowest_eigenpairs(assemble_Mhbar(m, g, hbar), 4)
            gap = pairs[1].value - pairs[0].value
            formula = classical_splitting_formula(m, hbar)
            row = [hbar] + [p.value for p in pairs] + [gap, formula, gap/formula]
            writer.writerow([format_value(v) for v in row])
            print(f"hbar = {hbar:g}  gap12 = {gap:.6e}  formula = {formula:.6e}  "
                  f"ratio = {gap/formula:.4f}")
    print(path)
    return 0


def cmd_splitting(args) -> int:
    cfg = dataclasses.replace(load_config(args.config), diagnostics=("tunneling",))
    rows = []
    path = _out_path(cfg, "splitting.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPLITTING_COLUMNS)
        for h in cfg.h_list:
            row = _sweep_row({"cfg": cfg, "h": h})
            rows.append(row)
            writer.writerow([format_value(row[c]) for c in SPLITTING_COLUMNS])
            fh.flush()
            print(f"h = {h:g}  gap12 = {row['gap12']:.6e}  "
                  f"2|w_h| = {row['two_abs_wh']:.6e}  "
                  f"ratio_thm = {row['ratio_thm']:.4f}  "
                  f"flag = {row['precision_flag']}")
    print(path)
    if args.check:
        good = [r for r in rows if not r["precision_flag"]]
        if not good:
            print("check failed: every row carries the precision flag",
                  file=sys.stderr)
            return 4
        for r in good:
            inter_dev = abs(r["two_abs_wh"] - r["gap12"]) / r["gap12"]
            gram_dev = abs(r["gram_gap"] - r["gap12"]) / r["gap12"]
            if inter_dev > 0.3 or gram_dev > 0.05:
                print(f"check failed at h = {r['h']:g}: interaction deviation "
                      f"{inter_dev:.3f}, gram deviation {gram_dev:.3f}",
                      file=sys.stderr)
                return 4
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = run_sweep(cfg)
    for row in report.rows:
        print(f"h = {row['h']:g}  gap12 = {format_value(row['gap12'])}  "
              f"ratio_thm = {format_value(row['ratio_thm'])}  "
              f"flag = {row['precision_flag']}")
    for flag in report.flags:
        print(f"flagged: {flag}")
    if report.fits is not None:
        slope, intercept = report.fits
        print(f"fit: log(gap12) = {slope:.6f} / sqrt(h) + {intercept:.6f}")
        slope_c, intercept_c = report.fits_corrected
        print(f"fit (h^(5/4) removed): slope = {slope_c:.6f}, "
              f"intercept = {intercept_c:.6f}")
    try:
        _, deviations, verdict = convergence_ratios(report.rows)
        print(f"|ratio_thm - 1| sequence: "
              + " ".join(f"{d:.4f}" for d in deviations)
              + f"  monotone = {verdict}")
    except NumericError as exc:
        print(f"convergence analytics unavailable: {exc}")
    if args.check:
        if report.fits is None:
            print("check failed: too few unflagged rows for the action fit",
                  file=sys.stderr)
            return 4
        S = derived_constants(sweep_objects(cfg).model).S
        rel = abs(-report.fits[0] - S) / S
        if rel > 0.05:
            print(f"check failed: fitted action {-report.fits[0]:.6f} deviates "
                  f"{100*rel:.1f}% from S = {S:.6f}", file=sys.stderr)
            return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdwell",
        description="Double-well tunneling asymptotics for Weyl-quantized "
                    "semiclassical operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model assumptions, print constants")
    p.add_argument("config")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="low-lying eigenvalues at one h")
    p.add_argument("config")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--dump-matrix", metavar="PATH")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wkb", help="phase/amplitude/quasimode profiles as CSV")
    p.add_argument("config")
    p.add_argument("--h", type=float, required=True)
    p.set_defaults(func=cmd_wkb)

    p = sub.add_parser("effective", help="effective-operator gap table")
    p.add_argument("config")
    p.add_argument("--hbar-list", type=float, nargs="+")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("splitting", help="measured vs predicted splitting")
    p.add_argument("config")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("sweep", help="full per-h pipeline with diagnostics")
    p.add_argument("config")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EvaluationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
