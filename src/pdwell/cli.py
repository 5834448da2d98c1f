"""Command-line entry point.

Subcommands mirror the pipeline stages: validate a model, print spectra at
one h, dump WKB profiles, tabulate the effective operator, and run the sweep
that compares the measured splitting with its predictions. Exit codes:
0 success, 2 configuration error, 3 numeric failure (an array too large to
allocate included; in sweep, after the last row if a row raised), 4 failed
acceptance check (--check only). `main` reads the config once and passes it
on: cmd_*(args, cfg). `run`, the process entry, freezes the ~22,000 objects
the imports leave, so no collection walks them again, even at exit, and
prints each warning (a PrecisionWarning, say) as one stderr line, without
the source line warnings adds; `main` does neither.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import os
import sys
import warnings

from .effective import classical_splitting_formula, gap_Mhbar
from .errors import ConfigurationError, EvaluationError, NumericError
from .harness import (build_model, format_value, load_config, open_output,
                      run_sweep, sweep_phase, validated_model)
from .model import derived_constants, validate_model
from .quantize import assemble_L, dump_matrix
from .spectra import lowest_eigenpairs
from .wkb import assemble_onewell, sealing_function, wkb_quasimode

DEFAULT_HBAR_LIST = (0.35, 0.30, 0.25, 0.20, 0.15)


def cmd_validate(args, cfg) -> int:
    m = build_model(cfg)
    report = validate_model(m)
    for line in report.lines():
        print(line)
    if report.passed:
        c = derived_constants(m)
        for name in ("a2", "V2", "c0", "kappa", "S", "A", "b_inf"):
            print(f"{name} = {getattr(c, name):.12g}")
    if args.check and not report.passed:
        return 4
    return 0


def cmd_spectrum(args, cfg) -> int:
    m = validated_model(cfg)
    seal = sealing_function(m, eta=cfg.seal_eta, height=cfg.seal_height)
    g = cfg.grid_for(args.h)
    if not 1 <= args.k <= g.n_points:
        raise ConfigurationError(f"k must be in [1, {g.n_points}], got {args.k}")
    dump = (open_output(args.dump_matrix, "wb", make_dirs=False)
            if args.dump_matrix else None)
    with dump or contextlib.nullcontext():
        M = assemble_L(m, g)
        print(f"# h = {args.h:g}  N = {g.n_points}  L = {g.length:g}")
        M_ow = assemble_onewell(M, seal)
        for label, op in (("lambda", M), ("lambda_onewell", M_ow)):
            for i, p in enumerate(lowest_eigenpairs(op, args.k), start=1):
                print(f"{label}_{i} = {format_value(p.value)}")
        if dump:
            dump_matrix(M, dump)
            print(f"# matrix written to {args.dump_matrix}")
    return 0


def cmd_wkb(args, cfg) -> int:
    phase = sweep_phase(cfg)
    g = cfg.grid_for(args.h)
    q = wkb_quasimode(g, phase)
    x, u = g.x_nodes, q.amplitude
    path = os.path.join(cfg.out_dir, f"wkb_h{args.h:g}.csv")
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "phi_l", "phi_l_trunc", "re_u10", "im_u10", "psi_wkb"])
        cols = (x, q.phi, phase.truncated_evaluator(x), u.real, u.imag, q.vector.real)
        writer.writerows([format_value(v) for v in row] for row in zip(*cols))
    print(f"# A_window = {phase.A_window:.12g}  norm_raw = {q.norm_raw:.12g}  "
          f"lambda_wkb = {q.lambda_wkb:.12g}")
    print(path)
    return 0


def cmd_effective(args, cfg) -> int:
    m = validated_model(cfg)
    hbars = tuple(args.hbar_list) if args.hbar_list else DEFAULT_HBAR_LIST
    grids = [cfg.grid_for(hbar) for hbar in hbars]
    path = os.path.join(cfg.out_dir, "effective.csv")
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["hbar", "lambda1", "lambda2", "lambda3", "lambda4",
                         "gap12", "formula", "ratio"])
        for hbar, g in zip(hbars, grids):
            eff = gap_Mhbar(m, g)
            formula = classical_splitting_formula(m, hbar)
            row = [hbar] + [p.value for p in eff.pairs] + [eff.gap, formula, eff.gap/formula]
            writer.writerow([format_value(v) for v in row])
            print(f"hbar = {hbar:g}  gap12 = {eff.gap:.6e}  formula = {formula:.6e}  "
                  f"ratio = {eff.gap/formula:.4f}  flag = {int(eff.flag)}")
    print(path)
    return 0


def cmd_sweep(args, cfg) -> int:
    report = run_sweep(cfg)
    for r in report.rows:
        print(f"h = {r['h']:g}  gap12 = {format_value(r['gap12'])}  "
              f"ratio_thm = {format_value(r['ratio_thm'])}  "
              f"flag = {r['precision_flag']}")
    for flag in report.flags:
        print(f"flagged: {flag}")
    if report.fit is not None:
        print("fit: log(gap12 / h^(5/4)) = log A - S / sqrt(h) + alpha sqrt(h), "
              "S = {:.6f}, log A = {:.6f}, alpha = {:.6f}".format(*report.fit))
    if report.flags:
        return 3
    if args.check:
        # written as not (dev <= bound), so a nan deviation fails the gate
        for r in report.rows:
            if r["precision_flag"]:
                continue
            inter_dev = abs(r["two_abs_wh"] - r["gap12"]) / r["gap12"]
            gram_dev = abs(r["gram_gap"] - r["gap12"]) / r["gap12"]
            if not (inter_dev <= 0.3 and gram_dev <= 0.05):
                print(f"check failed at h = {r['h']:g}: interaction deviation "
                      f"{inter_dev:.3f}, gram deviation {gram_dev:.3f}",
                      file=sys.stderr)
                return 4
        if report.fit is None:
            print("check failed: too few unflagged rows for the action fit",
                  file=sys.stderr)
            return 4
        S = derived_constants(sweep_phase(cfg).model).S
        rel = abs(report.fit[0] - S) / S
        if not (rel <= 0.05):
            print(f"check failed: fitted action {report.fit[0]:.6f} deviates "
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

    p = sub.add_parser("sweep", help="full per-h pipeline, one CSV row per h")
    p.add_argument("config")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, EvaluationError, MemoryError) as exc:
        # numpy's MemoryError names the size and shape it could not allocate
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    gc.freeze()
    warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                     file=sys.stderr)
    sys.exit(main())


if __name__ == "__main__":
    run()
