"""Sweep orchestration: configuration, per-h pipeline, analytics, CSV.

A sweep validates the model once, then runs the full pipeline (grid,
operators, spectra, WKB diagnostics, tunneling comparison) at each h in a
strictly decreasing list. Rows are written to CSV in h order regardless of
worker completion order, every float printed with 17 significant digits so
two runs of one config are bit-identical. A failure at one h flags that row
and the sweep continues.
"""

from __future__ import annotations

import configparser
import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError
from .model import Model, builtin_model, custom_model, validate_model
from .quantize import Grid, assemble_L, make_grid
from .spectra import (agmon_weighted_norm, fourier_tail, gap_near_residual,
                      lowest_eigenpairs, parity_of, spatial_tail)
from .tunneling import CutoffPair, InteractionReport, cutoff_pair, interaction_term
from .wkb import (AgmonPhase, SealingFunction, agmon_phase, assemble_onewell,
                  quasimode_residual, sealing_function, wkb_quasimode)

__all__ = [
    "SweepConfig", "SweepReport", "SweepObjects", "auto_points", "load_config",
    "build_model", "sweep_objects", "run_sweep", "convergence_ratios",
    "SPLITTING_COLUMNS", "SWEEP_COLUMNS", "splitting_row", "format_value",
]

ALL_DIAGNOSTICS = ("localization", "wkb", "tunneling")

SPLITTING_COLUMNS = [
    "h", "lambda1", "lambda2", "lambda3", "gap12", "gap23", "mu",
    "re_wh", "im_wh", "two_abs_wh", "overlap_abs", "gram_gap",
    "thm_pred", "formula_pred", "ratio_thm", "ratio_formula",
    "precision_flag",
]

SWEEP_COLUMNS = SPLITTING_COLUMNS + [
    "lambda_ow1", "lambda_ow2", "lambda_ow3",
    "wkb_lambda", "wkb_residual", "wkb_overlap", "norm_raw",
    "parity1", "parity2",
    "fourier_tail_1", "fourier_tail_2", "fourier_tail_3",
    "spatial_tail_1", "spatial_tail_2", "spatial_tail_3",
    "agmon_1", "agmon_2", "agmon_3",
]

DEFAULT_H_LIST = (0.09, 0.08, 0.07, 0.06, 0.05, 0.04)


@dataclass(frozen=True)
class SweepConfig:
    model_name: str = "ModelA"
    h_list: tuple = DEFAULT_H_LIST
    L: float = 8.0
    N: Optional[int] = None          # None: auto rule from xi_min
    xi_min: float = 3.0
    seal_eta: float = 0.4
    seal_height: Optional[float] = None   # None: 2 V(0)
    eps: float = 0.2                 # ModelB coupling
    out_dir: str = "out"
    diagnostics: tuple = ALL_DIAGNOSTICS
    # custom-model expressions; used when model_name == "custom"
    a_expr: Optional[str] = None
    b_expr: Optional[str] = None
    x_well: Optional[float] = None

    def __post_init__(self):
        hs = tuple(float(h) for h in self.h_list)
        if len(hs) == 0:
            raise ConfigurationError("h_list must not be empty")
        if any(not 0.0 < h <= 1.0 for h in hs):
            raise ConfigurationError(f"every h must lie in (0, 1], got {hs}")
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigurationError(f"h_list must be strictly decreasing, got {hs}")
        object.__setattr__(self, "h_list", hs)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        unknown = set(self.diagnostics) - set(ALL_DIAGNOSTICS)
        if unknown:
            raise ConfigurationError(f"unknown diagnostics {sorted(unknown)}")
        # fail early if a fixed N cannot resolve the smallest h
        n_small = self.points_for(min(hs))
        if math.pi * min(hs) * n_small / self.L < self.xi_min:
            raise ConfigurationError(
                f"N = {n_small} violates the momentum cutoff at h = {min(hs)}")

    def points_for(self, h: float) -> int:
        return self.N if self.N is not None else auto_points(self.L, h, self.xi_min)

    def grid_for(self, h: float) -> Grid:
        return make_grid(self.L, self.points_for(h), h, self.xi_min)


@dataclass
class SweepReport:
    rows: list
    fits: Optional[tuple]            # (slope, intercept) of log gap12 vs 1/sqrt(h)
    fits_corrected: Optional[tuple]  # same fit on log(gap12 / h^(5/4))
    flags: list = field(default_factory=list)


def auto_points(L: float, h: float, xi_min: float) -> int:
    """Smallest power of two N >= 512 with pi h N / L >= xi_min."""
    N = 512
    while math.pi * h * N / L < xi_min:
        N *= 2
    return N


def build_model(cfg: SweepConfig) -> Model:
    if cfg.model_name == "custom":
        if not (cfg.a_expr and cfg.b_expr and cfg.x_well):
            raise ConfigurationError(
                "custom model requires a_expr, b_expr and x_well in [model]")
        return custom_model(cfg.a_expr, cfg.b_expr, cfg.x_well)
    if cfg.model_name == "ModelB":
        return builtin_model("ModelB", eps=cfg.eps)
    return builtin_model(cfg.model_name)


@dataclass(frozen=True)
class SweepObjects:
    """The h-independent objects of a sweep: the validated model, the seal
    closing the right well, the left Agmon phase (which caches the WKB
    amplitude) and the overlap cutoffs."""
    model: Model
    seal: SealingFunction
    phase: AgmonPhase
    cut: CutoffPair


@functools.lru_cache(maxsize=1)
def sweep_objects(cfg: SweepConfig) -> SweepObjects:
    """Validate the model and build the h-independent objects, once per process.

    The cache is keyed on the config's plain values, so the serial sweep and
    each worker process build these objects once and no closure is pickled.
    """
    m = build_model(cfg)
    report = validate_model(m)
    if not report.passed:
        failing = [k for k, ok in report.checks.items() if not ok]
        raise ConfigurationError(f"model assumptions failed: {failing}")
    seal = sealing_function(m, eta=cfg.seal_eta, height=cfg.seal_height)
    phase = agmon_phase(m, seal, "left")
    return SweepObjects(model=m, seal=seal, phase=phase, cut=cutoff_pair(phase, seal))


# --------------------------------------------------------------------------
# configuration files (INI sections, flat keys)
# --------------------------------------------------------------------------

def load_config(path) -> SweepConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    kw = {}
    try:
        if parser.has_section("model"):
            sec = parser["model"]
            kw["model_name"] = sec.get("name", "ModelA")
            if "eps" in sec:
                kw["eps"] = float(sec["eps"])
            for key in ("a_expr", "b_expr"):
                if key in sec:
                    kw[key] = sec[key]
            if "x_well" in sec:
                kw["x_well"] = float(sec["x_well"])
        if parser.has_section("grid"):
            sec = parser["grid"]
            if "l" in sec:
                kw["L"] = float(sec["l"])
            if "n" in sec:
                kw["N"] = None if sec["n"].strip().lower() == "auto" else int(sec["n"])
            if "xi_min" in sec:
                kw["xi_min"] = float(sec["xi_min"])
        if parser.has_section("seal"):
            sec = parser["seal"]
            if "eta" in sec:
                kw["seal_eta"] = float(sec["eta"])
            if "height" in sec and sec["height"].strip().lower() != "auto":
                kw["seal_height"] = float(sec["height"])
        if parser.has_section("sweep"):
            sec = parser["sweep"]
            if "h_list" in sec:
                kw["h_list"] = tuple(
                    float(t) for t in sec["h_list"].replace(",", " ").split())
        if parser.has_section("output"):
            if "dir" in parser["output"]:
                kw["out_dir"] = parser["output"]["dir"]
        if parser.has_section("checks"):
            if "diagnostics" in parser["checks"]:
                kw["diagnostics"] = tuple(parser["checks"]["diagnostics"].split())
    except ValueError as exc:
        raise ConfigurationError(f"malformed value in {path}: {exc}") from exc
    return SweepConfig(**kw)


# --------------------------------------------------------------------------
# per-h pipeline
# --------------------------------------------------------------------------

def splitting_row(rep: InteractionReport) -> dict:
    """Flatten an InteractionReport into the pinned splitting columns."""
    return {
        "h": rep.h, "lambda1": rep.lambda1, "lambda2": rep.lambda2,
        "lambda3": rep.lambda3, "gap12": rep.measured_gap, "gap23": rep.gap23,
        "mu": rep.mu, "re_wh": rep.w_h.real, "im_wh": rep.w_h.imag,
        "two_abs_wh": 2.0 * abs(rep.w_h), "overlap_abs": abs(rep.overlap),
        "gram_gap": rep.gram_eigen_gap, "thm_pred": rep.thm_prediction,
        "formula_pred": rep.formula_prediction,
        "ratio_thm": rep.measured_gap / rep.thm_prediction,
        "ratio_formula": rep.measured_gap / rep.formula_prediction,
        "precision_flag": int(rep.precision_flag),
    }


def _sweep_row(task: dict) -> dict:
    """Full pipeline at one h, from the task's config and h.

    Three eigensolves: L_h and the sealed one-well operator for k = 3, and
    M_hbar inside interaction_term. Runs in a worker process; the task is
    plain data and the h-independent objects come from sweep_objects.
    """
    cfg, h = task["cfg"], task["h"]
    s = sweep_objects(cfg)
    m = s.model
    g = cfg.grid_for(h)
    diagnostics = cfg.diagnostics

    M = assemble_L(m, g)
    pairs = lowest_eigenpairs(M, 3)
    M_ow = assemble_onewell(M, "left", s.seal)
    ow_pairs = lowest_eigenpairs(M_ow, 3)

    row = {c: math.nan for c in SWEEP_COLUMNS}
    row["h"] = h
    row["parity1"] = parity_of(pairs[0], g)
    row["parity2"] = parity_of(pairs[1], g)
    for n, pair in enumerate(ow_pairs, start=1):
        row[f"lambda_ow{n}"] = pair.value

    if "wkb" in diagnostics:
        q = wkb_quasimode(m, g, s.phase)
        row["wkb_lambda"] = q.lambda_wkb
        row["norm_raw"] = q.norm_raw
        row["wkb_residual"] = quasimode_residual(M_ow, q)
        row["wkb_overlap"] = abs(g.dx * np.sum(q.vector * np.conj(ow_pairs[0].vector)))
    # freed before interaction_term assembles M_hbar; holding both would
    # raise the peak memory of a row by one N x N matrix
    del M_ow

    if "tunneling" in diagnostics:
        row.update(splitting_row(interaction_term(m, M, pairs, ow_pairs[0], s.cut)))
    else:
        lam = [p.value for p in pairs]
        row.update({"lambda1": lam[0], "lambda2": lam[1], "lambda3": lam[2],
                    "gap12": lam[1] - lam[0], "gap23": lam[2] - lam[1],
                    "precision_flag": int(gap_near_residual(pairs, "splitting"))})

    if "localization" in diagnostics:
        xi_cut = h**(1.0/6.0) * (1.0 - 1e-6)
        for n, pair in enumerate(ow_pairs, start=1):
            row[f"fourier_tail_{n}"] = fourier_tail(pair, g, xi_cut)
            row[f"spatial_tail_{n}"] = spatial_tail(pair, g, [m.x_left], 0.5)
            row[f"agmon_{n}"] = agmon_weighted_norm(pair, g, m, 0.2, "left",
                                                    phase=s.phase)
    return row


def _sweep_row_safe(task: dict) -> dict:
    try:
        return _sweep_row(task)
    except Exception as exc:  # crash isolation: flag the row, keep sweeping
        row = {c: math.nan for c in SWEEP_COLUMNS}
        row["h"] = task["h"]
        row["precision_flag"] = 1
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return format(float(v), ".17g")


def _write_row(writer, columns, row):
    writer.writerow([format_value(row[c]) for c in columns])


def _fit_gap(rows):
    pts = [(r["h"], r["gap12"]) for r in rows
           if not r.get("precision_flag") and math.isfinite(r.get("gap12", math.nan))
           and r["gap12"] > 0]
    if len(pts) < 2:
        return None, None
    x = np.array([1.0/math.sqrt(h) for h, _ in pts])
    y = np.array([math.log(gap) for _, gap in pts])
    slope, intercept = np.polyfit(x, y, 1)
    y_corr = y - 1.25 * np.log(np.array([h for h, _ in pts]))
    slope_c, intercept_c = np.polyfit(x, y_corr, 1)
    return (float(slope), float(intercept)), (float(slope_c), float(intercept_c))


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Validate once, run the per-h pipeline, persist rows, fit the action."""
    sweep_objects(cfg)   # validates the model; serial rows reuse the objects

    os.makedirs(cfg.out_dir, exist_ok=True)
    tasks = [{"cfg": cfg, "h": h} for h in cfg.h_list]

    workers = int(os.environ.get("PDWELL_WORKERS", "1"))
    rows, flags = [], []
    path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = pool.map(_sweep_row_safe, tasks)
                for row in results:
                    rows.append(row)
                    _write_row(writer, SWEEP_COLUMNS, row)
                    fh.flush()
        else:
            for task in tasks:
                row = _sweep_row_safe(task)
                rows.append(row)
                _write_row(writer, SWEEP_COLUMNS, row)
                fh.flush()
    for row in rows:
        if "error" in row:
            flags.append(f"h={row['h']}: {row['error']}")

    fits, fits_corrected = _fit_gap(rows)
    return SweepReport(rows=rows, fits=fits, fits_corrected=fits_corrected,
                       flags=flags)


def convergence_ratios(rows):
    """Per-h ratios measured/thm_pred with a monotone-deviation verdict.

    Returns (ratios, deviations, verdict); verdict is True when |ratio - 1|
    is non-increasing across the unflagged rows (taken in h-descending order).
    """
    good = [r for r in rows
            if not r.get("precision_flag")
            and math.isfinite(r.get("gap12", math.nan))
            and math.isfinite(r.get("thm_pred", math.nan))
            and r.get("thm_pred", 0) > 0]
    if len(good) < 2:
        raise NumericError(
            f"convergence analytics needs >= 2 unflagged rows, have {len(good)}")
    ratios = [r["gap12"] / r["thm_pred"] for r in good]
    deviations = [abs(r - 1.0) for r in ratios]
    verdict = all(b <= a * (1.0 + 1e-9) for a, b in zip(deviations, deviations[1:]))
    return ratios, deviations, verdict
