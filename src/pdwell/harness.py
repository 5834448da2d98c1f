"""Sweep orchestration: configuration, per-h pipeline, analytics, CSV.

A sweep validates the model and builds the left Agmon phase once
(sweep_phase), then runs one pipeline at each h in a strictly decreasing
list: grid, operators, spectra, the WKB quasimode, the tunneling comparison
and the localization columns. Every row computes every column of
SWEEP_COLUMNS; `pdwell sweep` runs it. Rows run one after another in
run_sweep, the only loop over h, and are written to CSV in h order, every
float printed with 17 significant digits so two runs of one config are
bit-identical. A failure at one h flags that row and the sweep continues.
The action S is fitted once, from the finished rows.
"""

from __future__ import annotations

import configparser
import csv
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .effective import classical_splitting_formula, gap_Mhbar
from .errors import ConfigurationError
from .model import Model, builtin_model, custom_model, validate_model
from .quantize import Grid, assemble_L, auto_points, make_grid
from .spectra import (agmon_weighted_norm, fourier_cut, fourier_tail,
                      gap_near_residual, lowest_eigenpairs, parity_of, spatial_tail)
from .tunneling import interaction_term
from .wkb import (AgmonPhase, agmon_phase, assemble_onewell, quasimode_residual,
                  sealing_function, wkb_quasimode)

__all__ = [
    "SweepConfig", "SweepReport", "load_config", "build_model",
    "validated_model", "sweep_phase", "run_sweep",
    "open_output", "SWEEP_COLUMNS", "format_value", "fit_action",
]

SWEEP_COLUMNS = [
    "h", "lambda1", "lambda2", "lambda3", "gap12", "gap23", "mu",
    "re_wh", "im_wh", "two_abs_wh", "overlap_abs", "gram_gap",
    "thm_pred", "formula_pred", "ratio_thm", "ratio_formula",
    "precision_flag", "lambda_ow1", "lambda_ow2", "lambda_ow3",
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
        self.grid_for(min(hs))

    def points_for(self, h: float) -> int:
        return self.N if self.N is not None else auto_points(self.L, h, self.xi_min)

    def grid_for(self, h: float) -> Grid:
        return make_grid(self.L, self.points_for(h), h, self.xi_min)


@dataclass
class SweepReport:
    rows: list
    fit: Optional[tuple]             # fit_action(rows): (S, log A, alpha)
    flags: list = field(default_factory=list)


def build_model(cfg: SweepConfig) -> Model:
    if cfg.model_name == "custom":
        if not (cfg.a_expr and cfg.b_expr and cfg.x_well):
            raise ConfigurationError(
                "custom model requires a_expr, b_expr and x_well in [model]")
        return custom_model(cfg.a_expr, cfg.b_expr, cfg.x_well)
    if cfg.model_name == "ModelB":
        return builtin_model("ModelB", eps=cfg.eps)
    return builtin_model(cfg.model_name)


def validated_model(cfg: SweepConfig) -> Model:
    """Build the config's model; a failed assumption is a ConfigurationError."""
    m = build_model(cfg)
    report = validate_model(m)
    if not report.passed:
        failing = [k for k, ok in report.checks.items() if not ok]
        raise ConfigurationError(f"model assumptions failed: {failing}")
    return m


@functools.lru_cache(maxsize=1)
def sweep_phase(cfg: SweepConfig) -> AgmonPhase:
    """Validate the model and build the left Agmon phase, once per config.

    The phase holds the validated model, the seal closing the right well
    (.model, .seal), the WKB amplitude and the overlap cutoff; none of them
    depends on h. The cache is keyed on the frozen config, so run_sweep, each
    row, `pdwell sweep --check` and `pdwell wkb` share one build, whose Phi~
    and amplitude span the grid window.
    """
    m = validated_model(cfg)
    seal = sealing_function(m, eta=cfg.seal_eta, height=cfg.seal_height)
    return agmon_phase(m, seal, span=cfg.L / 2)


# --------------------------------------------------------------------------
# configuration files (INI sections, flat keys)
# --------------------------------------------------------------------------

def _auto(parse):
    """Value parser that reads the keyword auto as None."""
    return lambda text: None if text.strip().lower() == "auto" else parse(text)


def _h_list(text):
    return tuple(float(t) for t in text.replace(",", " ").split())


def _all_diagnostics(text):
    """Older configs' [checks] diagnostics line, stored in no field: every
    sweep computes all three, so the line must name each of them once."""
    if sorted(text.split()) != ["localization", "tunneling", "wkb"]:
        raise ConfigurationError(
            f"[checks] diagnostics = {text.strip()}: every sweep computes "
            "localization, wkb and tunneling, so the line names each once")


# (section, key) -> (SweepConfig field or None, value parser); configparser
# stores keys in lower case
_CONFIG_KEYS = {
    ("model", "name"): ("model_name", str),
    ("model", "eps"): ("eps", float),
    ("model", "a_expr"): ("a_expr", str),
    ("model", "b_expr"): ("b_expr", str),
    ("model", "x_well"): ("x_well", float),
    ("grid", "l"): ("L", float),
    ("grid", "n"): ("N", _auto(int)),
    ("grid", "xi_min"): ("xi_min", float),
    ("seal", "eta"): ("seal_eta", float),
    ("seal", "height"): ("seal_height", _auto(float)),
    ("sweep", "h_list"): ("h_list", _h_list),
    ("output", "dir"): ("out_dir", str),
    ("checks", "diagnostics"): (None, _all_diagnostics),
}


def load_config(path) -> SweepConfig:
    """Read an INI config; an unknown section or key is a ConfigurationError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: "
                                 f"{str(exc).splitlines()[0]}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    if parser.defaults():
        raise ConfigurationError(
            f"unknown section [{parser.default_section}] in {path}")
    sections = {section for section, _ in _CONFIG_KEYS}
    kw = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigurationError(f"unknown section [{section}] in {path}")
        for key, text in parser.items(section):
            if (section, key) not in _CONFIG_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in [{section}] of {path}")
            name, parse = _CONFIG_KEYS[section, key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigurationError(f"malformed value in {path}: {exc}") from exc
            if name is not None:
                kw[name] = value
    return SweepConfig(**kw)


# --------------------------------------------------------------------------
# per-h pipeline
# --------------------------------------------------------------------------

def _sweep_row(cfg: SweepConfig, h: float) -> dict:
    """Full pipeline at one h; the row holds every column of SWEEP_COLUMNS.

    Three eigensolves: L_h and the sealed one-well operator for k = 3, and
    M_hbar, on its own grid at hbar = sqrt(h), for the theorem prediction.
    The model, seal, Agmon phase and overlap cutoff come from sweep_phase,
    built once for all rows.
    """
    phase = sweep_phase(cfg)
    m = phase.model
    g = cfg.grid_for(h)

    M = assemble_L(m, g)
    pairs = lowest_eigenpairs(M, 3)
    flag = int(gap_near_residual(pairs, "splitting"))
    M_ow = assemble_onewell(M, phase.seal)
    ow_pairs = lowest_eigenpairs(M_ow, 3)
    q = wkb_quasimode(g, phase)
    wkb_residual = quasimode_residual(M_ow, q)
    w_h, overlap, gram_gap = interaction_term(M, pairs, ow_pairs[0], phase.chi_left)
    # L_h, which the one-well operator shares, is freed before gap_Mhbar
    # assembles M_hbar; a dense L_h (ModelB) held across it would raise the
    # peak memory of a row by one N x N matrix
    del M, M_ow
    thm = h * gap_Mhbar(m, cfg.grid_for(math.sqrt(h))).gap
    formula = h * classical_splitting_formula(m, math.sqrt(h))

    lam = [p.value for p in pairs]
    gap12 = lam[1] - lam[0]
    row = {"h": h, "lambda1": lam[0], "lambda2": lam[1], "lambda3": lam[2],
           "gap12": gap12, "gap23": lam[2] - lam[1], "mu": ow_pairs[0].value,
           "re_wh": w_h.real, "im_wh": w_h.imag, "two_abs_wh": 2.0 * abs(w_h),
           "overlap_abs": abs(overlap), "gram_gap": gram_gap,
           "thm_pred": thm, "formula_pred": formula,
           "ratio_thm": gap12 / thm, "ratio_formula": gap12 / formula,
           "precision_flag": flag, "wkb_lambda": q.lambda_wkb,
           "wkb_residual": wkb_residual,
           "wkb_overlap": abs(g.inner(q.vector, ow_pairs[0].vector)),
           "norm_raw": q.norm_raw,
           "parity1": parity_of(pairs[0], g), "parity2": parity_of(pairs[1], g)}
    phi_trunc = phase.truncated_evaluator(g.x_nodes)
    for n, pair in enumerate(ow_pairs, start=1):
        row[f"lambda_ow{n}"] = pair.value
        row[f"fourier_tail_{n}"] = fourier_tail(pair, g)
        row[f"spatial_tail_{n}"] = spatial_tail(pair, g, m.x_left)
        row[f"agmon_{n}"] = agmon_weighted_norm(pair, g, phi_trunc)
    return row


def open_output(path: str, mode: str = "w", make_dirs: bool = True):
    """Open an output file for writing, creating its directory if make_dirs.

    An unwritable path (a regular file or a missing directory on the way,
    no permission) is a ConfigurationError, so callers open their output
    before the first row or solve runs.
    """
    try:
        if make_dirs:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return open(path, mode, newline=None if "b" in mode else "")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def format_value(v) -> str:
    """v to 17 significant digits: 3 prints as 3, 1.0 as 1, nan as nan."""
    return format(float(v), ".17g")


def fit_action(rows) -> Optional[tuple]:
    """Least squares log(gap12 / h^(5/4)) = log A - S/hbar + alpha hbar.

    hbar = sqrt(h), over the unflagged rows with a finite gap12 > 0. Returns
    (S, log A, alpha), or None below three such rows.
    """
    pts = [(r["h"], r["gap12"]) for r in rows
           if not r["precision_flag"] and math.isfinite(r["gap12"])
           and r["gap12"] > 0]
    if len(pts) < 3:
        return None
    h, gap = np.array(pts).T
    hbar = np.sqrt(h)
    design = np.column_stack([np.ones_like(hbar), -1.0 / hbar, hbar])
    log_A, S, alpha = np.linalg.lstsq(design, np.log(gap / hbar**2.5), rcond=None)[0]
    return float(S), float(log_A), float(alpha)


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Validate once, run the per-h pipeline, write sweep.csv, fit the action.

    A row that raises is written as nan with precision_flag = 1, and its
    error text goes to the report's flags; the other rows still run.
    """
    # the model and every row's Fourier cut (under N = auto not always the
    # smallest h's) are checked before the output is opened
    sweep_phase(cfg)
    for h in cfg.h_list:
        fourier_cut(cfg.grid_for(h))

    rows = []
    with open_output(os.path.join(cfg.out_dir, "sweep.csv")) as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for h in cfg.h_list:
            try:
                row = _sweep_row(cfg, h)
            except Exception as exc:  # crash isolation: flag the row, keep sweeping
                row = {**dict.fromkeys(SWEEP_COLUMNS, math.nan), "h": h,
                       "precision_flag": 1, "error": f"{type(exc).__name__}: {exc}"}
            rows.append(row)
            writer.writerow([format_value(row[c]) for c in SWEEP_COLUMNS])
            fh.flush()
    flags = [f"h={row['h']}: {row['error']}" for row in rows if "error" in row]
    return SweepReport(rows=rows, fit=fit_action(rows), flags=flags)
