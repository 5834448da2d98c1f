"""Span tracing of a pdwell sweep, and the per-layer metrics derived from it.

`Tracer.install` rebinds each traced public function in every pdwell module
that holds it, because `harness`, `tunneling`, `wkb`, `effective` and `cli`
import those functions by name. No file of the program changes. A span is
(name, start, end, parent index, computed matrix bytes); spans stay in memory
and are written out once, when the traced sweep ends.

The aggregation half of this module uses only the standard library, so the
benchmark driver can import it without loading numpy.
"""

from __future__ import annotations

import functools
import importlib
import time

PDWELL_MODULES = ("model", "quantize", "spectra", "wkb", "effective",
                  "tunneling", "harness", "cli")

# (module that defines it, function) -> span name
TRACED = {
    ("model", "validate_model"): "model.validate",
    ("model", "derived_constants"): "model.constants",
    ("quantize", "assemble_L"): "quantize.assemble",
    ("quantize", "weyl_matrix"): "quantize.weyl",
    ("quantize", "_symmetrize"): "quantize.symmetrize",
    ("spectra", "lowest_eigenpairs"): "spectra.eigensolve",
    ("spectra", "parity_of"): "spectra.diagnostics",
    ("spectra", "fourier_tail"): "spectra.diagnostics",
    ("spectra", "spatial_tail"): "spectra.diagnostics",
    ("spectra", "agmon_weighted_norm"): "spectra.diagnostics",
    ("wkb", "sealing_function"): "wkb.seal",
    ("wkb", "agmon_phase"): "wkb.phase",
    ("wkb", "wkb_quasimode"): "wkb.quasimode",
    ("wkb", "assemble_onewell"): "wkb.onewell",
    ("effective", "schrodinger_matrix"): "effective.matrix",
    ("effective", "gap_Mhbar"): "effective.solve",
    ("tunneling", "interaction_term"): "tunneling.interaction",
    ("tunneling", "gram_reduction"): "tunneling.gram",
    ("harness", "_sweep_row"): "harness.row",
    ("harness", "run_sweep"): "harness.sweep",
}

# spans whose result is a freshly allocated dense N x N complex matrix
MATRIX_SPANS = ("quantize.assemble", "wkb.onewell", "effective.matrix")

HARNESS_SPANS = ("harness.sweep", "harness.row")

# span name -> per-layer count metric
COUNTS = {
    "spectra.eigensolve": "spectra.eigensolve_calls",
    "quantize.assemble": "quantize.assemble_calls",
    "quantize.weyl": "quantize.weyl_calls",
    "wkb.phase": "wkb.phase_builds",
    "wkb.onewell": "wkb.onewell_calls",
}

# span name -> per-layer time metric (sum of the spans' durations)
TOTALS = {
    "model.validate": "model.validate_s",
    "model.constants": "model.constants_s",
    "quantize.assemble": "quantize.assemble_s",
    "quantize.symmetrize": "quantize.symmetrize_s",
    "spectra.eigensolve": "spectra.eigensolve_s",
    "spectra.diagnostics": "spectra.diagnostics_s",
    "wkb.phase": "wkb.phase_s",
    "wkb.quasimode": "wkb.quasimode_s",
    "effective.solve": "effective.solve_s",
}

# span name -> per-layer self-time metric (durations minus direct children)
SELF = {
    "tunneling.interaction": "tunneling.interaction_self_s",
    "tunneling.gram": "tunneling.gram_self_s",
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, matrix_bytes]
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, 0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if name in MATRIX_SPANS:
                span[4] = 16 * result.N * result.N
            return result
        return traced

    def install(self):
        """Rebind every traced function in every pdwell module holding it."""
        modules = [importlib.import_module(f"pdwell.{m}") for m in PDWELL_MODULES]
        modules.append(importlib.import_module("pdwell"))
        for (home, attr), name in TRACED.items():
            original = getattr(importlib.import_module(f"pdwell.{home}"), attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)


def _self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _row_owner(spans):
    """Index of the enclosing harness.row span of each span, or -1.

    Spans are recorded in start order, so a parent precedes its children.
    """
    owner = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[0] == "harness.row":
            owner[i] = i
        elif s[3] >= 0:
            owner[i] = owner[s[3]]
    return owner


def layer_metrics(spans):
    """Per-layer metrics of one traced sweep, plus its per-row counts.

    Returns (metrics, per_row) where per_row maps each count metric (and
    quantize.matrix_bytes) to its list of values, one per sweep row.
    """
    own = _self_times(spans)
    metrics = {m: 0 for m in COUNTS.values()}
    metrics.update({m: 0.0 for m in TOTALS.values()})
    metrics.update({m: 0.0 for m in SELF.values()})
    metrics["quantize.matrix_bytes"] = 0
    metrics["harness.self_s"] = 0.0
    for i, (name, start, end, _, nbytes) in enumerate(spans):
        if name in COUNTS:
            metrics[COUNTS[name]] += 1
        if name in TOTALS:
            metrics[TOTALS[name]] += end - start
        if name in SELF:
            metrics[SELF[name]] += own[i]
        if name in HARNESS_SPANS:
            metrics["harness.self_s"] += own[i]
        metrics["quantize.matrix_bytes"] += nbytes

    owner = _row_owner(spans)
    rows = [i for i, s in enumerate(spans) if s[0] == "harness.row"]
    metrics["harness.rows"] = len(rows)
    per_row = {m: [0] * len(rows) for m in COUNTS.values()}
    per_row["quantize.matrix_bytes"] = [0] * len(rows)
    slot = {r: k for k, r in enumerate(rows)}
    for i, (name, _, _, _, nbytes) in enumerate(spans):
        if owner[i] < 0:
            continue
        k = slot[owner[i]]
        if name in COUNTS:
            per_row[COUNTS[name]][k] += 1
        per_row["quantize.matrix_bytes"][k] += nbytes
    return metrics, per_row
