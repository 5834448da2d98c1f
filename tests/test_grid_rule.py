"""One grid rule for every operator.

L_h is discretized on SweepConfig.grid_for(h) and M_hbar on
SweepConfig.grid_for(hbar), hbar = sqrt(h), so the rule that picks N lives
in one place. The scan covers every reference to make_grid and auto_points
in the package, by name and by attribute, outside quantize.py (which defines
them) and SweepConfig (which applies them).
"""

import ast
import csv
import math
import pathlib

import pdwell
from pdwell.cli import main

SRC = pathlib.Path(pdwell.__file__).resolve().parent

GRID_BUILDERS = ("make_grid", "auto_points")


def _grid_builds(tree):
    """Line numbers that name a grid builder outside class SweepConfig."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SweepConfig":
            inside.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id in GRID_BUILDERS:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in GRID_BUILDERS:
            yield node.lineno


def test_scanner_sees_every_grid_build():
    text = ("make_grid(L, N, h)\nq.make_grid(L, N, h)\nauto_points(L, h, x)\n"
            "f = make_grid\nquantize.auto_points(L, h, x)\n")
    assert sorted(_grid_builds(ast.parse(text))) == [1, 2, 3, 4, 5]
    inside = ("class SweepConfig:\n"
              "    def grid_for(self, h):\n"
              "        return make_grid(self.L, auto_points(self.L, h, 3), h)\n")
    assert list(_grid_builds(ast.parse(inside))) == []
    assert list(_grid_builds(ast.parse("from .quantize import make_grid\n"))) == []


def test_every_operator_grid_comes_from_grid_for():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "quantize.py"
             for line in _grid_builds(ast.parse(path.read_text()))]
    assert found == []


def test_theorem_prediction_matches_effective_table(sweep_report, tmp_path, capsys):
    """thm_pred of every default row is h times the gap12 that `pdwell
    effective` tabulates at hbar = sqrt(h), bit for bit: both read the one
    solve of M_hbar, gap_Mhbar on grid_for(hbar)."""
    hs = [row["h"] for row in sweep_report.rows]
    assert hs == list(pdwell.SweepConfig().h_list)
    hbars = [math.sqrt(h) for h in hs]
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[output]\ndir = {out_dir}\n")
    assert main(["effective", str(cfg), "--hbar-list", *map(repr, hbars)]) == 0
    with open(out_dir / "effective.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [float(t["hbar"]) for t in table] == hbars
    assert ([row["thm_pred"] for row in sweep_report.rows]
            == [h * float(t["gap12"]) for h, t in zip(hs, table)])


def test_deep_theorem_prediction_is_converged_in_N(model_a):
    """At h = 0.004 the grid rule puts M_hbar at N = 512 (L_h is at 2048),
    where h * gap(M_hbar) agrees with the N = 256 solve to 2.6e-6; on L_h's
    N = 2048 the same product is off by 1.5e-4."""
    h = 0.004
    hbar = math.sqrt(h)
    g = pdwell.SweepConfig(h_list=(h,)).grid_for(hbar)
    assert g.n_points == 512
    thm = h * pdwell.gap_Mhbar(model_a, g).gap
    coarse = h * pdwell.gap_Mhbar(model_a, pdwell.make_grid(8.0, 256, hbar)).gap
    assert abs(thm - coarse) <= 1e-5 * coarse
