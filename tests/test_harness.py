"""Sweep configuration, orchestration, analytics, and CSV persistence."""

import ast
import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

import pdwell
from pdwell import ConfigurationError, harness
from pdwell.harness import (SWEEP_COLUMNS, SweepConfig, auto_points,
                            build_model, format_value, load_config, run_sweep,
                            sweep_phase)


def test_config_rejects_empty_h_list():
    with pytest.raises(ConfigurationError):
        SweepConfig(h_list=())


def test_config_rejects_non_decreasing():
    with pytest.raises(ConfigurationError):
        SweepConfig(h_list=(0.05, 0.07))
    with pytest.raises(ConfigurationError):
        SweepConfig(h_list=(0.05, 0.05))


def test_config_rejects_h_out_of_range():
    with pytest.raises(ConfigurationError):
        SweepConfig(h_list=(1.5, 0.5))
    with pytest.raises(ConfigurationError):
        SweepConfig(h_list=(0.05, 0.0))


def test_config_rejects_unknown_diagnostics(tmp_path):
    # every sweep computes every column: no field selects diagnostics, and
    # the [checks] line of older configs must name all three, nothing else
    assert "diagnostics" not in {f.name for f in dataclasses.fields(SweepConfig)}
    path = tmp_path / "plots.ini"
    path.write_text("[checks]\ndiagnostics = localization wkb tunneling plots\n")
    with pytest.raises(ConfigurationError) as exc:
        load_config(path)
    assert "every sweep computes localization, wkb and tunneling" in str(exc.value)


def test_config_rejects_underresolved_fixed_n():
    with pytest.raises(ConfigurationError) as exc:
        SweepConfig(N=512, h_list=(0.002,))
    assert "momentum cutoff" in str(exc.value)


def test_auto_points_rule():
    assert auto_points(8.0, 0.09, 3.0) == 512
    assert auto_points(8.0, 0.04, 3.0) == 512
    assert auto_points(8.0, 0.001, 3.0) == 8192
    # the rule never returns less than the floor
    assert auto_points(1.0, 0.9, 0.01) == 512


def test_points_for_uses_auto_rule():
    cfg = SweepConfig(h_list=(0.09, 0.04))
    assert cfg.points_for(0.04) == 512
    fixed = SweepConfig(h_list=(0.09, 0.04), N=1024)
    assert fixed.points_for(0.04) == 1024


def test_build_model_variants():
    m = build_model(SweepConfig(model_name="ModelB", eps=0.1))
    # the coupling shows up as eps/4 at (x, xi) = (1, 1), on top of V(1) = 0
    assert abs(float(m.b(np.array(1.0), np.array(1.0))) - 0.025) < 1e-15
    with pytest.raises(ConfigurationError):
        build_model(SweepConfig(model_name="custom"))


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[model]\nname = ModelB\neps = 0.15\n"
        "[grid]\nl = 10.0\nn = 1024\nxi_min = 2.5\n"
        "[seal]\neta = 0.35\nheight = 1.7\n"
        "[sweep]\nh_list = 0.09, 0.07, 0.05\n"
        "[output]\ndir = myout\n"
        "[checks]\ndiagnostics = tunneling localization wkb\n")
    cfg = load_config(path)
    assert cfg.model_name == "ModelB"
    assert cfg.eps == 0.15
    assert cfg.L == 10.0
    assert cfg.N == 1024
    assert cfg.xi_min == 2.5
    assert cfg.seal_eta == 0.35
    assert cfg.seal_height == 1.7
    assert cfg.h_list == (0.09, 0.07, 0.05)
    assert cfg.out_dir == "myout"
    # the [checks] line, in any order, is accepted and stored nowhere
    path.write_text(path.read_text().split("[checks]")[0])
    assert load_config(path) == cfg


def test_load_config_accepts_documented_keys(tmp_path, perfbench_module):
    root = pathlib.Path(__file__).resolve().parent.parent
    block = re.search(r"```ini\n(.*?)```", (root / "README.md").read_text(),
                      re.DOTALL).group(1)
    # the README block shows the custom-model keys commented out
    readme = re.sub(r"^; (\w+ = )", r"\1", block, flags=re.MULTILINE)
    path = tmp_path / "doc.ini"
    for text in [p.read_text() for p in sorted(root.glob("configs/*.ini"))] + [readme]:
        assert "[checks]" not in text
        path.write_text(text)
        load_config(path)
    # the benchmark's configs keep the full [checks] line, which changes nothing
    for w in perfbench_module("workloads").WORKLOADS.values():
        text = w.config_text(0, str(tmp_path / "out"))
        assert "[checks]\ndiagnostics = localization wkb tunneling\n" in text
        path.write_text(text)
        cfg = load_config(path)
        path.write_text(text.split("[checks]")[0])
        assert load_config(path) == cfg
    path.write_text(readme)
    cfg = load_config(path)
    assert (cfg.eps, cfg.x_well) == (0.2, 1.0)
    assert cfg.a_expr.startswith("xi**2/(1+xi**2)")


def test_load_config_auto_keywords(tmp_path):
    path = tmp_path / "auto.ini"
    path.write_text("[grid]\nn = auto\n[seal]\nheight = auto\n")
    cfg = load_config(path)
    assert cfg.N is None
    assert cfg.seal_height is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.ini")


def test_load_config_malformed_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\neps = two tenths\n")
    with pytest.raises(ConfigurationError) as exc:
        load_config(path)
    assert "malformed value" in str(exc.value)


def test_run_sweep_aborts_on_invalid_model(tmp_path):
    cfg = SweepConfig(model_name="custom", a_expr="xi**2/(1+xi**2)",
                      b_expr="(x**2-1)**2", x_well=1.0,
                      h_list=(0.09,), out_dir=str(tmp_path / "bad"))
    with pytest.raises(ConfigurationError) as exc:
        run_sweep(cfg)
    assert "model assumptions failed" in str(exc.value)


def test_sweep_report_shape(sweep_report):
    assert len(sweep_report.rows) == 6
    hs = [r["h"] for r in sweep_report.rows]
    assert hs == sorted(hs, reverse=True)
    for row in sweep_report.rows:
        assert sorted(row) == sorted(SWEEP_COLUMNS)
        assert math.isfinite(row["gap12"])
        assert row["gap12"] == row["lambda2"] - row["lambda1"]
        assert row["gap23"] == row["lambda3"] - row["lambda2"]
    assert sweep_report.flags == []
    assert sweep_report.fit is not None


def test_sweep_fit_slope(sweep_report, consts_a):
    # log(gap12 / h^(5/4)) = log A - S/hbar + alpha hbar over the desk rows;
    # freeze what it produces so drift is caught
    S, log_A, alpha = sweep_report.fit
    assert abs(S - 1.29933) < 1e-4
    assert abs(log_A - 1.44311) < 1e-4
    assert abs(alpha - (-1.57188)) < 1e-4
    assert abs(S - consts_a.S) / consts_a.S < 0.05


def test_single_h_no_fits_and_deterministic_csv(model_a, tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    cfg1 = SweepConfig(h_list=(0.09,), out_dir=str(out1))
    cfg2 = SweepConfig(h_list=(0.09,), out_dir=str(out2))
    rep1 = run_sweep(cfg1)
    rep2 = run_sweep(cfg2)
    assert len(rep1.rows) == 1
    assert rep1.fit is None
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_modelb_row_csv_is_deterministic(tmp_path):
    # ModelB's two complex operators go through shift-invert Lanczos, whose
    # start block is fixed: two sweeps of one row write the same bytes
    csvs = []
    for name in ("one", "two"):
        run_sweep(SweepConfig(model_name="ModelB", h_list=(0.09,),
                              out_dir=str(tmp_path / name)))
        csvs.append((tmp_path / name / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_one_row_solves_three_operators_once(sweep_report, tmp_path, monkeypatch):
    # mu and lambda_ow1 both come from the one sealed solve
    for row in sweep_report.rows:
        assert row["mu"] == row["lambda_ow1"]

    # count the calls through every module global that holds the functions
    from pdwell import effective, harness, quantize, spectra, tunneling, wkb
    calls = {"lowest_eigenpairs": 0, "assemble_L": 0}
    for name, home in (("lowest_eigenpairs", spectra), ("assemble_L", quantize)):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (effective, harness, quantize, spectra, tunneling, wkb):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    run_sweep(SweepConfig(h_list=(0.09,), out_dir=str(tmp_path / "one")))
    assert calls == {"lowest_eigenpairs": 3, "assemble_L": 1}


def test_one_row_samples_the_agmon_weight_once(monkeypatch):
    # agmon_1..3 share one sampling of the truncated phase on the row's nodes
    cfg = SweepConfig(h_list=(0.09,))
    phase = sweep_phase(cfg)
    calls = []

    def counted(x, _original=phase.truncated_evaluator):
        calls.append(len(x))
        return _original(x)

    monkeypatch.setattr(phase, "truncated_evaluator", counted)
    row = harness._sweep_row(cfg, 0.09)
    assert calls == [cfg.points_for(0.09)]
    assert all(math.isfinite(row[f"agmon_{n}"]) for n in (1, 2, 3))


def test_rows_pass_the_phase_cutoff_itself(monkeypatch):
    # the overlap cutoff is built once, with the phase; a row hands that very
    # object to interaction_term and builds none of its own
    cfg = SweepConfig(h_list=(0.09,))
    seen = []

    def spy(M, pairs, ow, chi_left, _original=harness.interaction_term):
        seen.append(chi_left)
        return _original(M, pairs, ow, chi_left)

    monkeypatch.setattr(harness, "interaction_term", spy)
    harness._sweep_row(cfg, 0.09)
    assert len(seen) == 1 and seen[0] is sweep_phase(cfg).chi_left


def test_localization_columns_match_their_formulas(sweep_report):
    """The nine localization columns of a desk row equal, bit for bit, the
    formulas of the cut h^(1/6) (1 - 1e-6), the ball of radius 0.5 around
    the left well and the weight exp(0.8 Phi~/sqrt(h)), written out here."""
    row = sweep_report.rows[-1]
    h = row["h"]
    cfg = SweepConfig(h_list=(h,))
    phase = sweep_phase(cfg)
    g = cfg.grid_for(h)
    M_ow = pdwell.assemble_onewell(pdwell.assemble_L(phase.model, g), phase.seal)
    w = (1.0 - 0.2) * phase.truncated_evaluator(g.x_nodes) / np.sqrt(h)
    for n, pair in enumerate(pdwell.lowest_eigenpairs(M_ow, 3), start=1):
        power = np.abs(np.fft.fft(pair.vector))**2
        beyond = np.abs(g.eta_fft) > h**(1.0/6.0) * (1.0 - 1e-6)
        assert row[f"fourier_tail_{n}"] == float(np.sum(power[beyond]) / np.sum(power))
        mass = np.abs(pair.vector)**2
        away = ~(np.abs(g.x_nodes - (-1.0)) <= 0.5)
        assert row[f"spatial_tail_{n}"] == float(np.sum(mass[away]) / np.sum(mass))
        with np.errstate(divide="ignore"):
            contrib = w + np.log(np.abs(pair.vector))
        a = 2.0 * contrib[np.isfinite(contrib)]
        i = int(np.argmax(a))
        terms = np.exp(a - a[i])
        terms[i] = 0.0
        log_sq = float(a[i] + np.log1p(np.sum(terms))) + np.log(g.dx)
        assert row[f"agmon_{n}"] == float(np.exp(0.5 * log_sq))


def _referenced_in(names):
    """name -> {(module, top-level function)} of each read of the names in src/."""
    found = {name: set() for name in names}
    for path in sorted(pathlib.Path(harness.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            for node in ast.walk(fn):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, (ast.Name, ast.Attribute)) and name in found:
                    found[name].add((path.stem, getattr(fn, "name", None)))
    return found


def test_one_solve_of_M_hbar_and_no_constants_in_the_harness():
    # the sweep's theorem prediction and `pdwell effective` share gap_Mhbar,
    # the one place that assembles and solves M_hbar
    assert _referenced_in(("assemble_Mhbar", "schrodinger_matrix")) == {
        "assemble_Mhbar": {("effective", "gap_Mhbar")},
        "schrodinger_matrix": {("effective", "assemble_Mhbar")}}
    # criterion 10's cut, radius and weight are spectra's; the harness hands
    # the diagnostics no number of its own
    diagnostics = {"fourier_tail", "spatial_tail", "agmon_weighted_norm"}
    calls = [node for node in ast.walk(ast.parse(pathlib.Path(harness.__file__).read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in diagnostics]
    assert len(calls) == 3
    literals = [ast.unparse(arg) for call in calls for arg in call.args + call.keywords
                if any(isinstance(c, ast.Constant) and isinstance(c.value, (int, float))
                       for c in ast.walk(arg))]
    assert literals == []


def _benchmark_row_problems(check, workload, cfg, csv_path):
    """(h, failed, problems) of every row check.check_sweep reports wrong,
    against the workload's frozen reference rows; cfg runs its seed-0 sweep."""
    assert cfg.h_list == workload.h_list(0)
    assert {cfg.points_for(h) for h in cfg.h_list} == {workload.N}
    root = pathlib.Path(__file__).resolve().parent.parent
    reference = check.parse_sweep(
        (root / "perfbench" / "reference" / f"{workload.name}.csv").read_text())
    rows = check.parse_sweep(csv_path.read_text())
    results = check.check_sweep(rows, cfg.h_list, workload.N, reference)
    assert [h for h, _, _ in results] == list(cfg.h_list)
    return [(h, failed, problems) for h, failed, problems in results
            if failed or problems]


def test_default_sweep_passes_benchmark_row_check(sweep_report, sweep_dir,
                                                  perfbench_module):
    # the row check of the modela-desk benchmark workload at seed 0, which
    # runs this sweep: same h list, same N = 512, frozen reference rows
    desk = perfbench_module("workloads").WORKLOADS["modela-desk"]
    assert desk.N == 512
    assert _benchmark_row_problems(perfbench_module("check"), desk, SweepConfig(),
                                   sweep_dir / "sweep.csv") == []


@pytest.mark.parametrize("name", ["modelb-coupled", "modela-deep"])
def test_workload_sweep_passes_benchmark_row_check(tmp_path, perfbench_module, name):
    # ModelB's certified Lanczos rows and the N = 1024 deep rows, run from the
    # workload's own seed-0 config, against its frozen reference rows
    workload = perfbench_module("workloads").WORKLOADS[name]
    path = tmp_path / f"{name}.ini"
    path.write_text(workload.config_text(0, str(tmp_path / "out")))
    cfg = load_config(path)
    report = run_sweep(cfg)
    assert report.flags == []
    assert _benchmark_row_problems(perfbench_module("check"), workload, cfg,
                                   tmp_path / "out" / "sweep.csv") == []


def test_crash_isolation(tmp_path, monkeypatch):
    import pdwell.harness as harness

    def stub(cfg, h):
        if h == 0.07:
            raise RuntimeError("boom")
        row = {c: math.nan for c in SWEEP_COLUMNS}
        row["h"] = h
        row["precision_flag"] = 0
        row["gap12"] = 1.0
        return row

    monkeypatch.setattr(harness, "_sweep_row", stub)
    cfg = SweepConfig(h_list=(0.09, 0.07, 0.05), out_dir=str(tmp_path / "crash"))
    rep = run_sweep(cfg)
    assert len(rep.rows) == 3
    assert rep.rows[0]["h"] == 0.09 and rep.rows[0]["precision_flag"] == 0
    assert rep.rows[1]["precision_flag"] == 1
    assert math.isnan(rep.rows[1]["gap12"])
    assert rep.rows[2]["h"] == 0.05 and rep.rows[2]["precision_flag"] == 0
    assert len(rep.flags) == 1
    assert "h=0.07" in rep.flags[0]
    assert "RuntimeError: boom" in rep.flags[0]
    lines = (tmp_path / "crash" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header plus one line per h, crash included


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(np.int64(7)) == "7"
    assert format_value(float("nan")) == "nan"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1.0) == "1"


def test_row_derives_the_splitting_columns(sweep_report):
    # mu, both ratios and 2|w_h| are read off the row's own columns
    for r in sweep_report.rows:
        assert r["mu"] == r["lambda_ow1"]
        assert r["ratio_thm"] == r["gap12"] / r["thm_pred"]
        assert r["ratio_formula"] == r["gap12"] / r["formula_pred"]
        assert r["two_abs_wh"] == 2.0 * abs(complex(r["re_wh"], r["im_wh"]))


def test_formula_prediction_is_the_effective_formula(sweep_report, model_a):
    """formula_pred of every default row is, bit for bit, h times the formula
    `pdwell effective` tabulates at hbar = sqrt(h): one spelling of the
    splitting formula, classical_splitting_formula, serves both."""
    rows = sweep_report.rows
    assert [r["h"] for r in rows] == list(SweepConfig().h_list)
    assert ([r["formula_pred"] for r in rows]
            == [r["h"] * pdwell.classical_splitting_formula(model_a, math.sqrt(r["h"]))
                for r in rows])
