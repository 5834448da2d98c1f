"""Sweep configuration, orchestration, analytics, and CSV persistence."""

import math

import numpy as np
import pytest

from pdwell import ConfigurationError, NumericError
from pdwell.harness import (SPLITTING_COLUMNS, SWEEP_COLUMNS, SweepConfig,
                            auto_points, build_model, convergence_ratios,
                            format_value, load_config, run_sweep, splitting_row)
from pdwell.tunneling import InteractionReport


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


def test_config_rejects_unknown_diagnostics():
    with pytest.raises(ConfigurationError):
        SweepConfig(diagnostics=("wkb", "plots"))


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
        "[checks]\ndiagnostics = wkb tunneling\n")
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
    assert cfg.diagnostics == ("wkb", "tunneling")


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
        for col in SWEEP_COLUMNS:
            assert col in row
        assert math.isfinite(row["gap12"])
    assert sweep_report.flags == []
    assert sweep_report.fits is not None
    assert sweep_report.fits_corrected is not None


def test_sweep_fit_slope(sweep_report, consts_a):
    # the raw log-gap fit at desk scale lands far from -S; freeze what it
    # actually produces so drift is caught
    slope, _ = sweep_report.fits
    assert slope < 0
    assert abs(-slope - consts_a.S) / consts_a.S > 0.25
    assert abs(slope - (-1.81)) < 0.05
    # removing the h^(5/4) prefactor pulls the slope toward -S
    slope_c, _ = sweep_report.fits_corrected
    assert slope < slope_c < 0
    assert abs(-slope_c - consts_a.S) < abs(-slope - consts_a.S)


def test_single_h_no_fits_and_deterministic_csv(model_a, tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    cfg1 = SweepConfig(h_list=(0.09,), out_dir=str(out1))
    cfg2 = SweepConfig(h_list=(0.09,), out_dir=str(out2))
    rep1 = run_sweep(cfg1)
    rep2 = run_sweep(cfg2)
    assert len(rep1.rows) == 1
    assert rep1.fits is None
    assert rep1.fits_corrected is None
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_worker_pool_matches_serial(model_a, tmp_path, monkeypatch):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "pool"
    run_sweep(SweepConfig(h_list=(0.09, 0.08), out_dir=str(out1),
                          diagnostics=("tunneling",)))
    monkeypatch.setenv("PDWELL_WORKERS", "2")
    run_sweep(SweepConfig(h_list=(0.09, 0.08), out_dir=str(out2),
                          diagnostics=("tunneling",)))
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


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


def test_crash_isolation(tmp_path, monkeypatch):
    import pdwell.harness as harness

    def stub(task):
        if task["h"] == 0.07:
            raise RuntimeError("boom")
        row = {c: math.nan for c in SWEEP_COLUMNS}
        row["h"] = task["h"]
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


def test_convergence_ratios_trivial():
    rows = [{"h": h, "gap12": 2.0*h, "thm_pred": 2.0*h, "precision_flag": 0}
            for h in (0.09, 0.07, 0.05)]
    ratios, devs, verdict = convergence_ratios(rows)
    assert ratios == [1.0, 1.0, 1.0]
    assert devs == [0.0, 0.0, 0.0]
    assert verdict


def test_convergence_ratios_synthetic_decreasing():
    rows = [{"h": h, "gap12": (1.0 + math.sqrt(h))*3.0, "thm_pred": 3.0,
             "precision_flag": 0}
            for h in (0.09, 0.07, 0.05, 0.04)]
    ratios, devs, verdict = convergence_ratios(rows)
    assert verdict
    assert devs == sorted(devs, reverse=True)


def test_convergence_ratios_skips_flagged():
    rows = [{"h": 0.09, "gap12": 1.0, "thm_pred": 1.0, "precision_flag": 0},
            {"h": 0.07, "gap12": 99.0, "thm_pred": 1.0, "precision_flag": 1},
            {"h": 0.05, "gap12": 1.0, "thm_pred": 1.0, "precision_flag": 0}]
    ratios, _, verdict = convergence_ratios(rows)
    assert ratios == [1.0, 1.0]
    assert verdict


def test_convergence_ratios_needs_two_rows():
    rows = [{"h": 0.09, "gap12": 1.0, "thm_pred": 1.0, "precision_flag": 1},
            {"h": 0.07, "gap12": 1.0, "thm_pred": 1.0, "precision_flag": 1}]
    with pytest.raises(NumericError):
        convergence_ratios(rows)


def test_convergence_verdict_on_real_sweep(sweep_report):
    ratios, devs, verdict = convergence_ratios(sweep_report.rows)
    assert len(ratios) == 6
    # measured deviations grow as h falls at desk scale, so the
    # monotone-approach verdict comes back negative
    assert not verdict
    assert devs[-1] > devs[0]


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(np.int64(7)) == "7"
    assert format_value(float("nan")) == "nan"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1.0) == "1"


def test_splitting_row_mapping():
    rep = InteractionReport(h=0.05, mu=0.013, w_h=1e-4 + 1e-6j,
                            overlap=0.004 + 0j, gram_eigen_gap=2.1e-4,
                            measured_gap=2.0e-4, thm_prediction=1.9e-4,
                            formula_prediction=2.5e-4, lambda1=0.0129,
                            lambda2=0.0131, lambda3=0.025, gap23=0.0119,
                            precision_flag=False)
    row = splitting_row(rep)
    assert set(row) == set(SPLITTING_COLUMNS)
    assert row["two_abs_wh"] == 2.0 * abs(rep.w_h)
    assert row["re_wh"] == 1e-4
    assert row["im_wh"] == 1e-6
    assert row["ratio_thm"] == rep.measured_gap / rep.thm_prediction
    assert row["precision_flag"] == 0
