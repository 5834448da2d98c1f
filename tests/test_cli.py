"""End-to-end tests of the command-line interface via cli.main."""

import ast
import csv
import gc
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import pdwell
from pdwell import cli
from pdwell.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_validate_prints_constants(tmp_path, capsys):
    cfg = _write(tmp_path, "[model]\nname = ModelA\n")
    assert main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "a2 = 2" in out
    assert "S = 1.28707419972" in out
    assert "kappa = 1.4142135623" in out


def test_validate_check_flags_bad_model(tmp_path, capsys):
    cfg = _write(tmp_path,
                 "[model]\nname = custom\na_expr = xi**2/(1+xi**2)\n"
                 "b_expr = (x**2-1)**2\nx_well = 1.0\n")
    assert main(["validate", cfg]) == 0
    assert "FAIL" in capsys.readouterr().out
    assert main(["validate", cfg, "--check"]) == 4


def test_unknown_model_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "[model]\nname = ModelC\n")
    assert main(["validate", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_unconverged_quadrature_exits_3(tmp_path, capsys, command):
    # the factor (x^2 - 0.09)^2 + 1e-5 puts a near-kink of sqrt(V) at x = +-0.3,
    # which the fixed Gauss-Legendre panels of the action do not resolve
    cfg = _write(tmp_path,
                 "[model]\nname = custom\na_expr = xi**2/(1+xi**2)\n"
                 "b_expr = (x**2-1)**2*((x**2-0.09)**2+0.00001)/(1+x**8)\n"
                 f"x_well = 1.0\n[sweep]\nh_list = 0.09\n[output]\ndir = {tmp_path}\n")
    assert main([command, cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: action quadrature did not converge")
    assert len(err.splitlines()) == 1


def test_oversized_literal_power_exits_3(tmp_path, capsys):
    # literals evaluate as float64, so 10**400 is inf and the symbol check
    # names the point, where a Python big integer overflowed the conversion
    cfg = _write(tmp_path,
                 "[model]\nname = custom\n"
                 "a_expr = xi**2/(1+xi**2) + xi*xi*10**400\n"
                 "b_expr = (x**2-1)**2\nx_well = 1.0\n")
    assert main(["validate", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: non-finite symbol a value at xi=")
    assert len(err.splitlines()) == 1


def test_unallocatable_array_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a power-of-two N below MAX_POINTS passes the grid rule, and its N x N
    # block then fails to allocate; the raise is stubbed, nothing large is made
    text = ("Unable to allocate 32.0 GiB for an array with shape "
            "(65537, 65537) and data type float64")

    def refuse(M, k):
        raise MemoryError(text)

    monkeypatch.setattr(cli, "lowest_eigenpairs", refuse)
    cfg = _write(tmp_path, "[model]\nname = ModelA\n")
    assert main(["spectrum", cfg, "--h", "0.05", "--k", "1"]) == 3
    assert capsys.readouterr().err == f"numeric failure: {text}\n"


def test_malformed_expression_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path,
                 "[model]\nname = custom\na_expr = xi**2/(1+xi**2)\n"
                 "b_expr = (x**2-1\nx_well = 1.0\n")
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: malformed expression")
    assert len(err.splitlines()) == 1


def test_spectrum_output_and_dump(tmp_path, capsys, model_a):
    dump = tmp_path / "m.bin"
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    code = main(["spectrum", cfg, "--h", "0.09", "--k", "3",
                 "--dump-matrix", str(dump)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_1 = " in out and "lambda_3 = " in out
    assert "lambda_onewell_1 = " in out
    assert "N = 512" in out

    entries, n_points, h = pdwell.load_matrix(str(dump))
    assert n_points == 512 and h == 0.09
    fresh = pdwell.assemble_L(model_a, pdwell.make_grid(8.0, 512, 0.09))
    assert np.array_equal(entries, fresh.dense())


@pytest.mark.parametrize("k", ["0", "513"])
def test_spectrum_bad_k_writes_no_dump(tmp_path, capsys, k):
    dump = tmp_path / "m.bin"
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    code = main(["spectrum", cfg, "--h", "0.05", "--k", k,
                 "--dump-matrix", str(dump)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: k must be in [1, 512], got {k}\n"
    assert captured.out == ""
    assert not dump.exists()


def test_spectrum_momentum_cutoff_error(tmp_path, capsys):
    cfg = _write(tmp_path, "[grid]\nn = 8192\n")
    assert main(["spectrum", cfg, "--h", "0.0001"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "N = 131072" in err


def test_spectrum_and_wkb_validate_model(tmp_path, capsys):
    cfg = _write(tmp_path,
                 "[model]\nname = custom\na_expr = xi**2/(1+xi**2)\n"
                 "b_expr = (x**2-1)**2\nx_well = 1.0\n")
    for argv in (["spectrum", cfg, "--h", "0.09"], ["wkb", cfg, "--h", "0.09"],
                 ["effective", cfg, "--hbar-list", "0.3"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: model assumptions failed")
        assert len(err.splitlines()) == 1


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    output = f"[output]\ndir = {tmp_path / 'out'}\n".encode()
    for body, named in ((b"[sweep]\nh_lsit = 0.09\n", "unknown key 'h_lsit' in [sweep]"),
                        (b"[sweeps]\nh_list = 0.09\n", "unknown section [sweeps]"),
                        (b"[DEFAULT]\nh_list = 0.09\n", "unknown section [DEFAULT]"),
                        (b"h_list = 0.09\n", "File contains no section headers"),
                        (b"\xff\xfe[sweep]\n", "is not UTF-8: 'utf-8' codec can't "
                                              "decode byte 0xff in position 0")):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(body + output)
        assert main(["sweep", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert named in err
        assert len(err.splitlines()) == 1


def test_wkb_profile_csv(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[output]\ndir = {out_dir}\n")
    assert main(["wkb", cfg, "--h", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "A_window = 3.20507611082" in out
    assert "norm_raw = 1.11912852184" in out
    with open(out_dir / "wkb_h0.05.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "phi_l", "phi_l_trunc", "re_u10", "im_u10", "psi_wkb"]
    assert len(rows) == 1 + 512
    assert float(rows[1][0]) == -4.0


def test_wkb_phase_grows_past_the_least_table_span(tmp_path, capsys):
    # with L = 32 the nodes run to +-16, past the phase table's least span
    # of 12; Phi grows strictly away from the well on both sides, where a
    # table of span 12 would repeat its end value at every node past +-12
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[grid]\nl = 32\n[output]\ndir = {out_dir}\n")
    assert main(["wkb", cfg, "--h", "0.05"]) == 0
    with open(out_dir / "wkb_h0.05.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r["x"]) for r in rows])
    phi = np.array([float(r["phi_l"]) for r in rows])
    assert x[0] == -16.0 and x[-1] > 15.9
    assert np.all(np.diff(phi[x <= -1.0]) < 0.0)
    assert np.all(np.diff(phi[x >= -1.0]) > 0.0)


def test_effective_table(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[output]\ndir = {out_dir}\n")
    assert main(["effective", cfg, "--hbar-list", "0.3", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "hbar = 0.3" in out and "hbar = 0.25" in out
    with open(out_dir / "effective.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["hbar", "lambda1", "lambda2", "lambda3", "lambda4",
                       "gap12", "formula", "ratio"]
    assert len(rows) == 3
    ratio = float(rows[1][-1])
    assert abs(ratio - 0.6916) < 1e-3


def test_effective_flags_a_gap_near_the_residual(tmp_path, capsys):
    # at hbar = 0.035 the gap, 4.8e-16, is within 100x of the residual
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    with pytest.warns(pdwell.PrecisionWarning, match="effective gap"):
        assert main(["effective", cfg, "--hbar-list", "0.2", "0.035"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-3:] for line in lines[:2]] == [["flag", "=", "0"],
                                                         ["flag", "=", "1"]]


def test_entry_prints_each_precision_warning_on_one_line(tmp_path):
    # warnings' default format added a second line, `  warnings.warn(`
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    done = subprocess.run(
        [sys.executable, "-m", "pdwell.cli", "effective", cfg,
         "--hbar-list", "0.2", "0.04", "0.035"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0
    assert [line.split()[-1] for line in done.stdout.splitlines()[:3]] == ["0", "1", "1"]
    lines = done.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("warning: effective gap ") for line in lines)


def test_effective_honours_fixed_grid_size(tmp_path, capsys, monkeypatch):
    # [grid] n sizes M_hbar's grids as it sizes L_h's; the automatic rule
    # would pick 512 at these hbar
    from pdwell import cli
    grids = []

    def spy(m, g):
        grids.append((g.n_points, g.h))
        return pdwell.gap_Mhbar(m, g)

    monkeypatch.setattr(cli, "gap_Mhbar", spy)
    cfg = _write(tmp_path, f"[grid]\nn = 1024\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["effective", cfg, "--hbar-list", "0.3", "0.2"]) == 0
    assert grids == [(1024, 0.3), (1024, 0.2)]


def test_sweep_check_passes(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path,
                 f"[sweep]\nh_list = 0.09 0.07 0.05\n"
                 f"[output]\ndir = {out_dir}\n")
    assert main(["sweep", cfg, "--check"]) == 0
    out = capsys.readouterr().out
    assert "ratio_thm = 1.0202" in out
    assert "fit: log(gap12 / h^(5/4)) = " in out
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == pdwell.SWEEP_COLUMNS
    assert [float(r[0]) for r in rows[1:]] == [0.09, 0.07, 0.05]


def test_sweep_check_needs_three_unflagged_rows(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path,
                 f"[sweep]\nh_list = 0.09 0.08\n"
                 f"[output]\ndir = {out_dir}\n")
    assert main(["sweep", cfg, "--check"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "check failed: too few unflagged rows for the action fit\n"
    assert "fit:" not in captured.out


@pytest.mark.parametrize("names", [
    "tunneling", "wkb tunneling", "localization wkb tunneling plots",
    "localization wkb wkb tunneling", "",
], ids=["narrowed", "narrowed_two", "unknown", "repeat", "empty"])
def test_diagnostics_other_than_all_three_exits_2(tmp_path, capsys, names):
    # every sweep computes every column; the [checks] line older configs
    # carry loads only when it names all three diagnostics once each
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09\n[output]\ndir = {out_dir}\n"
                           f"[checks]\ndiagnostics = {names}\n")
    assert main(["sweep", cfg]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: [checks] diagnostics = {names}: every sweep "
        "computes localization, wkb and tunneling, so the line names each once\n")
    assert not out_dir.exists()


def _formula_rows(monkeypatch, S, flagged=(), overrides=None):
    """Stub every sweep row with gap12 = h^(5/4) exp(-S / sqrt(h)), which
    both routes reproduce; overrides maps an h to {column: multiple of gap12}."""
    import pdwell.harness as harness

    def stub(cfg, h):
        gap = h**1.25 * np.exp(-S / np.sqrt(h))
        row = {**{c: 1.0 for c in pdwell.SWEEP_COLUMNS}, "h": h,
               "precision_flag": int(h in flagged), "gap12": gap,
               "two_abs_wh": gap, "gram_gap": gap}
        for column, value in (overrides or {}).get(h, {}).items():
            row[column] = value * gap
        return row

    monkeypatch.setattr(harness, "_sweep_row", stub)


@pytest.mark.parametrize("column, value", [
    ("two_abs_wh", 1.5), ("gram_gap", 1.1), ("two_abs_wh", np.nan),
    ("gram_gap", np.nan),
], ids=["interaction", "gram", "interaction_nan", "gram_nan"])
def test_sweep_check_fails_on_a_row_bound(tmp_path, capsys, monkeypatch, consts_a,
                                          column, value):
    # the gaps follow the formula with the true action, so only the row's
    # bound can fail the gate
    _formula_rows(monkeypatch, consts_a.S, overrides={0.07: {column: value}})
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09 0.07 0.05\n"
                           f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["sweep", cfg, "--check"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("check failed at h = 0.07: interaction deviation ")
    assert main(["sweep", cfg]) == 0


def test_sweep_check_skips_flagged_rows(tmp_path, capsys, monkeypatch, consts_a):
    # the flagged row breaks both bounds; the three others carry the fit
    _formula_rows(monkeypatch, consts_a.S, flagged=(0.07,),
                  overrides={0.07: {"two_abs_wh": np.nan, "gram_gap": np.nan}})
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09 0.08 0.07 0.05\n"
                           f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["sweep", cfg, "--check"]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_check_fails_on_the_fitted_action(tmp_path, capsys, monkeypatch,
                                                consts_a):
    # every row meets its bounds, but the gaps decay with 1.2 S
    _formula_rows(monkeypatch, 1.2 * consts_a.S)
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09 0.07 0.05\n"
                           f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["sweep", cfg, "--check"]) == 4
    err = capsys.readouterr().err
    assert err == ("check failed: fitted action 1.544489 deviates 20.0% "
                   "from S = 1.287074\n")


def test_spectrum_and_effective_build_no_phase(tmp_path, capsys, monkeypatch):
    from pdwell import cli, harness, wkb
    calls = []
    original = wkb.agmon_phase

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cli, harness, wkb):
        if getattr(mod, "agmon_phase", None) is original:
            monkeypatch.setattr(mod, "agmon_phase", counted)
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["spectrum", cfg, "--h", "0.09", "--k", "1"]) == 0
    assert main(["effective", cfg, "--hbar-list", "0.35"]) == 0
    assert calls == []
    # the counter sees the build that wkb does need
    assert main(["wkb", cfg, "--h", "0.09"]) == 0
    assert len(calls) == 1
    # run_sweep and the row share one build; one row is too few for the fit
    calls.clear()
    one_row = _write(tmp_path, f"[sweep]\nh_list = 0.09\n"
                               f"[output]\ndir = {tmp_path / 'sweep'}\n", "sweep.ini")
    assert main(["sweep", one_row, "--check"]) == 4
    assert len(calls) == 1


def test_effective_ignores_seal(tmp_path, capsys):
    # a seal this low leaves a competing minimum; effective never uses it
    cfg = _write(tmp_path, f"[seal]\nheight = 1e-12\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["effective", cfg, "--hbar-list", "0.35"]) == 0
    assert main(["spectrum", cfg, "--h", "0.09"]) == 2
    assert "competing minimum" in capsys.readouterr().err


@pytest.mark.parametrize("grid, named", [
    ("n = 1000", "N must be a power of two >= 2, got 1000"),
    ("l = 0", "domain length must be positive, got 0.0"),
    ("l = -8\nn = auto", "domain length must be positive, got -8.0"),
    ("l = 1.5", "span 0.75 must contain the wells at +-1"),
], ids=["n_not_power_of_two", "l_zero", "l_negative_auto_n", "l_misses_wells"])
def test_bad_grid_exits_before_any_row(tmp_path, capsys, grid, named):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[grid]\n{grid}\n[sweep]\nh_list = 0.09\n"
                           f"[output]\ndir = {out_dir}\n")
    assert main(["sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {named}\n"
    assert not out_dir.exists()


H_RANGE = "semiclassical parameter must be in (0, 1], got "


@pytest.mark.parametrize("argv, section, named", [
    (["spectrum", "--h", "0"], "", H_RANGE + "0.0"),
    (["spectrum", "--h", "-0.05"], "", H_RANGE + "-0.05"),
    (["wkb", "--h", "0"], "", H_RANGE + "0.0"),
    (["effective", "--hbar-list", "0"], "", H_RANGE + "0.0"),
    (["effective", "--hbar-list", "0.3", "-0.1"], "", H_RANGE + "-0.1"),
    (["spectrum", "--h", "1e-300"], "",
     "no N <= 1048576 meets pi*h*N/L >= 3.0 at h = 1e-300, L = 8.0"),
    (["sweep"], "[grid]\nxi_min = inf", "xi_min must be finite, got inf"),
    (["sweep"], "[grid]\nxi_min = nan\nn = 512", "xi_min must be finite, got nan"),
    (["sweep"], "[grid]\nxi_min = -5\nn = 4", "xi_min must be >= 0, got -5.0"),
    (["sweep"], "[seal]\nheight = nan", "seal height must lie in (0, inf), got nan"),
    (["sweep"], "[seal]\nheight = inf", "seal height must lie in (0, inf), got inf"),
], ids=["spectrum_h_zero", "spectrum_h_negative", "wkb_h_zero",
        "effective_hbar_zero", "effective_hbar_negative", "spectrum_h_tiny",
        "xi_min_inf", "xi_min_nan", "xi_min_negative", "seal_height_nan",
        "seal_height_inf"])
def test_bad_scale_exits_2(tmp_path, capsys, argv, section, named):
    # without the range checks the automatic grid rule doubled N until the
    # int overflowed a float, xi_min = nan switched the cutoff off, and a
    # non-finite seal height reached the phase root finder: tracebacks. A
    # negative xi_min switched the cutoff off too and ran an aliased N = 4 row
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"{section}\n[sweep]\nh_list = 0.09\n"
                           f"[output]\ndir = {out_dir}\n")
    assert main([argv[0], cfg] + argv[1:]) == 2
    assert capsys.readouterr().err == f"configuration error: {named}\n"
    assert not out_dir.exists()


def test_crashed_row_exits_3_after_last_row(tmp_path, capsys, monkeypatch):
    import pdwell.harness as harness

    def stub(cfg, h):
        if h == 0.08:
            raise RuntimeError("boom")
        return {**{c: 1.0 for c in pdwell.SWEEP_COLUMNS},
                "h": h, "precision_flag": 0}

    monkeypatch.setattr(harness, "_sweep_row", stub)
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09 0.08 0.07\n"
                           f"[output]\ndir = {out_dir}\n")
    assert main(["sweep", cfg]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines if line.startswith("h = ")] \
        == ["0.09", "0.08", "0.07"]
    assert [line for line in lines if line.startswith("flagged: ")] \
        == ["flagged: h=0.08: RuntimeError: boom"]
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["h"]) for r in rows] == [0.09, 0.08, 0.07]
    assert [r["precision_flag"] for r in rows] == ["0", "1", "0"]
    assert [r["gap12"] for r in rows] == ["1", "nan", "1"]


@pytest.mark.parametrize("argv, name", [
    (["sweep"], "sweep.csv"),
    (["wkb", "--h", "0.09"], "wkb_h0.09.csv"),
    (["effective", "--hbar-list", "0.3"], "effective.csv"),
], ids=["sweep", "wkb", "effective"])
def test_output_dir_under_a_file_exits_2(tmp_path, capsys, monkeypatch, argv, name):
    from pdwell import cli, harness

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the output was opened")

    monkeypatch.setattr(harness, "_sweep_row", no_solve)
    monkeypatch.setattr(cli, "lowest_eigenpairs", no_solve)
    monkeypatch.setattr(cli, "gap_Mhbar", no_solve)
    (tmp_path / "blocker").write_text("")
    out_dir = tmp_path / "blocker" / "out"
    cfg = _write(tmp_path, f"[sweep]\nh_list = 0.09\n[output]\ndir = {out_dir}\n")
    assert main([argv[0], cfg] + argv[1:]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {out_dir / name}: Not a directory\n")


def _no_eigensolve(monkeypatch):
    """Record every call of lowest_eigenpairs through each module that holds it."""
    from pdwell import effective, harness, spectra, tunneling, wkb
    calls = []
    original = spectra.lowest_eigenpairs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (cli, effective, harness, spectra, tunneling, wkb):
        if getattr(mod, "lowest_eigenpairs", None) is original:
            monkeypatch.setattr(mod, "lowest_eigenpairs", counted)
    return calls


def test_coarse_grid_sweep_exits_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # pi h N / L = 0.5655 at h = 0.09 on N = 16 lies below the Fourier
    # tail's cut h^(1/6) = 0.6694: sweep refuses the config before the first
    # solve and writes no CSV; spectrum measures no tail and still runs
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, "[grid]\nn = 16\nxi_min = 0.01\n[sweep]\nh_list = 0.09\n"
                           f"[output]\ndir = {out_dir}\n")
    calls = _no_eigensolve(monkeypatch)
    assert main(["sweep", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: momentum cutoff pi*h*N/L = 0.5655 at h = 0.09 does not "
        "exceed the Fourier tail's cut h^(1/6) = 0.6694; raise N or xi_min\n")
    assert calls == []
    assert not out_dir.exists()
    assert main(["spectrum", cfg, "--h", "0.09"]) == 0
    assert len(calls) == 2


def test_sweep_checks_the_fourier_cut_of_every_row(tmp_path, capsys, monkeypatch):
    # with N = auto and xi_min = 0.3, h = 0.00152 takes the 512-point floor,
    # whose cutoff 0.3056 lies below its cut 0.3390, while the smallest h,
    # 1e-4, takes N = 8192 and passes
    from pdwell import harness

    def no_row(*args, **kwargs):
        raise AssertionError("a row ran before the Fourier cuts were checked")

    monkeypatch.setattr(harness, "_sweep_row", no_row)
    cfg = _write(tmp_path, "[grid]\nxi_min = 0.3\n[sweep]\nh_list = 0.00152 0.0001\n"
                           f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["sweep", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: momentum cutoff pi*h*N/L = 0.3056 at h = 0.00152 ")


def test_dump_into_missing_directory_exits_before_solves(tmp_path, capsys, monkeypatch):
    from pdwell import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the dump file was opened")

    monkeypatch.setattr(cli, "lowest_eigenpairs", no_solve)
    dump = tmp_path / "missing" / "m.bin"
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["spectrum", cfg, "--h", "0.09", "--dump-matrix", str(dump)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot write {dump}: No such file or directory\n")
    assert not dump.parent.exists()


def test_wkb_columns_are_the_quasimode_samples(tmp_path, capsys, grid05,
                                               phase_a_left):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, f"[output]\ndir = {out_dir}\n")
    assert main(["wkb", cfg, "--h", "0.05"]) == 0
    with open(out_dir / "wkb_h0.05.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    q = pdwell.wkb_quasimode(grid05, phase_a_left)
    # 17 significant digits round-trip a double exactly; the command's phase
    # has tables on the grid window, the fixture's on [-12, 12]
    assert [float(r["phi_l"]) for r in rows] == q.phi.tolist()
    assert ([float(r["phi_l_trunc"]) for r in rows]
            == phase_a_left.truncated_evaluator(grid05.x_nodes).tolist())
    assert [float(r["re_u10"]) for r in rows] == q.amplitude.real.tolist()
    assert [float(r["im_u10"]) for r in rows] == q.amplitude.imag.tolist()
    assert [float(r["psi_wkb"]) for r in rows] == q.vector.real.tolist()


def test_script_and_main_block_name_one_entry():
    scripts = re.search(r"^\[project\.scripts\]\n((?:\w+ = .*\n)+)",
                        (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    tree = ast.parse((ROOT / "src" / "pdwell" / "cli.py").read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (stmt,) = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert not stmt.value.args and not stmt.value.keywords
    assert scripts == f'pdwell = "pdwell.cli:{stmt.value.func.id}"\n'


def test_in_process_main_leaves_collector_alone(tmp_path, capsys):
    before = gc.get_freeze_count()
    cfg = _write(tmp_path, "[model]\nname = ModelA\n")
    assert main(["validate", cfg, "--check"]) == 0
    assert gc.get_freeze_count() == before


def test_entry_freezes_before_dispatch(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
    monkeypatch.setattr(sys, "exit", lambda code=None: calls.append(("exit", code)))
    cli.run()
    assert calls == ["freeze", "main", ("exit", 3)]
