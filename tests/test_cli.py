"""End-to-end tests of the command-line interface via cli.main."""

import csv

import numpy as np

import pdwell
from pdwell.cli import main


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
    assert np.array_equal(entries, fresh.entries)


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
    for command in ("spectrum", "wkb"):
        assert main([command, cfg, "--h", "0.09"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: model assumptions failed")
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


def test_splitting_check_passes(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path,
                 f"[sweep]\nh_list = 0.09\n[output]\ndir = {out_dir}\n")
    assert main(["splitting", cfg, "--check"]) == 0
    out = capsys.readouterr().out
    assert "ratio_thm = 1.0202" in out
    with open(out_dir / "splitting.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == pdwell.SPLITTING_COLUMNS
    assert len(rows) == 2
    assert float(rows[1][0]) == 0.09


def test_sweep_check_rejects_desk_scale_action_fit(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path,
                 f"[sweep]\nh_list = 0.09 0.08\n"
                 f"[checks]\ndiagnostics = tunneling\n"
                 f"[output]\ndir = {out_dir}\n")
    assert main(["sweep", cfg, "--check"]) == 4
    captured = capsys.readouterr()
    assert "fitted action" in captured.err
    assert "fit: log(gap12)" in captured.out
    assert "monotone =" in captured.out
