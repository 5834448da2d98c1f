"""Mutation run for pdwell's checks: each listed fault must turn its tests red.

Each entry of MUTANTS names a file under src/pdwell, its edits and the
pytest node ids that must fail once they are made. An edit is a pair: one
exact source line (compared without its indentation) and the line that
replaces it (the indentation is kept); a mutant's edits are applied
together. For each entry the tool copies src/ to a temporary directory,
applies the edits there and runs only those tests against the copy; src/
itself is never written. First it runs every listed test on an unmutated
copy, so a test that fails anyway cannot pass for a catch.

    python3 tools/mutants.py

It exits 1 when a mutant survives (one of its tests still passes), when a
mutant's line is not found exactly once in its file (the list has gone
stale), or when a listed test fails on the unmutated copy. It needs only the
test dependencies and takes a few seconds per mutant. Run it on every change
that adds, moves or loosens a check or a gate, and before deleting code that
an entry covers. A change that adds a check adds its mutants here; a change
that deletes a mutant's line deletes its entry.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # path under src/pdwell
    edits: tuple        # (source line without its indentation, replacement at
                        # the same indentation) pairs, applied together
    tests: tuple        # pytest node ids that must all fail


ACCEPTANCE_TESTS = "tests/test_acceptance.py::"
CLI_TESTS = "tests/test_cli.py::"
HARNESS_TESTS = "tests/test_harness.py::"
LAPACK_TESTS = "tests/test_lapack.py::"
MODEL_TESTS = "tests/test_model.py::"
QUANTIZE_TESTS = "tests/test_quantize.py::"
PROPERTY_TESTS = "tests/test_properties.py::"
SPECTRA_TESTS = "tests/test_spectra.py::"
TUNNELING_TESTS = "tests/test_tunneling.py::"
WKB_TESTS = "tests/test_wkb.py::"

MUTANTS = (
    # the Hermitian average of each inverse-DFT row (quantize._symmetrize)
    Mutant("symmetrize-no-conj", "quantize.py",
           (("W += np.conj(W[..., reverse_indices(W.shape[-1])])",
             "W += W[..., reverse_indices(W.shape[-1])]"),),
           (QUANTIZE_TESTS + "test_symmetrized_matrix_exactly_hermitian",
            QUANTIZE_TESTS + "test_symmetrize_rows_conjugate_even")),
    Mutant("symmetrize-no-half", "quantize.py", (("W *= 0.5", "pass"),),
           (QUANTIZE_TESTS + "test_symmetrize_rows_conjugate_even",
            QUANTIZE_TESTS + "test_weyl_constant_symbol_is_identity")),
    Mutant("symmetrize-plain-reversal", "quantize.py",
           (("W += np.conj(W[..., reverse_indices(W.shape[-1])])",
             "W += np.conj(W[..., ::-1])"),),
           (QUANTIZE_TESTS + "test_symmetrize_rows_conjugate_even",
            QUANTIZE_TESTS + "test_symmetrized_matrix_exactly_hermitian")),
    Mutant("weyl-matrix-unsymmetrized", "quantize.py", (("_symmetrize(W)", "pass"),),
           (QUANTIZE_TESTS + "test_symmetrized_matrix_exactly_hermitian",
            PROPERTY_TESTS + "test_symmetrized_matrices_exactly_hermitian")),
    Mutant("circulant-unsymmetrized", "quantize.py", (("_symmetrize(col)", "pass"),),
           (QUANTIZE_TESTS + "test_symmetrized_matrix_exactly_hermitian",
            PROPERTY_TESTS + "test_column_symmetrization_matches_full_matrix")),
    # reflection symmetry read off the operator's numbers
    Mutant("reflection-complex-column", "quantize.py",
           (("return (not np.iscomplexobj(self.column)", "return (True"),),
           (QUANTIZE_TESTS + "test_reflection_symmetry_is_read_off_the_numbers",)),
    Mutant("reflection-diagonal-only", "quantize.py",
           (("and np.array_equal(self.column[rev], self.column)", "and True"),),
           (QUANTIZE_TESTS + "test_reflection_symmetry_is_read_off_the_numbers",)),
    Mutant("reflection-dense-true", "quantize.py", (("return False", "return True"),),
           (QUANTIZE_TESTS + "test_reflection_symmetry_is_read_off_the_numbers",
            SPECTRA_TESTS + "test_solves_leave_their_operators_unchanged",
            SPECTRA_TESTS + "test_modelb_operators_are_certified")),
    Mutant("reflection-diagonal-allclose", "quantize.py",
           (("and np.array_equal(self.diagonal[rev], self.diagonal))",
             "and np.allclose(self.diagonal[rev], self.diagonal))"),),
           (QUANTIZE_TESTS + "test_reflection_symmetry_is_read_off_the_numbers",)),
    Mutant("reflection-both-allclose", "quantize.py",
           (("and np.array_equal(self.column[rev], self.column)",
             "and np.allclose(self.column[rev], self.column)"),
            ("and np.array_equal(self.diagonal[rev], self.diagonal))",
             "and np.allclose(self.diagonal[rev], self.diagonal))")),
           (QUANTIZE_TESTS + "test_reflection_symmetry_is_read_off_the_numbers",)),
    # the parity-sector solve of reflection-symmetric circulants
    Mutant("parity-block-hankel-added", "quantize.py",
           (("block -= sliding_window_view(col[2:], n)[:n]",
             "block += sliding_window_view(col[2:], n)[:n]"),),
           (PROPERTY_TESTS + "test_parity_sectors_match_dense_eigh",
            SPECTRA_TESTS + "test_parity_first_two_states")),
    Mutant("parity-lift-no-sign", "spectra.py",
           (("lifted[half + 1:] = parity * lifted[half - 1:0:-1]",
             "lifted[half + 1:] = lifted[half - 1:0:-1]"),),
           (PROPERTY_TESTS + "test_parity_sectors_match_dense_eigh",
            SPECTRA_TESTS + "test_parity_first_two_states")),
    Mutant("parity-singletons-unweighted", "spectra.py",
           (("d[[0, half]] = math.sqrt(0.5)", "d[[0, half]] = 1.0"),),
           (PROPERTY_TESTS + "test_parity_sectors_match_dense_eigh",
            SPECTRA_TESTS + "test_parity_first_two_states")),
    # the certified shift-invert route of complex whole solves
    Mutant("certificate-no-rank-k-term", "spectra.py",
           (("herk(2.0 * (tau - sigma), V, beta=1.0, c=A, lower=1, overwrite_c=1)",
             "pass"),),
           (SPECTRA_TESTS + "test_modelb_operators_are_certified",
            SPECTRA_TESTS + "test_certificate_rejects_a_block_that_skips_the_ground_pair")),
    Mutant("certificate-skipped", "spectra.py",
           (("and _certified(A, M, X[:, :k], tau, sigma)):", "):"),),
           (SPECTRA_TESTS + "test_forced_certificate_failure_returns_zheevr_bytes[certificate]",
            SPECTRA_TESTS + "test_krylov_space_without_the_ground_state_goes_to_zheevr")),
    Mutant("certificate-tau-above-next-ritz-value", "spectra.py",
           (("tau = 0.5 * (w[k - 1] + w[k])",
             "tau = w[k] + 0.5 * (w[k] - w[k - 1])"),),
           (SPECTRA_TESTS + "test_modelb_operators_are_certified",
            SPECTRA_TESTS + "test_shift_just_below_the_ground_level_stays_certified")),
    Mutant("shift-above-ground-level", "spectra.py",
           (("sigma = _gershgorin_floor(A)",
             "sigma = float(np.trace(A).real) / A.shape[0]"),),
           (SPECTRA_TESTS + "test_modelb_operators_are_certified",
            SPECTRA_TESTS + "test_shift_just_below_the_ground_level_stays_certified")),
    Mutant("one-reorthogonalization-round", "spectra.py",
           (("for _ in range(2):", "for _ in range(1):"),),
           (SPECTRA_TESTS + "test_shift_just_below_the_ground_level_stays_certified",)),
    Mutant("ritz-residual-guard-dropped", "spectra.py",
           (("and np.all(resid[:k] <= RESIDUAL_RTOL * scale)", "and True"),),
           (SPECTRA_TESTS + "test_forced_certificate_failure_returns_zheevr_bytes[ritz_residual]",)),
    # the Agmon phase's window search, amplitude integrand and span guard
    Mutant("window-near-branch", "wkb.py",
           (("far = cum.edges < well", "far = cum.edges > well"),),
           (WKB_TESTS + "test_phase_window_constant",
            WKB_TESTS + "test_window_constant_is_side_symmetric[ModelA]")),
    Mutant("amplitude-singular-limit-dropped", "wkb.py",
           (("return np.where(near, limit, reg) + 1j * imag_part",
             "return reg + 1j * imag_part"),),
           (WKB_TESTS + "test_quasimode_norm_raw",
            CLI_TESTS + "test_wkb_profile_csv")),
    Mutant("table-span-guard-dropped", "wkb.py",
           (("if np.abs(x).max(initial=0.0) > table.hi:", "if False:"),),
           (WKB_TESTS + "test_narrow_tables_refuse_queries_past_their_span",)),
    # d_xi b(x, 0) is the complex step Im b(x, i d) / d, read only by the
    # amplitude integrand
    Mutant("xi-step-real-part", "wkb.py",
           (("imag_part = np.imag(m.b(s, 1j * _XI_STEP)) / _XI_STEP / consts.a2",
             "imag_part = np.real(m.b(s, 1j * _XI_STEP)) / _XI_STEP / consts.a2"),),
           (WKB_TESTS + "test_amplitude_phase_is_the_closed_form[ModelB]",
            WKB_TESTS + "test_amplitude_phase_is_the_closed_form[custom]")),
    Mutant("xi-step-coarse", "wkb.py", (("_XI_STEP = 2.0**-100", "_XI_STEP = 2.0**-10"),),
           (WKB_TESTS + "test_amplitude_phase_is_the_closed_form[ModelB]",
            WKB_TESTS + "test_amplitude_phase_is_the_closed_form[custom]")),
    # Phi's table reaches past a grid window wider than [-12, 12]
    Mutant("phase-table-on-the-least-span", "wkb.py",
           (("cum = _table(g, max(_DOMAIN, span), well)", "cum = _table(g, _DOMAIN, well)"),),
           (CLI_TESTS + "test_wkb_phase_grows_past_the_least_table_span",)),
    # the overlap cutoff ends where the seal starts, so chi_left k = 0
    Mutant("overlap-cutoff-into-the-seal", "wkb.py",
           (("* smoothstep(1.0 - 2.0*(x - (x_r - 2.0*eta))/eta))",
             "* smoothstep(1.0 - 2.0*(x - (x_r - eta))/eta))"),),
           (TUNNELING_TESTS + "test_cutoff_geometry",)),
    # gates written so that a nan fails them, and the seal's landscape scan
    Mutant("action-gate-passes-nan", "model.py",
           (("if not (S_err <= 1e-10 * max(1.0, abs(S))):",
             "if S_err > 1e-10 * max(1.0, abs(S)):"),),
           (MODEL_TESTS + "test_nan_quadrature_estimate_raises[action]",)),
    Mutant("prefactor-gate-passes-nan", "model.py",
           (("if not (I_err <= 1e-8):", "if I_err > 1e-8:"),),
           (MODEL_TESTS + "test_nan_quadrature_estimate_raises[prefactor]",)),
    # derived_constants names a well that is no nondegenerate zero of V
    Mutant("well-check-dropped", "model.py",
           (("if not (abs(v_l) <= _ZERO_TOL and V2 > _NONDEGENERACY_MIN):", "if False:"),),
           (MODEL_TESTS + "test_derived_constants_names_a_bad_well[off_the_zero]",
            MODEL_TESTS + "test_derived_constants_names_a_bad_well[degenerate_zero]")),
    Mutant("seal-gate-passes-nan", "wkb.py",
           (("if not (floor > level + 1e-9):", "if floor <= level + 1e-9:"),),
           (WKB_TESTS + "test_nan_well_level_fails_the_seal_gate",)),
    Mutant("seal-landscape-unchecked", "wkb.py",
           (('landscape = _finite("sealed landscape", landscape, x=xs)', "pass"),),
           (WKB_TESTS + "test_non_finite_sealed_landscape_is_evaluation_error",)),
    # the LAPACK binding passes scipy's arguments and checks
    Mutant("lapack-no-workspace-query", "_lapack.py",
           (('sizes = _call(getattr(_flapack, name + "_lwork"), a.shape[0], lower=1)',
             "pass"),
            ("work = dict(zip(keys, (int(s.real) for s in sizes)))", "work = {}")),
           (LAPACK_TESTS + "test_eigh_subset_matches_scipy",)),
    Mutant("lapack-upper-triangle", "_lapack.py",
           (('w, v, m = _call(getattr(_flapack, name), a, lower=1, compute_v=1, range="I",',
             'w, v, m = _call(getattr(_flapack, name), a, lower=0, compute_v=1, range="I",'),),
           (LAPACK_TESTS + "test_eigh_subset_matches_scipy",)),
    Mutant("lapack-finiteness-unchecked", "_lapack.py",
           (("if check_finite and not all(np.isfinite(a).all() for a in args):", "if False:"),),
           (LAPACK_TESTS + "test_non_finite_input_is_linalg_error[nan]",
            LAPACK_TESTS + "test_non_finite_input_is_linalg_error[inf]")),
    # the grid's momentum cutoff
    Mutant("negative-xi-min-accepted", "quantize.py", (("if xi_min < 0.0:", "if False:"),),
           (CLI_TESTS + "test_bad_scale_exits_2[xi_min_negative]",)),
    # sweep --check's row bounds, written so that a nan deviation fails
    Mutant("check-nan-deviation-passes", "cli.py",
           (("if not (inter_dev <= 0.3 and gram_dev <= 0.05):",
             "if inter_dev > 0.3 or gram_dev > 0.05:"),),
           (CLI_TESTS + "test_sweep_check_fails_on_a_row_bound[interaction_nan]",
            CLI_TESTS + "test_sweep_check_fails_on_a_row_bound[gram_nan]")),
    # criterion 10's constants, and the sweep's check of every row's Fourier
    # cut before the first solve
    Mutant("spatial-radius-changed", "spectra.py",
           (("return float(np.sum(mass[np.abs(g.x_nodes - center) > 0.5]) / np.sum(mass))",
             "return float(np.sum(mass[np.abs(g.x_nodes - center) > 0.4]) / np.sum(mass))"),),
           (HARNESS_TESTS + "test_localization_columns_match_their_formulas",)),
    Mutant("fourier-cut-precheck-dropped", "harness.py",
           (("fourier_cut(cfg.grid_for(h))", "pass"),),
           (CLI_TESTS + "test_coarse_grid_sweep_exits_2_before_any_solve",
            CLI_TESTS + "test_sweep_checks_the_fourier_cut_of_every_row")),
    Mutant("fourier-cut-precheck-smallest-h-only", "harness.py",
           (("fourier_cut(cfg.grid_for(h))", "fourier_cut(cfg.grid_for(cfg.h_list[-1]))"),),
           (CLI_TESTS + "test_sweep_checks_the_fourier_cut_of_every_row",)),
    # older configs' [checks] line must name every diagnostic once
    Mutant("narrowed-diagnostics-accepted", "harness.py",
           (('if sorted(text.split()) != ["localization", "tunneling", "wkb"]:',
             'if not set(text.split()) <= {"localization", "tunneling", "wkb"}:'),),
           (CLI_TESTS + "test_diagnostics_other_than_all_three_exits_2[narrowed]",
            CLI_TESTS + "test_diagnostics_other_than_all_three_exits_2[narrowed_two]",
            CLI_TESTS + "test_diagnostics_other_than_all_three_exits_2[repeat]")),
    # the one spelling of the splitting formula, held by criterion 11 to a
    # quadrature that shares no code with derived_constants
    Mutant("splitting-prefactor-scaled", "model.py",
           (("A = 4.0 * (a2/2.0)**0.25 * np.sqrt(V_mid) * np.sqrt(kappa/np.pi) * np.exp(-I_A)",
             "A = (1.0 + 1e-7) * 4.0 * (a2/2.0)**0.25 * np.sqrt(V_mid) * np.sqrt(kappa/np.pi) "
             "* np.exp(-I_A)"),),
           (ACCEPTANCE_TESTS + "test_criterion_11_closed_form_identity",
            MODEL_TESTS + "test_derived_constants_closed_forms")),
    Mutant("sweep-formula-without-h", "harness.py",
           (("formula = h * classical_splitting_formula(m, math.sqrt(h))",
             "formula = classical_splitting_formula(m, math.sqrt(h))"),),
           (HARNESS_TESTS + "test_formula_prediction_is_the_effective_formula",
            HARNESS_TESTS + "test_default_sweep_passes_benchmark_row_check")),
    # the closed-form Gram gap
    Mutant("gram-gap-no-two", "tunneling.py",
           (("return math.hypot(E22.real - E11.real, 2.0 * abs(E12))",
             "return math.hypot(E22.real - E11.real, abs(E12))"),),
           (TUNNELING_TESTS + "test_gram_gap_is_a_property_of_the_span[ModelA]",
            TUNNELING_TESTS + "test_gram_gap_is_a_property_of_the_span[ModelB]")),
    Mutant("gram-det-guard-non-strict", "tunneling.py",
           (("if not abs(det) > 0.0:", "if not abs(det) >= 0.0:"),),
           (TUNNELING_TESTS + "test_gram_degenerate_inputs",)),
    Mutant("gram-e11-from-e2", "tunneling.py",
           (("E11, E22, E12 = g.inner(Me[0], e[0]), g.inner(Me[1], e[1]), g.inner(Me[0], e[1])",
             "E11, E22, E12 = g.inner(Me[1], e[1]), g.inner(Me[1], e[1]), g.inner(Me[0], e[1])"),),
           (TUNNELING_TESTS + "test_gram_gap_matches_the_pencil[ModelA]",
            TUNNELING_TESTS + "test_gram_gap_matches_the_pencil[ModelB]",
            TUNNELING_TESTS + "test_interaction_report_frozen")),
)


def _matches(lines: list[str], line: str) -> list[int]:
    """Indices of the entries of lines that equal line, indentation aside."""
    return [i for i, text in enumerate(lines) if text.strip() == line]


def stale() -> list[str]:
    """Names of the mutants with a line not found exactly once in src/."""
    def lines(m):
        return (ROOT / "src" / "pdwell" / m.file).read_text().splitlines()
    return [m.name for m in MUTANTS
            if any(len(_matches(lines(m), line)) != 1 for line, _ in m.edits)]


def _apply(m: Mutant, src: pathlib.Path) -> None:
    path = src / "pdwell" / m.file
    lines = path.read_text().splitlines(keepends=True)
    for line, replacement in m.edits:
        (i,) = _matches(lines, line)
        indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
        lines[i] = indent + replacement + "\n"
    path.write_text("".join(lines))


def _copy_src(dest: pathlib.Path) -> pathlib.Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _failed(src: pathlib.Path, tests) -> tuple[int, set]:
    """pytest's exit code and the node ids that failed or errored, with the
    package imported from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set()
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind not in ("FAILED", "ERROR"):
            continue
        node = rest.split(" - ")[0]
        # an error in collection names the file; every test in it failed
        failed |= {t for t in tests if t == node or t.startswith(node + "::")}
    return done.returncode, failed


def main() -> int:
    bad = set(stale())
    problems = [f"stale: a line of {name} is not found exactly once" for name in sorted(bad)]
    with tempfile.TemporaryDirectory(prefix="pdwell-mutants-") as tmp:
        tmp = pathlib.Path(tmp)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = _failed(_copy_src(tmp / "clean"), tests)
        if code != 0:
            # a test that fails anyway would count as a catch
            problems.append(f"unmutated copy: pytest exit {code}, "
                            f"failing {sorted(failed) or 'at collection'}")
            bad = {m.name for m in MUTANTS}
        for m in MUTANTS:
            if m.name in bad:
                continue
            src = _copy_src(tmp / m.name)
            _apply(m, src)
            _, failed = _failed(src, m.tests)
            survived = [t for t in m.tests if t not in failed]
            print(f"{'MISSED' if survived else 'caught'}  {m.name}")
            if survived:
                problems.append(f"survivor: {m.name} passes {', '.join(survived)}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
