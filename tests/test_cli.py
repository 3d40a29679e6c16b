"""CLI surface: exit taxonomy, deterministic records, CSV projections,
output plumbing."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import momgas
from momgas import __version__
from momgas.cli import COMMANDS, main


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, argv):
    # strict JSON: NaN and Infinity are Python extensions, not JSON
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# happy paths: every subcommand emits a well-formed record and exits 0

SMOKE = {
    "two-body": ["--parity", "odd", "--k", "2.0", "--lambda", "0.5", "--x", "0.5,1.5"],
    "bound-state": ["--lambda", "-0.5"],
    "bethe-solve": ["--n", "3", "--box", "10", "--lambda", "1"],
    "ll-solve": ["--n", "3", "--box", "10", "--c", "2"],
    "duality": ["--n", "3", "--box", "10", "--lambda", "1"],
    "gaudin-check": ["--n", "2", "--draws", "2", "--seed", "5"],
    "gs-scan": ["--rho", "1", "--lambda", "1", "--sizes", "2,4"],
    "yb-check": ["--n", "3", "--u", "1", "--v", "2", "--lambda", "1"],
    "delta-control": ["--n", "3", "--u", "1", "--v", "2", "--c", "1"],
    "vertex-scan": [],
    "dispersion-scan": [],
    "coupling-maps": ["--g", "2.0", "--beta", "1.0"],
    "coleman": ["--g", "2.5"],
    "reg-integral": ["--lambda", "-1", "--e-abs", "0.25"],
    "reg-bound-state": ["--lambda", "-1"],
}


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_subcommand_record_shape(capsys, command):
    code, record = run_json(capsys, [command] + SMOKE[command])
    assert code == 0
    assert record["schema"] == f"momgas.{command}/1"
    assert record["version"] == __version__
    assert record["command"] == command
    assert "output" not in record["params"]
    assert isinstance(record["results"], dict)


def test_module_entry_point_prints_the_record(capsys):
    assert main(["coleman", "--g", "1"]) == 0
    expected = capsys.readouterr().out
    src = str(Path(momgas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "momgas.cli", "coleman", "--g", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


# ---------------------------------------------------------------------------
# result content spot checks


def test_duality_example(capsys):
    code, record = run_json(capsys, ["duality", "--n", "3", "--box", "10",
                                     "--lambda", "1"])
    assert code == 0
    assert record["results"]["max_abs_difference"] < 1e-10
    assert record["results"]["eta_follows_parity_rule"] is True


def test_duality_wrong_phase(capsys):
    code, record = run_json(capsys, ["duality", "--n", "3", "--box", "10",
                                     "--lambda", "1", "--eta", "0"])
    assert code == 0
    assert record["results"]["max_abs_difference"] > 1e-2


def test_yb_check_verdicts(capsys):
    code, record = run_json(capsys, ["yb-check", "--n", "3", "--u", "1",
                                     "--v", "2", "--lambda", "1"])
    assert code == 0
    results = record["results"]
    assert results["unitarity"] is True
    assert results["yb_defect_nonzero"] is True
    assert results["generic_triple"] is True
    assert results["projections_zero"] is True
    assert results["max_entry"] == "7/10"
    assert results["witness"] == {"row": 0, "col": 1, "entry": "-7/10"}


def test_yb_check_degenerate_triple_still_reports(capsys):
    code, record = run_json(capsys, ["yb-check", "--n", "3", "--u", "1",
                                     "--v", "-1", "--lambda", "1"])
    assert code == 0
    assert record["results"]["generic_triple"] is False
    assert record["results"]["yb_defect_nonzero"] is True


def test_delta_control_verdicts(capsys):
    code, record = run_json(capsys, ["delta-control", "--n", "3", "--u", "1",
                                     "--v", "2", "--c", "1"])
    assert code == 0
    results = record["results"]
    assert results["variant"] == {"s_u": 1, "s_c": 1}
    assert results["unitarity"] is True
    assert results["defect_zero"] is True


def test_bound_state_absent_for_repulsive(capsys):
    code, record = run_json(capsys, ["bound-state", "--lambda", "2.0"])
    assert code == 0
    assert record["results"] == {"exists": False}


def test_bound_state_energy(capsys):
    code, record = run_json(capsys, ["bound-state", "--lambda", "-0.5"])
    assert code == 0
    assert record["results"]["energy"] == pytest.approx(-1.0)
    assert record["results"]["kappa"] == pytest.approx(1.0)


def test_coleman_record(capsys):
    code, record = run_json(capsys, ["coleman", "--g", "2.5"])
    assert code == 0
    assert record["results"]["product"] == pytest.approx(math.pi ** 2 / 4.0, rel=1e-14)
    assert record["results"]["abs_error"] <= 1e-12


def test_quantum_numbers_flag_with_leading_minus(capsys):
    code, record = run_json(capsys, ["bethe-solve", "--n", "2", "--box", "10",
                                     "--lambda", "1",
                                     "--quantum-numbers=-0.5,0.5"])
    assert code == 0
    assert record["params"]["quantum_numbers"] == [-0.5, 0.5]
    assert record["results"]["max_residual"] <= 1e-12


def test_negative_exponent_needs_the_equals_form(capsys):
    # argparse takes "-1e-8" for a flag (its negative-number pattern has no
    # exponent), so the README documents --lambda=-1e-8
    code, record = run_json(capsys, ["bound-state", "--lambda=-1e-8"])
    assert code == 0
    assert record["params"]["lam"] == -1e-8
    assert record["results"]["energy"] == pytest.approx(-2.5e15, rel=1e-15)


def test_rational_flags_survive_roundtrip(capsys):
    code, record = run_json(capsys, ["yb-check", "--n", "3", "--u", "1/3",
                                     "--v", "2/5", "--lambda", "7/2"])
    assert code == 0
    assert record["params"]["u"] == "1/3"
    assert record["params"]["lam"] == "7/2"


# ---------------------------------------------------------------------------
# exit taxonomy


def test_exit_1_on_attractive_solve(capsys):
    code = main(["bethe-solve", "--n", "2", "--box", "10", "--lambda", "-1"])
    assert code == 1
    assert "attractive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parsing: a known subcommand builds its own subparser only, and every help,
# usage and error text is that of the full parser

PARSER_TEXTS = json.loads((Path(__file__).parent / "golden" / "parser_texts.json").read_text())


def _parser_text(capsys, argv):
    # (stdout, stderr, exit code) of main(argv); --help exits through SystemExit
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


@pytest.mark.parametrize("case", sorted(PARSER_TEXTS["cases"]))
def test_parser_texts_match_the_pinned_bytes(capsys, monkeypatch, case):
    # pinned under PARSER_TEXTS["python"] with COLUMNS=80, before main built
    # one subparser.  argparse words its texts differently in other Python
    # versions; there the texts are held to those of the full parser
    import momgas.cli

    pin = PARSER_TEXTS["cases"][case]
    monkeypatch.setenv("COLUMNS", str(PARSER_TEXTS["columns"]))
    got = _parser_text(capsys, pin["argv"])
    if "%d.%d" % sys.version_info[:2] == PARSER_TEXTS["python"]:
        assert got == (pin["stdout"], pin["stderr"], pin["code"])
    full = momgas.cli._build_parser
    monkeypatch.setattr(momgas.cli, "_build_parser", lambda names: full())
    assert got == _parser_text(capsys, pin["argv"])


@pytest.mark.parametrize("argv, built", [
    (["coleman", "--g", "1"], ["coleman"]),
    (["bethe-solve", "--help"], ["bethe-solve"]),
    (["--help"], list(COMMANDS)),
    (["no-such-command"], list(COMMANDS)),
    ([], list(COMMANDS)),
    (["--format", "csv", "coleman"], list(COMMANDS)),
])
def test_a_known_subcommand_builds_only_its_own_subparser(capsys, monkeypatch, argv, built):
    import argparse

    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def record(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", record)
    _parser_text(capsys, argv)
    assert names == built


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch):
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["momgas", "coleman", "--g", "1"])
    assert main() == 0
    expected = capsys.readouterr().out
    assert main(["coleman", "--g", "1"]) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr(sys, "argv", ["momgas", "no-such-command"])
    assert main() == 1
    assert "no-such-command" in capsys.readouterr().err


def test_exit_1_on_unknown_command(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_exit_1_on_malformed_number(capsys):
    assert main(["two-body", "--parity", "odd", "--k", "abc", "--lambda", "1"]) == 1
    assert main(["yb-check", "--n", "3", "--u", "x", "--v", "1", "--lambda", "1"]) == 1


@pytest.mark.parametrize("argv,flag,text", [
    (["two-body", "--parity", "odd", "--k", "1", "--lambda", "1", "--x", "nan"], "--x", "nan"),
    (["bethe-solve", "--n", "3", "--box", "nan", "--lambda", "1"], "--box", "nan"),
    (["coleman", "--g", "inf"], "--g", "inf"),
    (["reg-integral", "--lambda", "-1", "--e-abs", "0.25", "--epsilons", "0.2,-inf"],
     "--epsilons", "-inf"),
])
def test_exit_1_names_a_non_finite_float_flag(capsys, argv, flag, text):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: not a finite number: {text!r}" in captured.err


@pytest.mark.parametrize("argv,reason", [
    (["dispersion-scan", "--k", "0"], "nonzero y values"),
    (["vertex-scan", "--mc-values", "10,10"], "two distinct x values"),
    # numpy's polyfit fitted a slope of 0.0 through these two mc values
    (["vertex-scan", "--mc-values", "1e20,1.0000000000000002e20"],
     "float64 logarithms differ, got [1e+20, 1.0000000000000002e+20]"),
])
def test_exit_1_on_a_degenerate_slope_fit(capsys, argv, reason):
    assert main(argv) == 1
    assert reason in capsys.readouterr().err


def test_exit_1_on_out_of_guard_n(capsys):
    assert main(["gaudin-check", "--n", "9", "--draws", "1"]) == 1


@pytest.mark.parametrize("argv", [
    ["bethe-solve", "--box", "10", "--lambda", "1"],
    ["ll-solve", "--box", "10", "--c", "1"],
    ["duality", "--box", "10", "--lambda", "1"],
])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_exit_1_names_a_particle_number_below_one(capsys, argv, n):
    assert main(argv + ["--n", n]) == 1
    assert f"N = {n}" in capsys.readouterr().err


def test_exit_1_names_a_zero_size_in_gs_scan(capsys):
    assert main(["gs-scan", "--rho", "1", "--lambda", "1", "--sizes", "0,4"]) == 1
    assert "N = 0" in capsys.readouterr().err


def test_exit_1_names_an_empty_size_list_in_gs_scan(capsys):
    assert main(["gs-scan", "--rho", "1", "--lambda", "1", "--sizes="]) == 1
    assert "sizes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bethe-solve", "--n", "2", "--box", "10", "--lambda", "1"],
    ["ll-solve", "--n", "2", "--box", "10", "--c", "1"],
])
@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_exit_1_names_a_step_budget_below_one(capsys, argv, max_iter):
    assert main(argv + [f"--max-iter={max_iter}"]) == 1
    assert f"max_iter = {max_iter}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bethe-solve", "--n", "4", "--box", "10", "--lambda", "1"],
    ["ll-solve", "--n", "4", "--box", "10", "--c", "1"],
])
@pytest.mark.parametrize("tol", ["0", "-1"])
def test_exit_1_names_a_tolerance_that_is_not_positive(capsys, argv, tol):
    # a malformed flag, not a Newton stall (exit 2)
    assert main(argv + [f"--tol={tol}"]) == 1
    assert f"tol must be positive and finite, got tol = {float(tol)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("ks,count", [("1,2", 2), ("1,2,3,4,5", 5)])
def test_exit_1_names_the_four_vertex_momenta(capsys, ks, count):
    assert main(["vertex-scan", "--k", ks]) == 1
    err = capsys.readouterr().err
    assert "four momenta k1, k2, k3, k4" in err
    assert f"got {count}" in err


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_exit_1_names_a_draw_count_below_one(capsys, draws):
    assert main(["gaudin-check", "--n", "3", "--draws", draws]) == 1
    assert f"draws = {draws}" in capsys.readouterr().err


def test_exact_checks_have_no_particle_number_guard(capsys):
    triple = ["--u", "1", "--v", "2"]
    for n in ("7", "8"):
        code, record = run_json(capsys, ["yb-check", "--n", n, "--i", "5", "--lambda", "1"]
                                + triple)
        assert code == 0
        assert record["results"]["max_entry"] == "7/10"
        code, record = run_json(capsys, ["delta-control", "--n", n, "--i", "5", "--c", "1"]
                                + triple)
        assert code == 0
        assert record["results"]["defect_zero"] is True


def test_exit_1_on_float_passed_to_exact_check(capsys):
    # exact subcommands parse rationals; a decimal string is fine, a float is
    # never constructed
    code = main(["yb-check", "--n", "3", "--u", "0.5", "--v", "2", "--lambda", "1"])
    assert code == 0  # Fraction("0.5") is exact


@pytest.mark.parametrize("u, field", [
    # 5001 digits in the flag itself; 1500 digits in u grow past 4300 in the defect
    ("1e5000", "params.u"),
    ("1e1500", "results.max_entry"),
])
def test_exit_1_names_a_rational_too_long_to_write(capsys, u, field):
    assert main(["yb-check", "--n", "3", "--u", u, "--v", "2", "--lambda", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {field} has an integer of more than "
                            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} "
                            "digits, too long to write in decimal\n")
    assert captured.out == ""


def test_exit_2_on_non_convergence(capsys):
    code = main(["bethe-solve", "--n", "4", "--box", "10", "--lambda", "5",
                 "--max-iter", "1"])
    assert code == 2
    assert "residual" in capsys.readouterr().err


def test_exit_2_names_the_tolerance_when_newton_stalls(capsys):
    # at the default tol 1e-13 the N = 256 log-form residual bottoms out
    # near 1e-13, its float64 rounding floor
    assert main(["bethe-solve", "--n", "256", "--box", "256", "--lambda", "1"]) == 2
    err = capsys.readouterr().err
    assert "stalled at step" in err
    assert "above tol 1e-13" in err


def test_exit_2_names_a_singular_newton_matrix(capsys):
    # a hard-core excited block whose Newton matrix LU finds singular
    assert main(["bethe-solve", "--n", "7", "--box", "0.9251554403241824", "--lambda", "6.1e250",
                 "--eta", "pi", "--quantum-numbers=-3,-2,-1,0,1,2,5", "--tol", "2.75e-12"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Newton matrix is singular in float64 at step ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_exit_2_when_the_extrapolated_integral_is_not_positive(capsys, monkeypatch):
    # no real coupling is known to reach this guard; force it to pin the message
    monkeypatch.setattr(momgas.regularize, "extrapolate_integral", lambda *args: -5.0)
    assert main(["reg-bound-state", "--lambda=-1"]) == 2
    err = capsys.readouterr().err
    assert "r = -5 is not positive at lam = -1" in err


def _assert_rows_match_closed_form(record):
    for row in record["results"]["rows"]:
        assert row["value"] == pytest.approx(row["closed_form"], rel=1e-12, abs=0)


def test_exit_2_names_the_quadrature_when_the_regularized_integral_breaks_its_bound(capsys):
    # scipy's quad broke its modulus bound at |E| = 1e-14 (about 1.8e308 at
    # the first node); the double-exponential sum depends on eps sqrt|E| alone
    code, record = run_json(capsys, ["reg-integral", "--lambda=-1e6", "--e-abs=1e-14",
                                     "--epsilons=8000,4000,2000"])
    assert code == 0
    _assert_rows_match_closed_form(record)
    # a scan of omega = eps sqrt|E| finds the sum failing below omega ~ 8e-11;
    # at omega = 4e-100 it returns J = 1.854, above pi/2
    assert main(["reg-integral", "--lambda", "-1", "--e-abs", "0.25",
                 "--epsilons", "8e-100,4e-100,2e-100"]) == 2
    err = capsys.readouterr().err
    assert "returned J = 1.85377" in err
    assert "above the modulus bound pi/2" in err
    assert "at epsilon = 8e-100, |E| = 0.25 (omega = eps sqrt|E| = 4e-100)" in err


def test_exit_2_names_the_lower_bound_when_a_small_node_is_silently_wrong(capsys):
    # quad returned a small negative value with a tiny error estimate at
    # eps sqrt|E| <= 2e-6; the double-exponential sum is right there
    code, record = run_json(capsys, ["reg-integral", "--lambda", "-1", "--e-abs", "0.25",
                                     "--epsilons", "4e-6,2e-6,1e-6"])
    assert code == 0
    _assert_rows_match_closed_form(record)
    # in the same scan, at omega = 2e-100 the sum returns J = 1.235, below
    # pi/2 - 2 omega
    assert main(["reg-integral", "--lambda", "-1", "--e-abs", "0.25",
                 "--epsilons", "4e-100,2e-100,1e-100"]) == 2
    err = capsys.readouterr().err
    assert "below the lower bound pi/2 - 2 omega = 1.5707963267948966" in err
    assert "at epsilon = 4e-100, |E| = 0.25 (omega = eps sqrt|E| = 2e-100)" in err


def test_exit_2_names_eps_and_energy_when_omega_is_subnormal(capsys):
    # omega = eps sqrt|E| at or below 1e-323: the sum returns about 1e-174,
    # or exactly 0 once omega underflows, and the lower bound names the node
    assert main(["reg-integral", "--lambda", "-1", "--e-abs", "0.25",
                 "--epsilons", "2e-323,1e-323,5e-324"]) == 2
    err = capsys.readouterr().err
    assert "below the lower bound" in err
    assert "at epsilon = 1.97626e-323, |E| = 0.25" in err


@pytest.mark.parametrize("argv, cause", [
    (["reg-bound-state", "--lambda=-1e-300"], "float division by zero"),
    (["coupling-maps", "--g", "1", "--beta", "1", "--c", "1e-300"], "float division by zero"),
    (["vertex-scan", "--mc-values", "1e200,2e200"], "Numerical result out of range"),
    (["coleman", "--g", "1e-320"], "(results.product = inf)"),
    (["two-body", "--parity", "odd", "--k", "1e300", "--lambda", "1"],
     "(results.energy = inf)"),
])
def test_exit_1_names_a_flag_that_leaves_the_float64_range(fresh_python, argv, cause):
    # r^2 or c^2 underflows to zero, the vertex overflows, or a result is
    # not finite (not JSON): no traceback, and no record
    proc = fresh_python("import sys\nfrom momgas.cli import main\nsys.exit(main(sys.argv[1:]))",
                        *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {argv[0]}: float64 range exceeded (")
    assert cause in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("results, field", [
    ({"rows": [{"energy": 1.0}, {"energy": 2.0}, {"energy": -math.inf}]},
     "results.rows[2].energy = -inf"),
    ({"boundary_residual": {"value_jump_defect": complex(0.0, math.nan)}},
     "results.boundary_residual.value_jump_defect.im = nan"),
    ({"pair": (1.0, math.inf)}, "results.pair[1] = inf"),
])
def test_exit_1_names_the_path_of_a_non_finite_result(capsys, monkeypatch, results, field):
    # no argv reaches these; a stand-in handler pins the field paths
    command = COMMANDS["coleman"]._replace(handler=lambda args: (results, None, 0))
    monkeypatch.setitem(COMMANDS, "coleman", command)
    for fmt in ("json", "csv"):
        assert main(["coleman", "--g", "1", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: coleman: float64 range exceeded ({field})\n"
        assert captured.out == ""


def test_exit_1_on_a_non_finite_csv_cell(capsys, monkeypatch):
    # a handler's own CSV rows are rendered inside the error boundary too
    rows = [{"g": 1.0, "product": math.inf}]
    command = COMMANDS["coleman"]._replace(handler=lambda args: ({"product": 1.0}, rows, 0))
    monkeypatch.setitem(COMMANDS, "coleman", command)
    assert main(["coleman", "--g", "1", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: coleman: float64 range exceeded (cell = inf)\n"
    assert captured.out == ""


def test_a_hard_core_coupling_writes_nothing_to_stderr(fresh_python):
    # (lam u)^2 overflows in theta' from lam = 1e200 and 2 lam from 9e307; a
    # fresh interpreter prints any RuntimeWarning
    code = "import sys\nfrom momgas.cli import main\nsys.exit(main(sys.argv[1:]))"
    for command, lam, field in (("bethe-solve", "1e200", "max_residual"),
                                ("bethe-solve", "1e308", "max_residual"),
                                ("duality", "1e308", "max_abs_difference")):
        proc = fresh_python(code, command, "--n", "3", "--box", "10", "--lambda", lam)
        assert proc.returncode == 0, (command, lam)
        assert proc.stderr == "", (command, lam)
        assert json.loads(proc.stdout)["results"][field] <= 1e-12, (command, lam)


def test_a_tiny_box_solves_both_models_without_a_float_warning(capsys):
    # at L = 3.5e-154 the roots sit near 6e137, so u^2 overflows in the boson
    # theta' as (lam u)^2 does in the fermion one: both take the limit value
    def results(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--n", "2", "--box", "3.5e-154"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return json.loads(captured.out)["results"]

    fermion = results("bethe-solve", "--lambda", "1")["momenta"]
    boson = results("ll-solve", "--c", "1")["momenta"]
    dual = results("duality", "--lambda", "1")
    # float repr round-trips, so equal parsed floats are equal bits
    assert boson == dual["boson_roots"] == dual["fermion_roots"] == fermion
    assert abs(fermion[0]) > 6e137


@pytest.mark.parametrize("argv, text", [
    (["bethe-solve", "--n", "3", "--box", "1e-320", "--lambda", "1"], "L = 1e-320"),
    (["bethe-solve", "--n", "3", "--box", "1e-300", "--lambda", "1"], "L = 1e-300"),
    (["gs-scan", "--rho", "1e300", "--lambda", "1", "--sizes", "4,8"], "L = 4e-300"),
])
def test_exit_1_names_a_box_too_small_for_float64(capsys, argv, text):
    # not a Newton stall (exit 2), and never a record with an infinite energy
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: box length {text} is too small for N = ")
    assert captured.out == ""


def test_exit_3_when_an_exact_check_fails(capsys, monkeypatch):
    # unreachable through the real algebra; force it to pin the taxonomy
    # the handler imports check_unitarity from its home module when it runs
    monkeypatch.setattr("momgas.yang_baxter.check_unitarity", lambda *a: False)
    code = main(["yb-check", "--n", "3", "--u", "1", "--v", "2", "--lambda", "1"])
    assert code == 3


# ---------------------------------------------------------------------------
# reg-integral and reg-bound-state: one quadrature per node, node errors unchanged


def test_reg_integral_integrates_each_node_once(capsys, monkeypatch):
    calls = []
    original = momgas.regularize.regularized_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the home module: the handler imports the name from it when it runs,
    # and calls made inside regularize look it up there
    monkeypatch.setattr(momgas.regularize, "regularized_integral", counted)
    code, record = run_json(capsys, ["reg-integral"] + SMOKE["reg-integral"])
    assert code == 0
    assert [args[2] for args in calls] == [0.2, 0.1, 0.05]
    assert [row["epsilon"] for row in record["results"]["rows"]] == [0.2, 0.1, 0.05]


def test_reg_bound_state_integrates_three_nodes_at_unit_energy(capsys, monkeypatch):
    calls = []
    original = momgas.regularize.regularized_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(momgas.regularize, "regularized_integral", counted)
    code, _ = run_json(capsys, ["reg-bound-state", "--lambda", "-0.5"])
    assert code == 0
    assert calls == [(-0.5, 1.0, 8e-4), (-0.5, 1.0, 4e-4), (-0.5, 1.0, 2e-4)]


_DIVERGENT = ("epsilon must be positive: at epsilon = 0 the integral is linearly "
              "divergent, which is the point of the regulator")


@pytest.mark.parametrize("epsilons,message", [
    ("a", "argument --epsilons: not a comma-separated float list: 'a'"),
    ("0.1", "need at least two epsilon nodes"),
    ("", "need at least two epsilon nodes"),
    ("0.1,0.2", "epsilon nodes must be strictly decreasing"),
    ("0.2,0.2", "epsilon nodes must be strictly decreasing"),
    ("0.2,0.1,0.02", "epsilon nodes must form a geometric sequence"),
    ("0.2,-0.1", _DIVERGENT),
    ("0.2,0", _DIVERGENT),
    ("-0.1,-0.2", _DIVERGENT),
])
def test_reg_integral_names_a_bad_node_list(capsys, epsilons, message):
    assert main(["reg-integral", "--lambda", "-1", "--e-abs", "0.25",
                 f"--epsilons={epsilons}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# output plumbing


def test_json_output_is_byte_deterministic(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    argv = ["gaudin-check", "--n", "2", "--draws", "2", "--seed", "5"]
    assert main(argv + ["--output", str(p1)]) == 0
    assert main(argv + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["coleman", "--g", "1.0", "--output", str(out)]) == 0
    assert out.exists()
    leftovers = [name for name in os.listdir(tmp_path) if name != "rec.json"]
    assert leftovers == []


def test_the_environment_does_not_redirect_the_record(tmp_path, monkeypatch, capsys):
    # --output is the only way to choose the output path
    target = tmp_path / "env.json"
    monkeypatch.setenv("MOMGAS_OUTPUT", str(target))
    assert main(["coleman", "--g", "1.0"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "coleman"
    assert not target.exists()


@pytest.mark.parametrize("target, reason", [
    ("existing-dir", "Is a directory"),   # os.replace fails after the temp file is written
    ("missing-dir/rec.json", "No such file or directory"),   # the temp file cannot be made
])
def test_exit_1_names_an_output_path_that_cannot_be_written(tmp_path, capsys, target, reason):
    (tmp_path / "existing-dir").mkdir()
    path = str(tmp_path / target)
    assert main(["coleman", "--g", "2.5", "--output", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: coleman: cannot write {path}: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["existing-dir"]
    assert os.listdir(tmp_path / "existing-dir") == []


# ---------------------------------------------------------------------------
# CSV projections


def csv_lines(capsys, argv):
    assert main(argv + ["--format", "csv"]) == 0
    return capsys.readouterr().out.splitlines()


def test_csv_headers_are_fixed(capsys):
    cases = {
        "two-body": ("parity,k,lam,energy,derivative_jump_abs,value_jump_defect_abs",
                     SMOKE["two-body"]),
        "bethe-solve": ("j,quantum_number,root,residual", SMOKE["bethe-solve"]),
        "duality": ("j,quantum_number,fermion_root,boson_root,abs_difference",
                    SMOKE["duality"]),
        "gs-scan": ("n,box_length,energy,energy_density", SMOKE["gs-scan"]),
        "vertex-scan": ("mc,v_exact,v_leading,rel_error", SMOKE["vertex-scan"]),
        "reg-integral": ("epsilon,value,closed_form", SMOKE["reg-integral"]),
        "yb-check": ("n,i,u,v,lam,unitarity,yb_defect_nonzero,max_entry",
                     SMOKE["yb-check"]),
    }
    for command, (header, argv) in cases.items():
        lines = csv_lines(capsys, [command] + argv)
        assert lines[0] == header, command
        assert len(lines) >= 2, command


def test_csv_row_content(capsys):
    lines = csv_lines(capsys, ["bethe-solve"] + SMOKE["bethe-solve"])
    assert len(lines) == 4  # header + one row per root
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == -1.0  # ground-block quantum number
    assert abs(float(first[3])) <= 1e-12


def test_csv_vertex_scan_matches_json(capsys):
    lines = csv_lines(capsys, ["vertex-scan"])
    code, record = run_json(capsys, ["vertex-scan"])
    assert code == 0
    for line, row in zip(lines[1:], record["results"]["rows"]):
        mc, v_exact, v_leading, rel_error = (float(v) for v in line.split(","))
        assert mc == row["mc"]
        assert rel_error == pytest.approx(row["rel_error"], rel=1e-15)


def test_readme_command_table_matches_commands():
    # the README's "Subcommands and CSV columns" table documents COMMANDS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Subcommands and CSV columns", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip().strip("`") for cell in line.strip("|").split(" | ")]
            table[cells[0]] = cells[-1]
    assert table == {name: command.columns for name, command in COMMANDS.items()}
