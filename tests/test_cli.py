"""CLI surface: exit taxonomy, deterministic records, CSV projections,
output plumbing."""

import json
import math
import os
import subprocess
import sys
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
    env.pop("MOMGAS_OUTPUT", None)
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


def test_exit_2_on_non_convergence(capsys):
    code = main(["bethe-solve", "--n", "4", "--box", "10", "--lambda", "5",
                 "--max-iter", "1"])
    assert code == 2
    assert "residual" in capsys.readouterr().err


def test_exit_2_when_the_regularized_bracket_misses_the_root(capsys):
    assert main(["reg-bound-state", "--lambda=-1e6"]) == 2
    err = capsys.readouterr().err
    assert "does not straddle the root at lam = -1e+06" in err
    assert "|E| in [1e-14, 1e-10]" in err


def test_exit_3_when_an_exact_check_fails(capsys, monkeypatch):
    # unreachable through the real algebra; force it to pin the taxonomy
    monkeypatch.setattr("momgas.cli.check_unitarity", lambda *a: False)
    code = main(["yb-check", "--n", "3", "--u", "1", "--v", "2", "--lambda", "1"])
    assert code == 3


# ---------------------------------------------------------------------------
# reg-integral: one quadrature per node, node errors unchanged


def test_reg_integral_integrates_each_node_once(capsys, monkeypatch):
    calls = []
    original = momgas.regularize.regularized_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # both namespaces: the CLI's own calls and any made inside regularize
    for module in (momgas.cli, momgas.regularize):
        monkeypatch.setattr(module, "regularized_integral", counted)
    code, record = run_json(capsys, ["reg-integral"] + SMOKE["reg-integral"])
    assert code == 0
    assert [args[2] for args in calls] == [0.2, 0.1, 0.05]
    assert [row["epsilon"] for row in record["results"]["rows"]] == [0.2, 0.1, 0.05]


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


def test_env_var_output_override(tmp_path, monkeypatch, capsys):
    target = tmp_path / "env.json"
    monkeypatch.setenv("MOMGAS_OUTPUT", str(target))
    assert main(["coleman", "--g", "1.0"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["command"] == "coleman"


def test_explicit_output_beats_env_var(tmp_path, monkeypatch):
    env_target = tmp_path / "env.json"
    flag_target = tmp_path / "flag.json"
    monkeypatch.setenv("MOMGAS_OUTPUT", str(env_target))
    assert main(["coleman", "--g", "1.0", "--output", str(flag_target)]) == 0
    assert flag_target.exists()
    assert not env_target.exists()


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
