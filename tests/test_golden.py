"""Byte-identity gate for the CLI records and the exact Yang-Baxter checks.

The records under tests/golden/ pin the output of the reference
invocations: the README examples of every solver family (ring roots, the
duality, the ground-state scan as CSV, two-body, the Gaudin check, the
regularized bound state), the exact checks, every other subcommand, and the
CSV projection of every single-row subcommand.  The yb-check and
delta-control records were written by the N! x N! sparse-matrix
implementation of the Yang operators, which the group-algebra
implementation reproduces byte for byte, together with a table of defect
summaries (largest entry and its position, witness, both projections) over
seeded triples at N = 3..5.  The position of the largest entry breaks ties
between equal-modulus entries by the order in which products first produce
them, so the table also pins that order.

To rewrite the records after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from momgas.cli import main
from momgas.yang_baxter import sign_projection, trivial_projection, yb_defect

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    "yb_check_n3": ["yb-check", "--n", "3", "--u", "1", "--v", "2", "--lambda", "1"],
    "yb_check_n5_i2": ["yb-check", "--n", "5", "--i", "2", "--u", "1/3", "--v=-5/4",
                       "--lambda", "7/2"],
    "yb_check_degenerate": ["yb-check", "--n", "4", "--i", "2", "--u", "3/2", "--v=-3/2",
                            "--lambda=-2/5"],
    "delta_control_n3": ["delta-control", "--n", "3", "--u", "1", "--v", "2", "--c", "1"],
    "bethe_solve_n4": ["bethe-solve", "--n", "4", "--box", "10", "--lambda", "1"],
    "ll_solve_n4": ["ll-solve", "--n", "4", "--box", "10", "--c", "1"],
    "duality_n3": ["duality", "--n", "3", "--box", "10", "--lambda", "1"],
    "gs_scan_csv": ["gs-scan", "--rho", "1", "--lambda", "1", "--sizes", "4,8,16",
                    "--format", "csv"],
    "two_body_odd": ["two-body", "--parity", "odd", "--k", "1.5", "--lambda", "0.5",
                     "--x", "0.5,1.5"],
    "gaudin_check_n3": ["gaudin-check", "--n", "3", "--draws", "5", "--seed", "11"],
    "reg_bound_state": ["reg-bound-state", "--lambda", "-0.5"],
    "bound_state": ["bound-state", "--lambda", "-1"],
    "bound_state_none": ["bound-state", "--lambda", "0.5"],
    "vertex_scan": ["vertex-scan"],
    "dispersion_scan": ["dispersion-scan"],
    "coupling_maps": ["coupling-maps", "--g", "2.0", "--beta", "1.0"],
    "coupling_maps_g_b": ["coupling-maps", "--g", "2.0", "--beta", "1.0", "--g-b", "-3"],
    "coleman": ["coleman", "--g", "2.5"],
    "reg_integral": ["reg-integral", "--lambda", "-1", "--e-abs", "0.25"],
    "reg_integral_csv": ["reg-integral", "--lambda", "-1", "--e-abs", "0.25", "--format", "csv"],
    # non-default mass and speed of light
    "coupling_maps_m2_c3": ["coupling-maps", "--g", "-1.5", "--beta", "0.7", "--m", "2",
                            "--c", "3"],
    "coupling_maps_m2_c3_csv": ["coupling-maps", "--g", "-1.5", "--beta", "0.7", "--m", "2",
                                "--c", "3", "--format", "csv"],
    # the CSV projection of every single-row subcommand
    "two_body_csv": ["two-body", "--parity", "odd", "--k", "1.5", "--lambda", "0.5",
                     "--format", "csv"],
    "bound_state_csv": ["bound-state", "--lambda", "-1", "--format", "csv"],
    "bound_state_none_csv": ["bound-state", "--lambda", "0.5", "--format", "csv"],
    "yb_check_csv": ["yb-check", "--n", "5", "--i", "2", "--u", "1/3", "--v=-5/4",
                     "--lambda", "7/2", "--format", "csv"],
    "delta_control_csv": ["delta-control", "--n", "3", "--u", "1", "--v", "2", "--c", "1",
                          "--format", "csv"],
    "coupling_maps_csv": ["coupling-maps", "--g", "2.0", "--beta", "1.0", "--format", "csv"],
    "coleman_csv": ["coleman", "--g", "2.5", "--format", "csv"],
    "reg_bound_state_csv": ["reg-bound-state", "--lambda", "-0.5", "--format", "csv"],
}


def _golden(name: str) -> Path:
    suffix = "csv" if "csv" in CLI_CASES[name] else "json"
    return GOLDEN / f"{name}.{suffix}"


def _triple_table() -> str:
    rng = random.Random(2004)
    rows = []
    for trial in range(30):
        n = 3 + trial % 3
        i = rng.randint(1, n - 2)
        u, v, lam = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 9))
                     for _ in range(3))
        defect = yb_defect(i, u, v, lam, n)
        row, col, entry = defect.witness()
        rows.append({
            "n": n, "i": i, "u": str(u), "v": str(v), "lam": str(lam),
            "max_entry": str(defect.max_entry),
            "max_position": list(defect.max_position),
            "witness": [row, col, str(entry)],
            "trivial_projection": str(trivial_projection(defect.matrix)),
            "sign_projection": str(sign_projection(defect.matrix)),
        })
    return json.dumps(rows, indent=1) + "\n"


def _cli_record(argv, path: Path) -> bytes:
    assert main(argv + ["--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_record_is_byte_identical(name, tmp_path):
    out = _cli_record(CLI_CASES[name], tmp_path / "out")
    assert out == _golden(name).read_bytes()


def test_triple_table_is_byte_identical():
    assert _triple_table() == (GOLDEN / "yb_triples.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        _cli_record(argv, _golden(name))
    (GOLDEN / "yb_triples.json").write_text(_triple_table())
