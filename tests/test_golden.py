"""Byte-identity gate for the exact Yang-Baxter checks.

The records under tests/golden/ were written by the N! x N! sparse-matrix
implementation of the Yang operators.  The group-algebra implementation must
reproduce every one of them byte for byte: the CLI records of the reference
invocations, and a table of defect summaries (largest entry and its
position, witness, both projections) over seeded triples at N = 3..5.  The
position of the largest entry breaks ties between equal-modulus entries by
the order in which products first produce them, so the table also pins that
order.

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
}


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
    out = _cli_record(CLI_CASES[name], tmp_path / "out.json")
    assert out == (GOLDEN / f"{name}.json").read_bytes()


def test_triple_table_is_byte_identical():
    assert _triple_table() == (GOLDEN / "yb_triples.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        _cli_record(argv, GOLDEN / f"{name}.json")
    (GOLDEN / "yb_triples.json").write_text(_triple_table())
