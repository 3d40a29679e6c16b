"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_python():
    """Run `python -c code *argv` in a new interpreter that imports this
    checkout's package and nothing loaded by the test session; returns the
    CompletedProcess, output as text."""
    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    return run
