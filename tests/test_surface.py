"""The public surface resolves: every exported name exists, and every
function the benchmark's span tracer wraps still exists where it looks."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import momgas

MODULES = ["momgas"] + [f"momgas.{m.name}" for m in pkgutil.iter_modules(momgas.__path__)]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets():
    # TARGETS is a literal list of (module, function) pairs; read it without
    # importing the benchmark package
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{module} declares no __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_every_traced_span_target_resolves():
    targets = _span_targets()
    assert targets
    missing = [(module, name) for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"perfbench/spans.py TARGETS that no longer resolve: {missing}"
