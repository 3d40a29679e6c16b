"""The public surface resolves: every exported name exists, and every
function the benchmark's span tracer wraps still exists where it looks.
The package resolves its names lazily, each to the object in its home
module, and a cold CLI keeps its exit codes."""

import ast
import importlib
import pkgutil
import sys
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


# ---------------------------------------------------------------------------
# the package resolves its names lazily, one submodule at a time


def test_every_package_name_is_the_object_in_its_home_module():
    for name in momgas.__all__:
        value = getattr(momgas, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_lists_every_exported_name():
    assert set(momgas.__all__) <= set(dir(momgas))


def test_an_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'momgas' has no attribute 'no_such_name'"):
        momgas.no_such_name


def test_first_use_loads_only_the_home_module(fresh_python):
    code = ("import sys, momgas\n"
            "print('yang_baxter' in vars(momgas), momgas.yb_defect is momgas.yang_baxter.yb_defect,\n"
            "      'yb_defect' in vars(momgas), 'momgas.bethe' in sys.modules)")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "False"]


def test_one_convergence_error_class():
    from momgas import bethe, regularize
    assert momgas.ConvergenceError is bethe.ConvergenceError is regularize.ConvergenceError
    with pytest.raises(momgas.ConvergenceError) as stall:
        bethe.solve_bethe(4, 10.0, 5.0, max_iter=1)
    with pytest.raises(momgas.ConvergenceError) as quadrature:
        regularize.regularized_integral(-1e6, 1e-14, 8000.0)
    assert type(stall.value) is type(quadrature.value) is momgas.ConvergenceError


@pytest.mark.parametrize("argv", [["bethe-solve", "--n", "256", "--box", "256", "--lambda", "1"],
                                  ["reg-bound-state", "--lambda=-1e6"]])
def test_a_cold_cli_still_exits_2_on_non_convergence(fresh_python, argv):
    proc = fresh_python("import sys; from momgas.cli import main; sys.exit(main())", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
