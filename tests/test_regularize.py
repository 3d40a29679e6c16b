"""Regularized self-consistency integral: quadrature vs closed form,
extrapolation, and the bound-state energy from the sqrt(|E|) scaling."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from momgas import regularize
from momgas.bethe import ConvergenceError
from momgas.regularize import (
    bound_state_energy_via_regularization, closed_form, constant_piece_cesaro,
    extrapolate_integral, node_ratio, regularized_integral, richardson,
)


# ---------------------------------------------------------------------------
# quadrature route vs closed form


def test_quadrature_matches_closed_form_on_grid():
    for lam in (-2.0, -1.0, -0.5):
        for e_abs in (0.1, 1.0, 10.0):
            for eps in (0.05, 0.1, 0.2):
                a = regularized_integral(lam, e_abs, eps)
                b = closed_form(lam, e_abs, eps)
                assert abs(a - b) <= 1e-8 * abs(b)


def test_quadrature_documented_point():
    a = regularized_integral(-1.0, 0.25, 0.1)
    b = closed_form(-1.0, 0.25, 0.1)
    assert abs(a - b) <= 1e-8 * abs(b)
    assert b == pytest.approx(2.0 * 0.5 * math.exp(-0.1 * 0.5))


def test_closed_form_formula():
    lam, e_abs, eps = -0.7, 2.3, 0.04
    s = math.sqrt(e_abs)
    assert closed_form(lam, e_abs, eps) == pytest.approx(-2.0 * lam * s * math.exp(-eps * s))


def test_value_vanishes_with_energy():
    # sqrt(|E|) prefactor: no bound state at zero energy.  eps sqrt|E| = 1e-3
    # here; at eps = 0.1 (1e-6) quad is wrong and the call raises, see below
    value = regularized_integral(-1.0, 1e-10, 100.0)
    assert value == pytest.approx(closed_form(-1.0, 1e-10, 100.0), rel=1e-9, abs=0)
    assert value < 2e-5
    assert abs(closed_form(-1.0, 1e-12, 0.1)) < 1e-5


def test_quadrature_below_its_lower_bound_is_a_convergence_error():
    # at eps sqrt|E| = 1e-6 quad returns about -(pi/2) eps with an error
    # estimate of 9e-14, where 1 - cos x <= min(2, x^2/2)
    # bounds the integral below by (pi/2 - 2 eps sqrt|E|)/sqrt|E| > 0
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1.0, 1e-10, 0.1)
    message = str(err.value)
    assert float(re.search(r"returned (\S+),", message).group(1)) < 0
    assert "below the lower bound (pi/2 - 2 eps sqrt|E|)/sqrt|E| = 157079" in message
    assert "epsilon = 0.1, |E| = 1e-10" in message


@pytest.mark.parametrize("e_abs", [1e-2, 1.0, 1e2])
def test_neither_bound_fires_on_a_correct_quadrature(e_abs):
    # eps sqrt|E| from 1e-4 to 10: every value passes both bounds and is right
    s = math.sqrt(e_abs)
    for k in range(11):
        epsilon = 10.0 ** (-4 + k / 2) / s
        assert regularized_integral(-0.7, e_abs, epsilon) == pytest.approx(
            closed_form(-0.7, e_abs, epsilon), rel=1e-9, abs=0)


def test_regulator_is_mandatory():
    with pytest.raises(ValueError, match="divergent"):
        regularized_integral(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="divergent"):
        closed_form(-1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        regularized_integral(-1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        regularized_integral(0.0, 1.0, 0.1)


def test_constant_piece_cesaro_vanishes_with_cutoff():
    lam, eps = -1.0, 0.1
    bound = lambda cut: 8.0 * abs(lam) / (math.pi * eps ** 2 * cut)
    for cut in (1e3, 1e6, 1e9):
        assert abs(constant_piece_cesaro(lam, eps, cut)) <= bound(cut)
    with pytest.raises(ValueError):
        constant_piece_cesaro(lam, 0.0, 1e3)
    with pytest.raises(ValueError):
        constant_piece_cesaro(lam, eps, -1.0)


# ---------------------------------------------------------------------------
# Richardson extrapolation


def test_richardson_exact_through_quadratic():
    a, b, c = 3.7, -1.2, 0.45
    f = lambda h: a + b * h + c * h * h
    values = [f(0.4), f(0.2), f(0.1)]
    assert richardson(values) == pytest.approx(a, rel=1e-14)
    # two nodes only cancel the linear term
    assert richardson([f(0.4), f(0.2)]) == pytest.approx(a - 2 * c * 0.04, rel=1e-12)


def test_richardson_cubic_leftover_scales_down():
    f = lambda h: 1.0 + h ** 3
    coarse = abs(richardson([f(0.4), f(0.2), f(0.1)]) - 1.0)
    fine = abs(richardson([f(0.04), f(0.02), f(0.01)]) - 1.0)
    assert coarse < 0.02
    assert fine == pytest.approx(coarse * 1e-3, rel=1e-6)


def test_richardson_validates_input():
    with pytest.raises(ValueError):
        richardson([1.0])
    with pytest.raises(ValueError):
        richardson([1.0, 2.0], step_ratio=1.0)


def test_extrapolation_documented_nodes():
    # default nodes at the documented example point; the small nodes used
    # for the bound-state energy do far better, this is the coarse demonstration
    lam, e_abs = -1.0, 0.25
    limit = -2.0 * lam * math.sqrt(e_abs)
    err = abs(extrapolate_integral(lam, e_abs) - limit)
    assert err <= 1e-4
    best_node = abs(regularized_integral(lam, e_abs, 0.05) - limit)
    assert best_node / err > 50.0


def test_extrapolation_node_validation():
    assert node_ratio([0.2, 0.1, 0.05]) == 2.0
    assert node_ratio((0.9, 0.3)) == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ValueError):
        extrapolate_integral(-1.0, 1.0, epsilons=(0.05, 0.1, 0.2))
    with pytest.raises(ValueError):
        extrapolate_integral(-1.0, 1.0, epsilons=(0.2, 0.1, 0.07))
    with pytest.raises(ValueError):
        extrapolate_integral(-1.0, 1.0, epsilons=(0.2,))
    with pytest.raises(ValueError):
        extrapolate_integral(-1.0, 1.0, epsilons=(0.2, -0.1))


# ---------------------------------------------------------------------------
# bound-state energy through the regularized route


def test_bound_state_energy_documented_couplings():
    assert abs(bound_state_energy_via_regularization(-1.0) - (-0.25)) <= 1e-8 * 0.25
    assert abs(bound_state_energy_via_regularization(-0.5) - (-1.0)) <= 1e-8


def test_bound_state_energy_random_couplings():
    rng = random.Random(2)
    for _ in range(5):
        lam = -rng.uniform(0.2, 3.0)
        expected = -1.0 / (4.0 * lam * lam)
        energy = bound_state_energy_via_regularization(lam)
        assert abs(energy - expected) <= 1e-8 * abs(expected)


def test_bound_state_energy_rejects_repulsive():
    with pytest.raises(ValueError, match="no bound state"):
        bound_state_energy_via_regularization(1.0)
    with pytest.raises(ValueError):
        bound_state_energy_via_regularization(0.0)


def test_bound_state_energy_names_a_non_positive_extrapolated_integral(monkeypatch):
    # no real coupling is known to reach this guard; force an extrapolated
    # integral r <= 0, for which 1 = r sqrt(|E|) has no root, to pin the message
    monkeypatch.setattr(regularize, "extrapolate_integral", lambda *args: -5.0)
    with pytest.raises(ConvergenceError) as err:
        bound_state_energy_via_regularization(-1.0)
    message = str(err.value)
    assert "lam = -1" in message
    assert "r = -5 is not positive" in message


def test_bound_state_energy_sweeps_couplings_down_to_minus_1e6():
    # the quadrature runs at |E| = 1 only; at the bound-state energy itself it
    # would fail below lam = -5e4, where |E| < 1e-10 and quad returns 1.8e308
    for lam in (-10.0 ** (-3.0 + 0.9 * j) for j in range(11)):
        expected = -1.0 / (4.0 * lam * lam)
        energy = bound_state_energy_via_regularization(lam)
        assert abs(energy - expected) <= 1e-8 * abs(expected), lam


@pytest.mark.parametrize("e_abs", [0.01, 1.0, 100.0, 1e4])
def test_integral_scales_as_sqrt_energy_at_rescaled_epsilon(e_abs):
    # q = sqrt(|E|) t gives I(w/sqrt|E|, |E|) = sqrt(|E|) I(w, 1), the identity
    # bound_state_energy_via_regularization rests on.  At |E| = 1e-6 quad's
    # q-form drifts from it by 4.8e-9 at w = 8e-4, so it is not in this grid.
    s = math.sqrt(e_abs)
    for w in (2e-4, 8e-4, 0.1):
        scaled = s * regularized_integral(-0.7, 1.0, w)
        assert regularized_integral(-0.7, e_abs, w / s) == pytest.approx(scaled, rel=1e-12, abs=0)


def test_quadrature_above_its_modulus_bound_is_a_convergence_error():
    # at |E| = 1e-14 quad returns about 1.8e308 with a small relative error
    # estimate, where |int cos(eps q)/(q^2 + |E|) dq| <= pi/(2 sqrt|E|)
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1e6, 1e-14, 2000.0)
    message = str(err.value)
    value = float(re.search(r"returned (\S+),", message).group(1))
    assert value > math.pi / (2.0 * math.sqrt(1e-14))
    assert "pi/(2 sqrt|E|) = 1.5708e+07" in message
    assert "epsilon = 2000, |E| = 1e-14" in message
    assert closed_form(-1e6, 1e-14, 2000.0) == pytest.approx(0.19996, rel=1e-4)


def test_importing_momgas_leaves_scipy_unloaded():
    # scipy.integrate is imported by regularized_integral on first use; a
    # cold `import momgas` must not pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, momgas; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the heavy libraries a cold process loads, by what it runs: the exact
# algebra, the two-body closed forms and the coupling maps need none of them
HEAVY = ("mpmath", "numpy", "scipy")
FOOTPRINT = {
    "two-body": (), "bound-state": (), "yb-check": (), "delta-control": (),
    "coupling-maps": (), "coleman": (),
    "bethe-solve": ("numpy",), "ll-solve": ("numpy",), "duality": ("numpy",),
    "gs-scan": ("numpy",), "vertex-scan": ("numpy",), "dispersion-scan": ("numpy",),
    "gaudin-check": ("mpmath", "numpy"),
    "reg-integral": ("numpy", "scipy"), "reg-bound-state": ("numpy", "scipy"),
}
_LOADED = f"sorted(m for m in {HEAVY} if m in sys.modules)"


def _loaded(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["momgas", "momgas.cli"])
def test_importing_the_package_or_the_cli_loads_no_heavy_library(fresh_python, module):
    assert _loaded(fresh_python(f"import sys, {module}; print({_LOADED})")) == "[]"


def test_every_subcommand_has_a_pinned_footprint():
    from momgas.cli import COMMANDS
    from test_cli import SMOKE
    assert set(FOOTPRINT) == set(COMMANDS) == set(SMOKE)


@pytest.mark.parametrize("command", sorted(FOOTPRINT))
def test_a_cold_subcommand_loads_only_the_heavy_libraries_it_uses(fresh_python, command):
    from test_cli import SMOKE
    code = ("import contextlib, io, sys\n"
            "from momgas.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(code, {_LOADED})\n")
    assert _loaded(fresh_python(code, command, *SMOKE[command])) == f"0 {list(FOOTPRINT[command])}"
