"""Regularized self-consistency integral: the double-exponential Fourier
sum vs closed form, its guards, extrapolation, and the bound-state energy
from the sqrt(|E|) scaling."""

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
    # sqrt(|E|) prefactor: no bound state at zero energy (eps sqrt|E| = 1e-3)
    value = regularized_integral(-1.0, 1e-10, 100.0)
    assert value == pytest.approx(closed_form(-1.0, 1e-10, 100.0), rel=1e-9, abs=0)
    assert value < 2e-5
    assert abs(closed_form(-1.0, 1e-12, 0.1)) < 1e-5


# A scan of regularized_integral(-1, 1, omega) at 100 points per decade of
# omega = eps sqrt|E| from 4e-33 to 1 finds the sum failing below omega ~ 8e-11,
# where its nodes no longer resolve t ~ 1: 1108 points under the lower bound,
# 1102 above the modulus bound and 12 on the error estimate.  Each guard is
# pinned at one of them.


def test_quadrature_below_its_lower_bound_is_a_convergence_error():
    # scipy's quad returned about -(pi/2) eps at eps sqrt|E| = 1e-6 with an
    # error estimate of 9e-14; the double-exponential sum is right there
    assert regularized_integral(-1.0, 1e-10, 0.1) == pytest.approx(
        closed_form(-1.0, 1e-10, 0.1), rel=1e-12, abs=0)
    # at omega = 2e-100 the sum returns J = 1.235, where 1 - cos x <= min(2, x^2/2)
    # bounds J below by pi/2 - 2 omega
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1.0, 0.25, 4e-100)
    message = str(err.value)
    assert float(re.search(r"returned J = (\S+),", message).group(1)) < math.pi / 2
    assert "below the lower bound pi/2 - 2 omega = 1.5707963267948966" in message
    assert "at epsilon = 4e-100, |E| = 0.25 (omega = eps sqrt|E| = 2e-100)" in message


def test_an_underflowing_omega_is_a_convergence_error_naming_eps_and_energy():
    # eps sqrt|E| = 2.5e-324 rounds to 0: the sum is exactly 0, not a math
    # domain error, and the lower bound names eps and |E|
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1.0, 0.25, 5e-324)
    message = str(err.value)
    assert "returned J = 0.0, below the lower bound" in message
    assert "at epsilon = 4.94066e-324, |E| = 0.25 (omega = eps sqrt|E| = 0)" in message


def test_quadrature_error_estimate_is_a_convergence_error():
    # at omega = 5e-11 J passes both bounds, but J(h) and J(2h) differ by 2.2e-5
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1.0, 1.0, 5e-11)
    message = str(err.value)
    assert "error estimate |J(h) - J(2h)| = 2.21554e-05 too large" in message
    assert "at epsilon = 5e-11, |E| = 1 (omega = eps sqrt|E| = 5e-11)" in message


def test_every_value_that_passes_the_guards_is_close_to_the_closed_form():
    # omega from 1e-12 to 1e-8, across the edge where the sum starts to fail:
    # the guards let through nothing worse than 4e-11 relative (3.9e-11 at
    # omega = 4.4e-11 is the worst in the scan above), and they reject
    # nothing from 1e-10 up
    failed = []
    for k in range(401):
        omega = 10.0 ** (-12.0 + k / 100)
        try:
            value = regularized_integral(-1.0, 1.0, omega)
        except ConvergenceError:
            failed.append(omega)
            continue
        assert value == pytest.approx(closed_form(-1.0, 1.0, omega), rel=4e-11, abs=0), omega
    assert failed and max(failed) < 1e-10


def test_fourier_sum_matches_the_closed_form_from_1e_minus_8_to_100():
    # lam = -pi/4 at |E| = 1 makes the prefactor 4 |lam| sqrt|E|/pi exactly 1,
    # so the value is J(omega) itself, against (pi/2) e^(-omega)
    for k in range(201):
        omega = 10.0 ** (-8.0 + k / 20)
        value = regularized_integral(-math.pi / 4, 1.0, omega)
        exact = closed_form(-math.pi / 4, 1.0, omega)
        if omega <= 3.0:
            assert value == pytest.approx(exact, rel=1e-12, abs=0), omega
        else:
            assert abs(value - exact) <= 2e-15, omega


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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: regularized_integral(1.0, NAN, 0.1),
                 "e_abs must be finite, got e_abs = nan",
                 id="integral-e_abs-nan"),
    pytest.param(lambda: regularized_integral(NAN, 1.0, 0.1), "lam must be finite, got lam = nan",
                 id="integral-lam-nan"),
    pytest.param(lambda: regularized_integral(-1.0, 1.0, INF),
                 "epsilon must be finite, got epsilon = inf",
                 id="integral-epsilon-inf"),
    pytest.param(lambda: closed_form(1.0, INF, 0.1), "e_abs must be finite, got e_abs = inf",
                 id="closed_form-e_abs-inf"),
    pytest.param(lambda: constant_piece_cesaro(1.0, 0.1, NAN),
                 "cutoff must be finite, got cutoff = nan",
                 id="cesaro-cutoff-nan"),
    pytest.param(lambda: constant_piece_cesaro(NAN, 0.1, 1.0), "lam must be finite, got lam = nan",
                 id="cesaro-lam-nan"),
    pytest.param(lambda: node_ratio([0.2, NAN]), "epsilon node 1 is not finite: nan",
                 id="node_ratio-nan"),
    pytest.param(lambda: richardson([1.0, 2.0], step_ratio=NAN),
                 "step_ratio must be finite, got step_ratio = nan",
                 id="richardson-step_ratio-nan"),
    pytest.param(lambda: richardson([1.0, NAN]), "value 1 is not finite: nan",
                 id="richardson-values-nan"),
    pytest.param(lambda: bound_state_energy_via_regularization(-INF), "lam must be finite",
                 id="bound_state_energy-lam-minus-inf"),
])
def test_a_non_finite_input_is_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: regularized_integral(1.0, 0.0, 0.1), r"\|E\| must be positive",
                 id="integral-e_abs-0"),
    pytest.param(lambda: regularized_integral(-1.0, 1.0, 0.0),
                 "at epsilon = 0 the integral is linearly divergent", id="integral-epsilon-0"),
    pytest.param(lambda: constant_piece_cesaro(1.0, 0.1, 0.0), "cutoff must be positive",
                 id="cesaro-cutoff-0"),
    pytest.param(lambda: node_ratio([0.2, -0.1]), "epsilon nodes must be positive",
                 id="node_ratio-negative"),
    pytest.param(lambda: richardson([1.0, 2.0], step_ratio=1.0), "step ratio must exceed 1",
                 id="richardson-step_ratio-1"),
])
def test_a_non_positive_input_keeps_its_sign_message(call, match):
    # the finiteness check runs first; a finite value <= 0 is still blamed on its sign
    with pytest.raises(ValueError, match=match):
        call()


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
    # the integral is taken at |E| = 1 only, so every coupling costs the same
    for lam in (-10.0 ** (-3.0 + 0.9 * j) for j in range(11)):
        expected = -1.0 / (4.0 * lam * lam)
        energy = bound_state_energy_via_regularization(lam)
        assert abs(energy - expected) <= 1e-8 * abs(expected), lam


@pytest.mark.parametrize("e_abs", [1e-10, 1e-6, 0.01, 1.0, 100.0, 1e4])
def test_integral_scales_as_sqrt_energy_at_rescaled_epsilon(e_abs):
    # q = sqrt(|E|) t gives I(w/sqrt|E|, |E|) = sqrt(|E|) I(w, 1), the identity
    # bound_state_energy_via_regularization rests on.  scipy's quad integrated
    # in q and drifted from it by 4.8e-9 at |E| = 1e-6, w = 8e-4.
    s = math.sqrt(e_abs)
    for w in (2e-4, 8e-4, 0.1):
        scaled = s * regularized_integral(-0.7, 1.0, w)
        assert regularized_integral(-0.7, e_abs, w / s) == pytest.approx(scaled, rel=1e-12, abs=0)


def test_quadrature_above_its_modulus_bound_is_a_convergence_error():
    # scipy's quad returned about 1.8e308 at |E| = 1e-14 with a small relative
    # error estimate; the double-exponential sum is right there
    assert regularized_integral(-1e6, 1e-14, 2000.0) == pytest.approx(
        closed_form(-1e6, 1e-14, 2000.0), rel=1e-12, abs=0)
    # at omega = 4e-100 the sum returns J = 1.854, where
    # |int cos(omega t)/(1 + t^2) dt| <= pi/2
    with pytest.raises(ConvergenceError) as err:
        regularized_integral(-1.0, 1.0, 4e-100)
    message = str(err.value)
    assert float(re.search(r"returned J = (\S+),", message).group(1)) > math.pi / 2
    assert "above the modulus bound pi/2" in message
    assert "at epsilon = 4e-100, |E| = 1 (omega = eps sqrt|E| = 4e-100)" in message


# the libraries and modules a cold process loads, by what it runs: the
# ring solvers load numpy, the Gaudin checks mpmath, the exact algebra
# `momgas.yang_baxter` with fractions (and decimal, which fractions imports),
# and the two-body closed forms, the non-relativistic scans and maps and the
# regularized integral none of them.  No code path loads scipy, and
# `concurrent.futures` (with `logging` and `queue`), whose thread pool runs
# the ring solvers' split passes, loads only when a pass is split.  A module
# absent from sys.modules after the run was never imported, so the table
# also shows that each subcommand runs with the others unimportable
# numpy imports inspect itself; the package imports neither it nor dataclasses
HEAVY = ("concurrent.futures", "dataclasses", "decimal", "fractions", "inspect", "logging",
         "momgas.yang_baxter", "mpmath", "numpy", "queue", "scipy")
_EXACT = ("decimal", "fractions", "momgas.yang_baxter")
_NUMPY = ("inspect", "numpy")
FOOTPRINT = {
    "two-body": (), "bound-state": (), "yb-check": _EXACT, "delta-control": _EXACT,
    "vertex-scan": (), "dispersion-scan": (), "coupling-maps": (), "coleman": (),
    "reg-integral": (), "reg-bound-state": (),
    "bethe-solve": _NUMPY, "ll-solve": _NUMPY, "duality": _NUMPY, "gs-scan": _NUMPY,
    "gaudin-check": ("mpmath",),
}
_LOADED = f"sorted(m for m in {HEAVY} if m in sys.modules)"


def _loaded(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["momgas", "momgas.cli"])
def test_importing_the_package_or_the_cli_loads_no_heavy_library(fresh_python, module):
    assert _loaded(fresh_python(f"import sys, {module}; print({_LOADED})")) == "[]"


def test_importing_the_cli_loads_no_library_module(fresh_python):
    # each handler imports its own module when it runs
    code = "import sys, momgas.cli; print(sorted(m for m in sys.modules if m.startswith('momgas.')))"
    assert _loaded(fresh_python(code)) == "['momgas.cli']"


def test_the_gaudin_checks_leave_numpy_unloaded(fresh_python):
    code = ("import sys, momgas\n"
            "momgas.gaudin_residual_scan(3, 1)\n"
            f"print({_LOADED})")
    assert _loaded(fresh_python(code)) == "['mpmath']"


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
