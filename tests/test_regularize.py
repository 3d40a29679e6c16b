"""Regularized self-consistency integral: quadrature vs closed form,
extrapolation, and the bound-state root-solve."""

import math
import random
import re

import pytest

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
    # sqrt(|E|) prefactor: no bound state at zero energy
    assert abs(regularized_integral(-1.0, 1e-10, 0.1)) < 1e-4
    assert abs(closed_form(-1.0, 1e-12, 0.1)) < 1e-5


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
    # default nodes at the documented example point; the rescaled nodes used
    # by the root-solve do far better, this is the coarse demonstration
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


def test_bound_state_energy_names_a_bracket_that_misses_the_root():
    # at lam = -1e6 the bracket is |E| in [1e-14, 1e-10]; the quadrature's
    # target at the lower end comes out positive (about 2.3e300)
    with pytest.raises(ConvergenceError) as err:
        bound_state_energy_via_regularization(-1e6)
    message = str(err.value)
    assert "lam = -1e+06" in message
    assert "|E| in [1e-14, 1e-10]" in message
    ends = re.search(r"I\(\|E\|\) - 1 is (\S+) and (\S+) at its ends", message)
    assert float(ends.group(1)) > 0 and float(ends.group(2)) > 0
