"""Two-particle states: closed forms, matching conditions, parity, limits."""

import math

import pytest
from hypothesis import given, strategies as st

from momgas.bethe import BetheWavefunction, gaudin_wavefunction, schrodinger_residual
from momgas.twobody import (
    BoundaryResidual, Parity, TwoBodyState,
    bc_residual, bound_state, eval_two_body, eval_two_body_derivative,
    scattering_state, two_body_residual,
)

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# scattering states


def test_even_channel_trivial_values():
    state = scattering_state(Parity.EVEN, 1.0)
    assert eval_two_body(state, 1.0, 0.0) == 1.0
    assert state.energy == 1.0
    assert not state.bound


def test_even_channel_is_coupling_blind():
    state = scattering_state(Parity.EVEN, 1.7)
    for lam in (-3.0, 0.0, 0.25, 10.0):
        assert eval_two_body(state, lam, 0.9) == pytest.approx(math.cos(1.7 * 0.9))


def test_odd_channel_value_jump_identity():
    # chi(0+) - chi(-0+) = 2 equals 4*lam*chi'(0+) at k = 2, lam = 0.5
    state = scattering_state(Parity.ODD, 2.0)
    res = two_body_residual(state, 0.5)
    assert res.derivative_jump == 0
    assert res.value_jump_defect == 0  # 1/(2*0.5) is exact here
    delta = 1e-9
    jump = eval_two_body(state, 0.5, delta) - eval_two_body(state, 0.5, -delta)
    slope = eval_two_body_derivative(state, 0.5, delta)
    assert jump.real == pytest.approx(2.0, abs=1e-8)
    assert (4.0 * 0.5 * slope).real == pytest.approx(2.0, abs=1e-8)


@given(st.floats(min_value=0.05, max_value=20.0, **finite),
       st.floats(min_value=0.05, max_value=20.0, **finite))
def test_even_channel_zero_defect(k, lam):
    res = two_body_residual(scattering_state(Parity.EVEN, k), lam)
    assert res.derivative_jump == 0
    assert res.value_jump_defect == 0


@given(st.floats(min_value=0.05, max_value=20.0, **finite),
       st.floats(min_value=0.05, max_value=20.0, **finite))
def test_odd_channel_zero_defect(k, lam):
    res = two_body_residual(scattering_state(Parity.ODD, k), lam)
    assert res.derivative_jump == 0
    # 2 - 4*lam*fl(1/(2*lam)) can land one ulp off zero
    assert abs(res.value_jump_defect) <= 5e-16


@given(st.floats(min_value=0.1, max_value=5.0, **finite),
       st.floats(min_value=0.1, max_value=5.0, **finite),
       st.floats(min_value=-4.0, max_value=4.0, **finite))
def test_parity_under_reflection(k, lam, x):
    even = scattering_state(Parity.EVEN, k)
    odd = scattering_state(Parity.ODD, k)
    assert eval_two_body(even, lam, -x) == pytest.approx(eval_two_body(even, lam, x),
                                                         rel=1e-14, abs=1e-14)
    assert eval_two_body(odd, lam, -x) == pytest.approx(-eval_two_body(odd, lam, x),
                                                        rel=1e-14, abs=1e-14)


def test_odd_channel_free_fermion_rescaling():
    # lam * chi_minus -> sin(kx)/(2k) pointwise as lam -> 0
    k, x = 1.3, 0.7
    target = math.sin(k * x) / (2.0 * k)
    state = scattering_state(Parity.ODD, k)
    for lam in (1e-4, 1e-6, 1e-8):
        value = lam * eval_two_body(state, lam, x)
        assert abs(value - target) <= abs(lam) * 2.0


def test_derivative_matches_finite_difference():
    state = scattering_state(Parity.ODD, 1.9)
    lam, x, h = 0.8, 1.1, 1e-6
    fd = (eval_two_body(state, lam, x + h) - eval_two_body(state, lam, x - h)) / (2 * h)
    assert eval_two_body_derivative(state, lam, x) == pytest.approx(fd, rel=1e-8)


def test_odd_channel_error_paths():
    state = scattering_state(Parity.ODD, 0.0)
    with pytest.raises(ValueError):
        eval_two_body(state, 1.0, 0.5)
    with pytest.raises(ValueError):
        eval_two_body(scattering_state(Parity.ODD, 1.0), 0.0, 0.5)
    with pytest.raises(ValueError):
        eval_two_body_derivative(state, 1.0, 0.5)


# ---------------------------------------------------------------------------
# bound state


def test_bound_state_closed_form():
    for lam in (-0.25, -0.5, -1.0, -2.0):
        state = bound_state(lam)
        assert state.parity is Parity.ODD
        assert state.bound
        assert state.energy == pytest.approx(-1.0 / (4.0 * lam * lam), rel=1e-15)
        assert state.k == 1j / (2.0 * lam)


def test_bound_state_absent_when_repulsive():
    assert bound_state(1.0) is None
    with pytest.raises(ValueError):
        bound_state(0.0)


def test_bound_state_example_values():
    assert bound_state(-0.5).energy == pytest.approx(-1.0)
    assert bound_state(-1.0).energy == pytest.approx(-0.25)
    assert bound_state(-2.0).energy == pytest.approx(-0.0625)


def test_bound_state_unit_norm():
    # 2 * integral_0^inf exp(-2 kappa x) dx * norm^2 = norm^2 / kappa = 1
    lam = -0.7
    state = bound_state(lam)
    kappa = 1.0 / (2.0 * abs(lam))
    n = 50000
    upper = 20.0 / kappa
    h = upper / n
    total = 0.0
    for i in range(n):
        x = (i + 0.5) * h
        total += abs(eval_two_body(state, lam, x)) ** 2
    assert 2.0 * total * h == pytest.approx(1.0, rel=1e-6)


def test_bound_state_zero_defect():
    for lam in (-0.3, -1.0, -4.0):
        res = two_body_residual(bound_state(lam), lam)
        assert abs(res.derivative_jump) == 0
        assert abs(res.value_jump_defect) <= 1e-15


def test_bound_state_decay_and_oddness():
    lam = -1.0
    state = bound_state(lam)
    assert eval_two_body(state, lam, 3.0) == pytest.approx(-eval_two_body(state, lam, -3.0))
    assert abs(eval_two_body(state, lam, 10.0)) < abs(eval_two_body(state, lam, 1.0))
    assert eval_two_body(state, lam, 0.0) == 0  # sgn(0) = 0 average convention


def test_bound_state_requires_attractive_lambda():
    state = bound_state(-1.0)
    with pytest.raises(ValueError):
        eval_two_body(state, +1.0, 0.5)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: bound_state(math.nan), "lam must be finite, got lam = nan",
                 id="bound_state-lam-nan"),
    pytest.param(lambda: bound_state(-math.inf), "lam must be finite, got lam = -inf",
                 id="bound_state-lam-minus-inf"),
    pytest.param(lambda: scattering_state(Parity.ODD, math.inf), "k must be finite, got k = inf",
                 id="scattering_state-k-inf"),
    pytest.param(lambda: two_body_residual(scattering_state(Parity.ODD, 1.0), math.nan),
                 "lam must be finite, got lam = nan", id="residual-lam-nan"),
    pytest.param(lambda: eval_two_body(scattering_state(Parity.EVEN, 1.0), 1.0, math.nan),
                 "x must be finite, got x = nan", id="eval-x-nan"),
    pytest.param(lambda: eval_two_body_derivative(bound_state(-1.0), -math.inf, 0.5),
                 "lam must be finite, got lam = -inf", id="derivative-lam-minus-inf"),
])
def test_a_non_finite_input_is_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# bc_residual plumbing (the N-body entry point)


def _mutant(momenta=(-1.3, 0.2, 1.9), lam=0.8, entry=(1, 0)):
    # the Gaudin state with one pair ratio g[a][b] (a > b) negated: a
    # plane-wave sum that solves the free equation in every wedge but not
    # the contact conditions
    wf = gaudin_wavefunction(momenta, lam)
    g = [list(row) for row in wf.pair_ratios]
    a, b = entry
    g[a][b] = -g[a][b]
    return BetheWavefunction(momenta=wf.momenta, pair_ratios=g)


def test_generic_plane_wave_has_nonzero_value_defect():
    res = bc_residual(_mutant(), 0.8, (0, 1), [0.7, 0.7, 2.4])
    assert abs(res.value_jump_defect) > 1.0
    assert isinstance(res, BoundaryResidual)
    true = bc_residual(gaudin_wavefunction((-1.3, 0.2, 1.9), 0.8), 0.8, (0, 1),
                       [0.7, 0.7, 2.4])
    assert abs(true.value_jump_defect) <= 1e-14


@pytest.mark.parametrize("wf", [gaudin_wavefunction((-1.3, 0.2, 1.9, -2.4), 2.5),
                                _mutant((-1.3, 0.2, 1.9, -2.4), 2.5, (3, 1))],
                         ids=["gaudin", "mutant"])
def test_derivative_jump_is_exactly_zero_for_any_table(wf):
    # the two sides of x_j = x_k are one sector with j and k swapped, so
    # (d_j - d_k) chi is continuous by antisymmetry, whatever the amplitudes
    spectators = [0.3, 4.1]
    for j in range(wf.n - 1):
        point = spectators[:j] + [1.7, 1.7] + spectators[j:]
        for pair in ((j, j + 1), (j + 1, j)):
            assert bc_residual(wf, 2.5, pair, point).derivative_jump == 0.0


def test_bc_residual_reads_a_point_within_tolerance_at_the_contact():
    # x_k within the hyperplane tolerance of x_j is read as x_j, so the
    # check is that of the contact, not of the sector next to it
    wf = gaudin_wavefunction((-1.3, 0.2, 1.9), 0.8)
    near = bc_residual(wf, 0.8, (0, 1), [0.7, 0.7 + 1e-12, 2.4])
    assert near == bc_residual(wf, 0.8, (0, 1), [0.7, 0.7, 2.4])
    assert abs(near.value_jump_defect) <= 1e-14


def test_bc_residual_validates_geometry():
    wf = _mutant()
    with pytest.raises(ValueError):
        bc_residual(wf, 1.0, (0, 1), [0.0, 1.0, 2.0])      # not on the hyperplane
    with pytest.raises(ValueError):
        bc_residual(wf, 1.0, (0, 0), [0.0, 0.0, 2.0])      # degenerate pair
    with pytest.raises(ValueError):
        bc_residual(wf, 1.0, (0, 3), [0.0, 0.0, 2.0])      # out of range


@pytest.mark.parametrize("point", [[0.7, 0.7], [0.7, 0.7, 2.4, 3.0]])
def test_bc_residual_rejects_a_point_of_the_wrong_length(point):
    # one coordinate per particle: a short point is not indexed past its end,
    # and no coordinate of a long one is left unread
    with pytest.raises(ValueError, match=f"{len(point)} coordinates.* 3 particles"):
        bc_residual(_mutant(), 0.8, (0, 1), point)


@pytest.mark.parametrize("lam, point, text", [
    (0.8, [math.nan, math.nan, 0.9], "coordinate 0 is not finite: nan"),
    (0.8, [0.7, 0.7, math.inf], "coordinate 2 is not finite: inf"),
    (math.nan, [0.7, 0.7, 2.4], "lam = nan"),
])
def test_bc_residual_names_a_non_finite_input(lam, point, text):
    # a nan defect would pass every tolerance comparison made on it
    with pytest.raises(ValueError, match=text):
        bc_residual(_mutant(), lam, (0, 1), point)


def test_bc_residual_rejects_coinciding_spectators():
    wf = _mutant((-1.3, 0.2, 1.9, 2.6), 0.8, (3, 1))
    with pytest.raises(ValueError):
        bc_residual(wf, 1.0, (0, 1), [0.5, 0.5, 2.0, 2.0])
    with pytest.raises(ValueError):
        bc_residual(wf, 1.0, (0, 1), [0.5, 0.5, 0.5, 2.0])


def test_probe_misses_the_mutant_that_the_contact_check_catches():
    # every plane wave of the table has energy E, so the Schroedinger probe
    # passes any amplitude set; only the contact conditions pin the amplitudes
    momenta, lam, x = (-1.3, 0.2, 1.9), 0.8, [0.2, 1.4, 3.1]
    mutant = _mutant(momenta, lam)
    true_probe = schrodinger_residual(gaudin_wavefunction(momenta, lam), x)
    mutant_probe = schrodinger_residual(mutant, x)
    assert true_probe <= 1e-12
    assert mutant_probe <= 1e-12
    assert mutant_probe != true_probe       # the probe summed the mutant's table
    res = bc_residual(mutant, lam, (0, 1), [0.7, 0.7, 2.4])
    assert abs(res.value_jump_defect) > 1.0


def test_energy_matches_regularized_route():
    from momgas.regularize import bound_state_energy_via_regularization
    for lam in (-0.25, -1.0, -4.0):
        direct = bound_state(lam).energy
        indirect = bound_state_energy_via_regularization(lam)
        assert abs(indirect - direct) / abs(direct) <= 1e-10
