"""Gaudin eigenfunctions, ring quantization, duality, and the residual scans."""

import itertools
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momgas import bethe
from momgas.bethe import (
    MAX_PARTICLES_ENUMERATED, RESIDUAL_BLOCK_ROWS, BetheWavefunction, ConvergenceError,
    _mp_wedge_values,
    bethe_residuals, duality_check, eval_gradient, eval_wavefunction,
    gaudin_amplitudes, gaudin_residual_scan,
    gaudin_wavefunction, ground_state_quantum_numbers, ground_state_scan,
    parity_rule_eta, schrodinger_residual, solve_bethe, solve_lieb_liniger,
)
from momgas.twobody import bc_residual


# ---------------------------------------------------------------------------
# amplitudes


def test_single_particle_amplitude_is_one():
    assert gaudin_amplitudes([1.5], 2.0) == {(0,): 1.0 + 0j}


def test_two_particle_amplitudes_frozen():
    amps = gaudin_amplitudes([0.0, 1.0], 1.0)
    assert amps[(0, 1)] == 1.0 + 1.0j
    assert amps[(1, 0)] == -1.0 + 1.0j


def test_free_limit_reduces_to_slater_signs():
    amps = gaudin_amplitudes([0.4, 1.9, 2.6], 0.0)
    for p, a in amps.items():
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        assert a == complex(sign)


def test_amplitudes_reject_degenerate_momenta():
    with pytest.raises(ValueError):
        gaudin_amplitudes([1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        gaudin_amplitudes([], 0.5)
    with pytest.raises(ValueError):
        gaudin_amplitudes(list(range(MAX_PARTICLES_ENUMERATED + 1)), 0.5)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=999))
@settings(max_examples=40, deadline=None)
def test_adjacent_transposition_ratio(n, seed):
    # A_P / A_{P T_i} = (iu + 1/lam)/(iu - 1/lam), u = k_{P(i+1)} - k_{P(i)},
    # a unimodular ratio for real u
    import random
    rng = random.Random(seed)
    k = sorted(rng.uniform(-3, 3) for _ in range(n))
    if min(abs(a - b) for a, b in zip(k, k[1:])) < 1e-3:
        return
    lam = rng.uniform(0.1, 10.0)
    amps = gaudin_amplitudes(k, lam)
    for p in itertools.permutations(range(n)):
        for i in range(n - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            u = k[p[i + 1]] - k[p[i]]
            ratio = amps[p] / amps[tuple(q)]
            target = (1j * u + 1.0 / lam) / (1j * u - 1.0 / lam)
            assert abs(ratio - target) < 1e-12
            assert abs(abs(ratio) - 1.0) < 1e-12


def test_normalized_amplitudes_are_unimodular():
    wf = gaudin_wavefunction([-2.1, 0.3, 1.7], 7.5)
    for a in wf.amplitudes.values():
        assert abs(abs(a) - 1.0) < 1e-14
    assert wf.amplitudes[(0, 1, 2)] == 1.0 + 0j
    raw = gaudin_amplitudes([-2.1, 0.3, 1.7], 7.5)
    ratios = {p: raw[p] / wf.amplitudes[p] for p in wf.amplitudes}
    first = ratios[(0, 1, 2)]
    assert all(abs(r - first) < 1e-9 * abs(first) for r in ratios.values())


# ---------------------------------------------------------------------------
# wavefunction evaluation


def test_single_particle_plane_wave():
    wf = gaudin_wavefunction([1.3], 0.7)
    for x in (-2.0, 0.0, 1.1):
        assert eval_wavefunction(wf, [x]) == pytest.approx(complex(math.cos(1.3 * x),
                                                                   math.sin(1.3 * x)))


def test_fermion_antisymmetry_is_exact():
    wf = gaudin_wavefunction([-1.0, 0.5, 2.0], 1.2)
    a = eval_wavefunction(wf, [0.3, 1.1, 2.9])
    b = eval_wavefunction(wf, [1.1, 0.3, 2.9])
    assert a == -b


def test_two_body_reduction_to_odd_channel():
    # N = 2, k = (-1, 1): chi(x1, x2) = C * (sin(r)/(2 lam k) + sgn(r) cos(r)),
    # r = x2 - x1, with one global complex constant C
    import random
    rng = random.Random(7)
    wf = gaudin_wavefunction([-1.0, 1.0], 1.0)
    constant = None
    for _ in range(100):
        r = rng.uniform(-5.0, 5.0)
        if abs(r) < 1e-3:
            continue
        x1 = rng.uniform(-2.0, 2.0)
        target = math.sin(r) / 2.0 + math.copysign(1.0, r) * math.cos(r)
        if abs(target) < 1e-3:
            continue
        value = eval_wavefunction(wf, [x1, x1 + r])
        ratio = value / target
        if constant is None:
            constant = ratio
        assert abs(ratio - constant) <= 1e-12 * abs(constant)
    assert constant == pytest.approx(1.6 + 0.8j, rel=1e-12)


def test_gradient_matches_finite_difference():
    wf = gaudin_wavefunction([-1.7, 0.4, 2.2], 2.5)
    x = [0.2, 1.4, 3.1]
    grad = eval_gradient(wf, x)
    h = 1e-6
    for m in range(3):
        xp = list(x); xp[m] += h
        xm = list(x); xm[m] -= h
        fd = (eval_wavefunction(wf, xp) - eval_wavefunction(wf, xm)) / (2 * h)
        assert grad[m] == pytest.approx(fd, rel=1e-8)


def test_eval_validates_input():
    wf = gaudin_wavefunction([-1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        eval_wavefunction(wf, [0.5, 0.5])
    with pytest.raises(ValueError):
        eval_wavefunction(wf, [0.5])
    with pytest.raises(ValueError):
        eval_gradient(wf, [0.1, 0.1])
    with pytest.raises(ValueError):
        eval_gradient(wf, [0.1, 0.2, 0.3])


def test_wavefunction_requires_full_amplitude_cover():
    with pytest.raises(ValueError):
        BetheWavefunction(momenta=(0.0, 1.0), amplitudes={(0, 1): 1.0 + 0j})


def test_one_sided_pair_matches_offset_limit():
    wf = gaudin_wavefunction([-1.3, 0.2, 1.9], 0.8)
    x = [0.7, 0.7, 2.4]
    vp, gp = wf.one_sided_pair(x, (0, 1), +1)
    eps = 1e-8
    off = [0.7 + eps / 2, 0.7 - eps / 2, 2.4]
    assert eval_wavefunction(wf, off) == pytest.approx(vp, rel=1e-6)
    for m in range(3):
        assert eval_gradient(wf, off)[m] == pytest.approx(gp[m], rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# contact conditions


def test_gaudin_satisfies_conditions_on_adjacent_hyperplane():
    wf = gaudin_wavefunction([-2.0, -0.3, 1.1, 2.7], 3.0)
    point = [0.5, 1.8, 1.8, 4.0]
    res = bc_residual(wf, 3.0, (1, 2), point)
    assert abs(res.derivative_jump) <= 1e-12
    assert abs(res.value_jump_defect) <= 1e-12


def test_residual_scan_is_deterministic_and_small():
    a = gaudin_residual_scan(3, 5, seed=11)
    b = gaudin_residual_scan(3, 5, seed=11)
    assert a == b
    for row in a:
        assert row["max_derivative_jump"] <= 1e-12
        assert row["max_value_jump_defect"] <= 1e-12
        assert row["schrodinger_residual"] <= 1e-6


def test_residual_scan_guards():
    with pytest.raises(ValueError):
        gaudin_residual_scan(0, 1)
    with pytest.raises(ValueError):
        gaudin_residual_scan(MAX_PARTICLES_ENUMERATED + 1, 1)


@pytest.mark.parametrize("draws", [0, -1])
def test_residual_scan_needs_a_draw(draws):
    with pytest.raises(ValueError, match="draws"):
        gaudin_residual_scan(3, draws)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_sums_the_library_wavefunction(n):
    # the mpmath plane-wave sum behind schrodinger_residual is the function
    # eval_wavefunction evaluates, sgn(P) included; the residual ratio alone
    # cannot tell amplitude sets apart, since any fixed set of coefficients
    # gives a free eigenfunction inside the wedge
    import random
    rng = random.Random(100 + n)
    momenta = [-1.3, 0.2, 1.9, -2.4, 0.9][:n]
    lam = 0.8
    wf = gaudin_wavefunction(momenta, lam)
    x = sorted(rng.uniform(0.0, 5.0) for _ in range(n))
    with mp.workdps(30):
        (probe,) = _mp_wedge_values(wf, [[mp.mpf(v) for v in x]])
    value = eval_wavefunction(wf, x)
    assert abs(complex(probe) - value) <= 1e-12 * abs(value)


def test_schrodinger_residual_validates_geometry():
    wf = gaudin_wavefunction([-1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        schrodinger_residual(wf, [0.5, 0.5 + 1e-7])
    with pytest.raises(ValueError):
        schrodinger_residual(wf, [0.5])
    with pytest.raises(ValueError):
        schrodinger_residual(wf, [0.5, 0.5])


def test_residual_scan_builds_one_state_per_draw(monkeypatch):
    # the contact check and the Schroedinger probe share the draw's state
    calls = []
    original = bethe.gaudin_wavefunction

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bethe, "gaudin_wavefunction", counted)
    gaudin_residual_scan(4, 3, seed=1)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# ring quantization


def test_quantum_number_blocks():
    assert ground_state_quantum_numbers(3) == (-1.0, 0.0, 1.0)
    assert ground_state_quantum_numbers(4) == (-1.5, -0.5, 0.5, 1.5)
    assert parity_rule_eta(3) == math.pi
    assert parity_rule_eta(4) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solve", [solve_bethe, solve_lieb_liniger])
@pytest.mark.parametrize("qn, text, index", [([0.5, math.inf], "inf", 1),
                                             ([0.5, math.nan], "nan", 1),
                                             ([-math.inf, 0.5], "-inf", 0)])
def test_non_finite_quantum_numbers_are_named(solve, qn, text, index):
    # checked before the ordering, without a RuntimeWarning: nan is not "out
    # of order", and inf never reaches the Newton floor check
    with pytest.raises(ValueError, match=rf"must be finite, got {text} at index {index}$"):
        solve(2, 10.0, 1.0, quantum_numbers=qn)


def test_single_particle_quantization():
    # N = 1, eta = pi: exp(ikL) = 1, so k = 2 pi n / L
    for n_qn in (-1.0, 0.0, 2.0):
        state = solve_bethe(1, 7.0, 1.0, quantum_numbers=[n_qn], eta=math.pi)
        assert state.momenta[0] == pytest.approx(2.0 * math.pi * n_qn / 7.0, abs=1e-13)
    assert solve_bethe(1, 7.0, 1.0).momenta[0] == 0.0


def test_two_particle_roots_match_bisection_oracle():
    # ground state is the symmetric pair (-q, q) with q L = pi - 2 arctan(2 lam q)
    lam, L = 1.0, 2.0 * math.pi
    g = lambda q: q * L - math.pi + 2.0 * math.atan(2.0 * lam * q)
    lo, hi = 1e-12, math.pi / L
    assert g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    q = 0.5 * (lo + hi)
    state = solve_bethe(2, L, lam)
    assert state.momenta[1] == pytest.approx(q, abs=1e-10)
    assert state.momenta[0] == pytest.approx(-q, abs=1e-10)


def test_solved_states_have_small_multiplicative_residuals():
    for n in (2, 3, 4, 5):
        state = solve_bethe(n, 10.0, 0.7)
        assert bethe_residuals(state).max() <= 1e-12
        assert list(state.momenta) == sorted(state.momenta)
        assert state.energy == pytest.approx(sum(k * k for k in state.momenta))
        assert state.total_momentum == pytest.approx(0.0, abs=1e-12)
    boson = solve_lieb_liniger(3, 10.0, 2.0)
    assert bethe_residuals(boson).max() <= 1e-12


def _loop_bethe_residuals(state):
    # the product-form residual as a plain double loop over j and l: the
    # reference that the blocked bethe_residuals must equal bit for bit
    k = np.asarray(state.momenta)
    n = len(k)
    L = state.box_length
    phase = math.cos(state.boundary_phase)
    if state.model == "fermion":
        c = 1.0 / state.coupling
        prefactor = phase * (-1.0) ** n
    else:
        c = state.coupling
        prefactor = phase
    out = np.empty(n)
    for j in range(n):
        rhs = prefactor + 0j
        for l in range(n):
            if l != j:
                d = k[j] - k[l]
                rhs *= (d + 1j * c) / (d - 1j * c)
        lhs = np.exp(1j * k[j] * L)
        out[j] = abs(lhs / rhs - 1.0)
    return out


def _seeded_ring_state(rng, n, index):
    # both models and both eta in turn; random density and coupling; the
    # ground-state block with a particle-hole excitation at the top and a
    # boost of every quantum number
    model = ("fermion", "boson")[index % 2]
    eta = (0.0, math.pi)[index // 2 % 2]
    qn = list(ground_state_quantum_numbers(n))
    qn[-1] += rng.randrange(3)
    shift = rng.randrange(-2, 3)
    qn = [q + shift for q in qn]
    L = n / rng.uniform(0.3, 3.0)
    coupling = rng.uniform(0.1, 5.0)
    if model == "fermion":
        return solve_bethe(n, L, coupling, quantum_numbers=qn, eta=eta, tol=1e-11)
    return solve_lieb_liniger(n, L, coupling, eta=eta, quantum_numbers=qn, tol=1e-11)


def test_residuals_equal_the_double_loop_bit_for_bit():
    # 300 small states, then sizes up to 300 across the row-block edge
    block = RESIDUAL_BLOCK_ROWS
    sizes = [1 + i % 48 for i in range(300)] + [64, 100, 200, block - 1, block,
                                                 block + 1, 300]
    rng = random.Random(8)
    for index, n in enumerate(sizes):
        state = _seeded_ring_state(rng, n, index)
        blocked = bethe_residuals(state)
        assert np.array_equal(blocked, _loop_bethe_residuals(state)), (index, n)
        assert blocked.max() <= 1e-9, (index, n)


@pytest.mark.parametrize("solver", [solve_bethe, solve_lieb_liniger])
def test_residuals_at_n1024(solver):
    # N / RESIDUAL_BLOCK_ROWS row blocks; lam = c = 1 at density 1 (measured 6.3e-13)
    n = 1024
    state = solver(n, float(n), 1.0, tol=1e-11)
    tracemalloc.start()
    try:
        residuals = bethe_residuals(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residuals.max() <= 1e-11
    # the temporaries stay below a single N x N complex matrix
    assert peak < n * n * np.dtype(complex).itemsize
    assert np.array_equal(residuals, _loop_bethe_residuals(state))


def _dense_newton_reference(I, L, delta, theta, theta_prime, tol, max_iter):
    # the log-form Newton iteration with N x N temporaries and a dense LU
    # solve on every step: the reference that the solver must equal bit for
    # bit up to DIRECT_SOLVE_MAX and match to rounding above it.  Returns the
    # roots and the number of Newton steps taken
    k = (2.0 * math.pi * I + delta) / L

    def residual(kv):
        d = kv[:, None] - kv[None, :]
        return kv * L - 2.0 * math.pi * I - delta + theta(d).sum(axis=1)

    f = residual(k)
    for steps in range(max_iter):
        if np.max(np.abs(f)) <= tol:
            return k, steps
        n = len(k)
        a = theta_prime(k[:, None] - k[None, :])
        np.fill_diagonal(a, 0.0)
        jac = -a
        jac[np.diag_indices(n)] += L + a.sum(axis=1)
        step = np.linalg.solve(jac, -f)
        scale = 1.0
        norm0 = np.max(np.abs(f))
        for _ in range(60):
            trial = k + scale * step
            ftrial = residual(trial)
            if np.max(np.abs(ftrial)) < norm0:
                break
            scale *= 0.5
        else:
            raise ConvergenceError("reference Newton iteration stalled")
        k, f = trial, ftrial
    assert np.max(np.abs(f)) <= tol
    return k, max_iter


def _solve_both_ways(model, n, L, coupling, eta, qn, tol):
    # the dense reference's roots, from the same theta expressions and branch
    # offset as solve_bethe / solve_lieb_liniger, and the library's state
    # within the reference's number of Newton steps (a step solved less
    # accurately would need more and raise ConvergenceError)
    I = np.asarray(qn, dtype=float)
    if model == "fermion":
        delta = eta - (math.pi if n % 2 else 0.0)
        theta = lambda u: 2.0 * np.arctan(coupling * u)
        theta_prime = lambda u: 2.0 * coupling / (1.0 + (coupling * u) ** 2)
        solve = lambda steps: solve_bethe(n, L, coupling, quantum_numbers=qn, eta=eta,
                                          tol=tol, max_iter=steps)
    else:
        delta = eta
        theta = lambda u: 2.0 * np.arctan(u / coupling)
        theta_prime = lambda u: 2.0 * coupling / (coupling * coupling + u * u)
        solve = lambda steps: solve_lieb_liniger(n, L, coupling, eta=eta, quantum_numbers=qn,
                                                 tol=tol, max_iter=steps)
    reference, steps = _dense_newton_reference(I, L, delta, theta, theta_prime, tol, 200)
    return solve(max(steps, 1)), reference


def test_direct_solve_roots_equal_the_dense_reference_bit_for_bit():
    # the default tolerance where the golden records live, 1e-11 above it;
    # sizes around the row block and up to the direct-solve limit
    for n in [*range(1, 9), 63, 64, 65, 127, 128]:
        tol = 1e-13 if n <= 8 else 1e-11
        ground = list(ground_state_quantum_numbers(n))
        excited = ground[:-1] + [ground[-1] + 2.0]
        for model, coupling, eta, qn in itertools.product(
                ("fermion", "boson"), (0.3, 4.0), (0.0, math.pi), (ground, excited)):
            state, reference = _solve_both_ways(model, n, n / 0.7, coupling, eta, qn, tol)
            assert np.array_equal(np.asarray(state.momenta), reference), (model, n, coupling, eta)


@pytest.mark.parametrize("n", [129, 300, 700])
def test_conjugate_gradient_roots_match_the_dense_reference(n):
    # above DIRECT_SOLVE_MAX the Newton step is solved by CG: the roots move
    # by rounding only, in as many Newton steps, and still satisfy the
    # product-form equations
    qn = ground_state_quantum_numbers(n)
    for model, coupling, rho in itertools.product(
            ("fermion", "boson"), np.logspace(-2.0, 1.0, 4), (0.5, 2.0)):
        state, reference = _solve_both_ways(model, n, n / rho, coupling,
                                            parity_rule_eta(n) if model == "fermion" else 0.0,
                                            qn, 1e-11)
        k = np.asarray(state.momenta)
        assert np.max(np.abs(k - reference)) <= 1e-13 * np.max(np.abs(k)), (model, coupling, rho)
        assert bethe_residuals(state).max() <= 1e-9, (model, coupling, rho)


@pytest.mark.parametrize("solver", [solve_bethe, solve_lieb_liniger])
def test_newton_memory_stays_below_one_and_a_half_matrices(solver):
    # the Jacobian is the only N x N array; the residual and the Jacobian
    # fill work in row blocks (the dense iteration peaks at three matrices)
    n = 1024
    tracemalloc.start()
    try:
        solver(n, float(n), 1.0, tol=1e-11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * np.dtype(float).itemsize


def test_excited_block_and_explicit_eta():
    state = solve_bethe(3, 10.0, 1.0, quantum_numbers=[-1.0, 0.0, 2.0], eta=math.pi)
    assert bethe_residuals(state).max() <= 1e-12
    assert state.total_momentum > 0.1


def test_free_limit_spacing():
    # lam -> 0+ is the free model: roots approach 2 pi I_j / L
    state = solve_bethe(3, 10.0, 1e-7)
    free = [2.0 * math.pi * I / 10.0 for I in (-1.0, 0.0, 1.0)]
    assert np.max(np.abs(np.asarray(state.momenta) - free)) < 1e-5


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError, match="attractive"):
        solve_bethe(2, 10.0, -1.0)
    with pytest.raises(ValueError):
        solve_bethe(2, 10.0, 0.0)
    with pytest.raises(ValueError):
        solve_bethe(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        solve_bethe(2, 10.0, 1.0, eta=0.5)
    with pytest.raises(ValueError):
        solve_bethe(2, 10.0, 1.0, quantum_numbers=[0.5, 0.5])
    with pytest.raises(ValueError):
        solve_bethe(2, 10.0, 1.0, quantum_numbers=[0.5, -0.5])
    with pytest.raises(ValueError):
        solve_bethe(2, 10.0, 1.0, quantum_numbers=[-0.5, 0.5, 1.5])
    with pytest.raises(ValueError):
        solve_lieb_liniger(2, 10.0, -2.0)


@pytest.mark.parametrize("call, name", [
    (lambda: solve_bethe(4, math.nan, 1.0), "box length must be finite, got L = nan"),
    (lambda: solve_bethe(4, math.inf, 1.0), "box length must be finite, got L = inf"),
    (lambda: solve_bethe(4, 10.0, math.nan), "lam must be finite, got lam = nan"),
    (lambda: solve_bethe(4, 10.0, math.inf), "lam must be finite, got lam = inf"),
    (lambda: solve_lieb_liniger(4, -math.inf, 1.0), "box length must be finite, got L = -inf"),
    (lambda: solve_lieb_liniger(4, 10.0, math.nan), "c must be finite, got c = nan"),
    (lambda: solve_lieb_liniger(4, 10.0, math.inf), "c must be finite, got c = inf"),
])
def test_solvers_name_a_non_finite_box_or_coupling(call, name):
    # not a Newton failure, and never a state with free roots
    with pytest.raises(ValueError, match=name):
        call()


def test_solver_signals_non_convergence():
    with pytest.raises(ConvergenceError):
        solve_bethe(4, 10.0, 5.0, max_iter=1)


def test_stalled_newton_names_tolerance_norm_and_step():
    # the default tol 1e-13 lies below the float64 floor of the N = 256
    # log-form residual, and the error says so
    with pytest.raises(ConvergenceError) as err:
        solve_bethe(256, 256.0, 1.0)
    message = str(err.value)
    assert "stalled at step" in message
    assert "above tol 1e-13" in message
    assert "eps * max|k L|" in message
    norm = float(message.split("residual norm ")[1].split()[0])
    assert 1e-13 < norm < 1e-12


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solvers_need_a_newton_step(max_iter):
    # a step budget below one is bad input, not non-convergence
    with pytest.raises(ValueError, match=f"max_iter = {max_iter}"):
        solve_bethe(2, 10.0, 1.0, max_iter=max_iter)
    with pytest.raises(ValueError, match=f"max_iter = {max_iter}"):
        solve_lieb_liniger(2, 10.0, 1.0, max_iter=max_iter)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("eta", [0.0, math.pi])
def test_ring_twist_of_the_gaudin_state(n, lam, eta):
    # carrying one particle once round the ring multiplies the fermion state
    # by -exp(i eta): eta = 0 is anti-periodic, eta = pi periodic
    import random
    L = n + 3.0
    wf = gaudin_wavefunction(solve_bethe(n, L, lam, eta=eta).momenta, lam)
    rng = random.Random(n)
    x = sorted(rng.uniform(0.0, L) for _ in range(n))
    moved = [x[0] + L] + x[1:]
    value = eval_wavefunction(wf, x)
    assert abs(value) > 0.1
    twist = -complex(math.cos(eta), math.sin(eta))
    assert abs(eval_wavefunction(wf, moved) - twist * value) <= 1e-12 * abs(value)


# ---------------------------------------------------------------------------
# duality


def test_duality_grid():
    for n in (2, 3, 4, 5, 6):
        for lam in (0.25, 1.0, 4.0):
            report = duality_check(n, 10.0, lam)
            assert report["max_abs_difference"] <= 1e-10
            assert report["eta_follows_parity_rule"]
            assert report["c_dual"] == pytest.approx(1.0 / lam)


def test_duality_wrong_phase_control():
    report = duality_check(3, 10.0, 1.0, eta=0.0)
    assert not report["eta_follows_parity_rule"]
    assert report["max_abs_difference"] > 1e-2


def test_duality_rejects_attractive():
    with pytest.raises(ValueError):
        duality_check(3, 10.0, -1.0)


# ---------------------------------------------------------------------------
# thermodynamic scan


def test_ground_state_scan_increments_shrink():
    rows = ground_state_scan(1.0, 1.0, [4, 8, 16])
    densities = [r["energy_density"] for r in rows]
    increments = [abs(b - a) for a, b in zip(densities, densities[1:])]
    assert increments[1] < increments[0]
    assert rows[0]["box_length"] == 4.0


def test_ground_state_scan_validates_input():
    with pytest.raises(ValueError):
        ground_state_scan(1.0, 1.0, [8, 4])
    with pytest.raises(ValueError):
        ground_state_scan(1.0, 1.0, [4, 4])
    with pytest.raises(ValueError):
        ground_state_scan(-1.0, 1.0, [4, 8])


def test_ground_state_scan_needs_a_size():
    with pytest.raises(ValueError, match="sizes"):
        ground_state_scan(1.0, 1.0, [])


def test_single_particle_ground_state_has_zero_energy():
    rows = ground_state_scan(1.0, 1.0, [1])
    assert rows[0]["energy_density"] == pytest.approx(0.0, abs=1e-26)
