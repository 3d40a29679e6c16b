"""Gaudin eigenfunctions, ring quantization, duality, and the residual scans."""

import cmath
import functools
import itertools
import json
import math
import os
import random
import re
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momgas import bethe, gaudin
from momgas.bethe import (
    RESIDUAL_BLOCK_ROWS, ConvergenceError, bethe_residuals, duality_check,
    ground_state_quantum_numbers, ground_state_scan, parity_rule_eta, solve_bethe,
    solve_lieb_liniger,
)
from momgas.gaudin import (
    MAX_PARTICLES_ENUMERATED, BetheWavefunction, eval_wavefunction, gaudin_residual_scan,
    gaudin_wavefunction, schrodinger_residual,
)
from momgas.twobody import bc_residual
from momgas.yang_baxter import (
    GaussianRational, check_unitarity, delta_control_defect, perm_sign, sign_projection, yang_op,
    yb_defect,
)
from test_twobody import _mutant


# ---------------------------------------------------------------------------
# amplitudes: two N! tables, each keyed by the permutations P of range(N) in
# one-line notation (P[j] is the index of the momentum in slot j)


def _raw_amplitudes(momenta, lam):
    # the Gaudin formula itself, A_P = sgn(P) prod_{l<j} (i lam (k_Pj - k_Pl) + 1),
    # with sgn(P) = prod_{l<j} sgn(P_j - P_l) folded into the pair factors:
    # each inverted pair's factor is negated
    k = [float(v) for v in momenta]
    table = {}
    for p in itertools.permutations(range(len(k))):
        a = 1 + 0j
        for pl, pj in itertools.combinations(p, 2):
            factor = 1j * lam * (k[pj] - k[pl]) + 1.0
            a *= factor if pl < pj else -factor
        table[p] = a
    return table


@functools.lru_cache(maxsize=4)
def _ratio_table(pair_ratios):
    # A_P / A_id = prod_{l<j} g[P_l][P_j] from a state's pair ratios
    return {p: math.prod((pair_ratios[a][b] for a, b in itertools.combinations(p, 2)),
                         start=1 + 0j)
            for p in itertools.permutations(range(len(pair_ratios)))}


def test_single_particle_amplitude_is_one():
    assert _ratio_table(gaudin_wavefunction([1.5], 2.0).pair_ratios) == {(0,): 1.0 + 0j}


def test_two_particle_amplitudes_frozen():
    amps = _raw_amplitudes([0.0, 1.0], 1.0)
    assert amps[(0, 1)] == 1.0 + 1.0j
    assert amps[(1, 0)] == -1.0 + 1.0j
    assert gaudin_wavefunction([0, 1], 1).pair_ratios[1][0] == 1j


def test_free_limit_reduces_to_slater_signs():
    # at lam = 0 every g below the diagonal is -1, so A_P / A_id = sgn(P)
    amps = _ratio_table(gaudin_wavefunction([0.4, 1.9, 2.6], 0.0).pair_ratios)
    for p, a in amps.items():
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        assert a == complex(sign)


def test_amplitudes_reject_degenerate_momenta():
    with pytest.raises(ValueError):
        gaudin_wavefunction([1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        gaudin_wavefunction([], 0.5)
    with pytest.raises(ValueError):
        gaudin_wavefunction(list(range(MAX_PARTICLES_ENUMERATED + 1)), 0.5)


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
    amps = _ratio_table(gaudin_wavefunction(k, lam).pair_ratios)
    for p in itertools.permutations(range(n)):
        for i in range(n - 1):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            u = k[p[i + 1]] - k[p[i]]
            ratio = amps[p] / amps[tuple(q)]
            target = (1j * u + 1.0 / lam) / (1j * u - 1.0 / lam)
            assert abs(ratio - target) < 1e-12
            assert abs(abs(ratio) - 1.0) < 1e-12


def test_adjacent_transposition_ratio_is_the_yang_operator_on_fermions():
    # the same ratio from the exact algebra: the fermion-sector action of
    # Y_{i+1}(u), at rational momenta so u enters yang_op exactly
    k = (Fraction(0), Fraction(3, 7), Fraction(1), Fraction(9, 4))
    lam = Fraction(5, 3)
    amps = _ratio_table(gaudin_wavefunction(k, float(lam)).pair_ratios)
    for p in itertools.permutations(range(4)):
        for i in range(3):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            action = sign_projection(yang_op(i + 1, k[p[i + 1]] - k[p[i]], lam, 4))
            assert abs(amps[p] / amps[tuple(q)] - complex(action.re, action.im)) <= 1e-15
    assert sign_projection(yang_op(1, Fraction(3, 7), lam, 3)) == GaussianRational(
        Fraction(-12, 37), Fraction(-35, 37))


def test_normalized_amplitudes_are_unimodular():
    amps = _ratio_table(gaudin_wavefunction([-2.1, 0.3, 1.7], 7.5).pair_ratios)
    for a in amps.values():
        assert abs(abs(a) - 1.0) < 1e-14
    assert amps[(0, 1, 2)] == 1.0 + 0j
    raw = _raw_amplitudes([-2.1, 0.3, 1.7], 7.5)
    ratios = {p: raw[p] / amps[p] for p in amps}
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


def test_eval_validates_input():
    wf = gaudin_wavefunction([-1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        eval_wavefunction(wf, [0.5, 0.5])
    with pytest.raises(ValueError):
        eval_wavefunction(wf, [0.5])


def test_eval_names_a_non_finite_coordinate():
    wf = gaudin_wavefunction([-1.0, 0.2, 1.0], 1.0)
    with pytest.raises(ValueError, match="coordinate 0 is not finite: nan"):
        eval_wavefunction(wf, [math.nan, 0.5, 0.9])


def test_schrodinger_residual_names_a_non_finite_coordinate():
    wf = gaudin_wavefunction([-1.0, 0.2, 1.0], 1.0)
    with pytest.raises(ValueError, match="coordinate 1 is not finite: inf"):
        schrodinger_residual(wf, [0.1, math.inf, 0.9])


@pytest.mark.parametrize("build", [gaudin_wavefunction])
def test_gaudin_states_name_a_non_finite_momentum(build):
    # a nan momentum makes nan pair factors, which is not lam's fault
    with pytest.raises(ValueError, match="momentum 0 is not finite: nan"):
        build([math.nan, 1.0], 0.5)


def test_wavefunction_requires_full_amplitude_cover():
    # the pair ratios cover every ordered pair: an N x N matrix
    with pytest.raises(ValueError, match=r"N x N matrix with N = 2, got rows of lengths \[2\]"):
        BetheWavefunction(momenta=(0.0, 1.0), pair_ratios=[[1, 1]])
    with pytest.raises(ValueError, match=r"N = 3, got rows of lengths \[3, 2, 3\]"):
        BetheWavefunction(momenta=(0.0, 1.0, 2.5), pair_ratios=[[1, 1, 1], [-1, 1], [-1, -1, 1]])


def test_wavefunction_pins_the_pair_matrix_on_and_above_the_diagonal():
    # g[a][b] for a <= b is 1 by definition; the recursion never reads it
    with pytest.raises(ValueError, match=r"g\[0\]\[1\] on or above the diagonal must be 1"):
        BetheWavefunction(momenta=(0.0, 1.0), pair_ratios=[[1, -1], [-1, 1]])
    with pytest.raises(ValueError, match=r"g\[1\]\[0\] is not unimodular"):
        BetheWavefunction(momenta=(0.0, 1.0), pair_ratios=[[1, 1], [2, 1]])


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.inf)])
def test_wavefunction_names_a_non_finite_amplitude(bad):
    g = [[1, 1, 1], [-1, 1, 1], [bad, -1, 1]]
    with pytest.raises(ValueError, match=r"pair ratio g\[2\]\[0\] is not finite"):
        BetheWavefunction(momenta=(0.0, 1.0, 2.5), pair_ratios=g)


@pytest.mark.parametrize("lam, text", [(1e308, "lam = 1e+308, N = 3: lam * (k_b - k_a) overflows"),
                                       (math.nan, "lam = nan, N = 3"),
                                       (math.inf, "lam = inf, N = 3")])
def test_gaudin_wavefunction_names_lam_when_amplitudes_overflow(lam, text):
    # a lam that is not finite, or lam * (k_b - k_a) beyond float64, would
    # leave nan pair ratios for bc_residual and the probe
    with pytest.raises(ValueError, match=re.escape(text)):
        gaudin_wavefunction([0.0, 1.0, 2.5], lam)


def test_gaudin_wavefunction_is_finite_at_lam_1e200():
    # the raw products overflow float64 at lam = 1e200, the pair ratios do
    # not: g[a][b] -> 1 below the diagonal, the hard-core limit A_P = 1
    k, x = [0.0, 1.0, 2.5], [0.3, 1.1, 2.9]
    assert not all(cmath.isfinite(a) for a in _raw_amplitudes(k, 1e200).values())
    wf = gaudin_wavefunction(k, 1e200)
    hard_core = BetheWavefunction(momenta=k, pair_ratios=[[1] * 3] * 3)
    assert all(abs(v - 1.0) <= 1e-199 for row in wf.pair_ratios for v in row)
    assert eval_wavefunction(wf, x) == pytest.approx(eval_wavefunction(hard_core, x), rel=1e-15)


@pytest.mark.parametrize("wf", [gaudin_wavefunction([-1.3, 0.2, 1.9], 0.8), _mutant()],
                         ids=["gaudin", "mutant"])
@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (2, 0)])
def test_contact_limits_match_the_wavefunction_off_the_contact(wf, pair):
    # the limits times exp(i K x_j) are eval_wavefunction and its central
    # difference along d_j - d_k at x_j - x_k = +-2 delta; the step h keeps
    # every difference point on one side of the contact.  The - side is
    # built by antisymmetry, -value with the same slope, as bc_residual
    # reads it, and checked against the independent evaluation
    j, k = pair
    x = [1.1, 2.4, 0.3]
    x[k] = x[j]
    value, slope = wf.contact_limits(x, pair)
    factor = cmath.exp(1j * sum(wf.momenta) * x[j])
    delta, h = 2e-6, 1e-7

    def chi(shift):
        y = list(x)
        y[j] += shift
        y[k] -= shift
        return eval_wavefunction(wf, y)

    scale = abs(value) + abs(slope)
    for side in (+1, -1):
        s = side * delta
        assert abs(chi(s) - side * value * factor) <= 1e-5 * scale
        assert abs((chi(s + h) - chi(s - h)) / (2 * h) - slope * factor) <= 1e-4 * scale


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


@pytest.mark.parametrize("n, seed", [(4, 3883373145), (4, 2270329055), (4, 519544316),
                                     (5, 3680362786)])
def test_value_jump_defect_of_benchmark_draws_stays_under_a_quarter_cap(n, seed):
    # gaudin benchmark draws whose value-jump rounding can reach the
    # workload's cap (perfbench/workloads.py contact_cap) when the float
    # sums are less careful than one wedge sum per contact
    cap = 1e-12 * max(1.0, math.factorial(n) / 24.0)
    (row,) = gaudin_residual_scan(n, 1, seed)
    assert row["max_value_jump_defect"] <= 0.25 * cap


@pytest.mark.parametrize("draws", [0, -1])
def test_residual_scan_needs_a_draw(draws):
    with pytest.raises(ValueError, match="draws"):
        gaudin_residual_scan(3, draws)


@pytest.mark.parametrize("n, draws, text", [(3, 1.5, "draws = 1.5"), (2.5, 1, "n = 2.5")])
def test_residual_scan_names_a_count_that_is_not_an_integer(n, draws, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        gaudin_residual_scan(n, draws)


def _mp_wedge_values(wf, points):
    # reference: the wedge sum sum_P A_P exp(i sum_j k_Pj y_j) of wf at each
    # ordered point y, term by term in the current mpmath precision, with
    # A_P = prod_{l<j} g[P_l][P_j] formed from the pair ratios at that precision
    g = [[mp.mpc(v) for v in row] for row in wf.pair_ratios]
    k = [mp.mpf(v) for v in wf.momenta]
    table = []
    for p in itertools.permutations(range(wf.n)):
        a = mp.mpc(1)
        for l in range(wf.n):
            for j in range(l + 1, wf.n):
                a *= g[p[l]][p[j]]
        table.append((a, [k[m] for m in p]))
    values = []
    for y in points:
        total = mp.mpc(0)
        for a, row in table:
            phase = mp.fsum(kv * yv for kv, yv in zip(row, y))
            total += a * mp.exp(mp.mpc(0, 1) * phase)
        values.append(total)
    return values


def _pointwise_residual(wf, x, dps):
    # reference: the central second differences of schrodinger_residual's
    # docstring, from the wedge sum at the 2N + 1 points y0 and y0 +- h e_s
    with mp.workdps(dps):
        hh = mp.mpf(1e-6)
        y0 = [mp.mpf(v) for v in sorted(x)]
        points = [y0]
        for slot in range(wf.n):
            for shift in (hh, -hh):
                y = list(y0)
                y[slot] += shift
                points.append(y)
        chi0, *shifted = _mp_wedge_values(wf, points)
        e_tot = mp.fsum(mp.mpf(v) ** 2 for v in wf.momenta)
        num = e_tot * chi0
        denom = abs(e_tot * chi0)
        for slot in range(wf.n):
            d2 = (shifted[2 * slot] - 2 * chi0 + shifted[2 * slot + 1]) / (hh * hh)
            num += d2
            denom += abs(d2)
        return float(abs(num) / denom)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_sums_the_library_wavefunction(n):
    # the mpmath plane-wave sum behind the reference probe is the function
    # eval_wavefunction evaluates, sgn(P) included; the residual ratio alone
    # cannot tell amplitude sets apart, since any fixed set of coefficients
    # gives a free eigenfunction inside the wedge
    rng = random.Random(100 + n)
    momenta = [-1.3, 0.2, 1.9, -2.4, 0.9][:n]
    lam = 0.8
    wf = gaudin_wavefunction(momenta, lam)
    x = sorted(rng.uniform(0.0, 5.0) for _ in range(n))
    with mp.workdps(30):
        (probe,) = _mp_wedge_values(wf, [[mp.mpf(v) for v in x]])
    value = eval_wavefunction(wf, x)
    assert abs(complex(probe) - value) <= 1e-12 * abs(value)


def _probe_cases():
    cases = []
    for n in range(2, 7):
        rng = random.Random(200 + n)
        momenta = [-1.3, 0.2, 1.9, -2.4, 0.9, 2.6][:n]
        x = [0.4 + 0.8 * s + rng.uniform(0.0, 0.3) for s in range(n)]
        wf = gaudin_wavefunction(momenta, rng.uniform(0.1, 10.0))
        cases.append(pytest.param(wf, x, id=f"gaudin-n{n}"))
    cases.append(pytest.param(_mutant(), [0.2, 1.4, 3.1], id="mutant"))
    return cases


@pytest.mark.parametrize("wf, x", _probe_cases())
def test_probe_matches_the_pointwise_formula_at_60_digits(wf, x):
    # the one-pass slot sums rearrange the central differences exactly; at
    # 40 digits they give the same float as the 2N + 1 point sums at 60 digits
    reference = _pointwise_residual(wf, x, 60)
    assert schrodinger_residual(wf, x) == reference


# ---------------------------------------------------------------------------
# N! references for the recursion over subsets: the wedge sum over the
# amplitude table, and the probe over the table in fixed point


def _terms(wf, y):
    # the N! plane waves A_P exp(i k_P . y) of the wedge formula at ordered
    # y, and the momenta of each slot, one row per permutation
    table = _ratio_table(wf.pair_ratios)
    perms = list(table)
    amps = np.array(list(table.values()))
    kmat = np.asarray(wf.momenta)[np.array(perms)]
    return amps * np.exp(1j * (kmat @ y)), kmat


def _table_contact_limits(wf, x, pair):
    # value and slope of `BetheWavefunction.contact_limits` from one N! sum
    j, k = pair
    x = list(x)
    x[k] = x[j]
    order = sorted(range(wf.n), key=lambda m: (x[m], m == j))
    r = order.index(k)
    terms, kmat = _terms(wf, np.array([x[m] - x[j] for m in order]))
    s = perm_sign(order)
    return s * terms.sum(), s * (1j * (kmat[:, r + 1] - kmat[:, r]) * terms).sum()


def _table_probe(wf, x):
    # `schrodinger_residual` as one pass over the N! amplitude table: each
    # term's N slot phases multiplied in fixed point and added to W[s][m]
    h, n = 1e-6, wf.n
    with mp.workdps(40):
        hh = mp.mpf(h)
        k = [mp.mpf(float(v)) for v in wf.momenta]
        y = sorted(x)
        frac = mp.mp.prec + 64
        phase = [[(int(mp.ldexp(z.real, frac)), int(mp.ldexp(z.imag, frac)))
                  for z in (mp.exp(mp.mpc(0, km * ys)) for ys in y)] for km in k]
        w_re = [[0] * n for _ in range(n)]
        w_im = [[0] * n for _ in range(n)]
        for p, a in _ratio_table(wf.pair_ratios).items():
            re, im = int(math.ldexp(a.real, frac)), int(math.ldexp(a.imag, frac))
            for s, m in enumerate(p):
                pr, pi = phase[m][s]
                re, im = (re * pr - im * pi) >> frac, (re * pi + im * pr) >> frac
            for s, m in enumerate(p):
                w_re[s][m] += re
                w_im[s][m] += im

        def to_mpc(re, im):
            return mp.mpc(mp.mpf((re, -frac)), mp.mpf((im, -frac)))

        chi0 = to_mpc(sum(w_re[0]), sum(w_im[0]))
        d2_factor = [-4 * mp.sin(km * hh / 2) ** 2 / (hh * hh) for km in k]
        num = mp.fsum(km ** 2 for km in k) * chi0
        denom = abs(num)
        for row_re, row_im in zip(w_re, w_im):
            d2 = mp.fsum(to_mpc(re, im) * c for re, im, c in zip(row_re, row_im, d2_factor))
            num += d2
            denom += abs(d2)
        return float(abs(num) / denom)


@pytest.mark.parametrize("n", range(1, MAX_PARTICLES_ENUMERATED + 1))
def test_recursion_matches_the_n_factorial_references(n):
    # values, contact slopes and the probe against the N! sums above.  The
    # N! terms are unimodular; in either float sum each passes through at
    # most N^2 roundings of relative size 2 eps (pair products, phases,
    # the recursion's levels of sums), and the reference's phase argument
    # sum_j k_Pj y_j carries up to N^2 eps max|k| max|y|, so the sums differ
    # by at most N^2 (4 + 2 max|k| max|y|) eps N!, times 2 max|k| for the
    # slope (k_{P_{r+1}} - k_{P_r}); measured below 3 eps N!.  The probe's
    # table and recursion form the amplitudes by different roundings of
    # the same pair ratios, which the cancellation in its numerator
    # magnified to at most 6e-15 relative over 20 draws per N = 1..6
    rng = random.Random(300 + n)
    eps = np.finfo(float).eps
    for _ in range(3 if n <= 6 else 1):
        k = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        wf = gaudin_wavefunction(k, rng.uniform(0.1, 10.0))
        x = [0.4 + 0.7 * s + rng.uniform(0.0, 0.3) for s in range(n)]
        rng.shuffle(x)
        bound = n * n * (4 + 2 * 3.0 * max(x)) * eps * math.factorial(n)
        order = sorted(range(n), key=x.__getitem__)
        terms, _ = _terms(wf, np.array(sorted(x)))
        assert abs(eval_wavefunction(wf, x) - perm_sign(order) * terms.sum()) <= bound
        for r in range(n - 1):
            pair = (order[r + 1], order[r])
            vp, slope = wf.contact_limits(x, pair)
            value, ref_slope = _table_contact_limits(wf, x, pair)
            assert abs(vp - value) <= bound
            assert abs(slope - ref_slope) <= bound * 2 * max(map(abs, k))
        probe, ref = schrodinger_residual(wf, x), _table_probe(wf, x)
        assert abs(probe - ref) <= 1e-12 * ref


def test_pair_ratios_match_the_raw_amplitudes_over_the_identity():
    # A_P / A_id = prod_{l<j} g[P_l][P_j] exactly; in float, with u = eps/2,
    # theta = lam (k_b - k_a) carries 2u and so does each raw pair factor
    # 1 + i theta (normwise, |theta| / |1 + i theta| <= 1), as does
    # g = -(1 + i theta) / (1 - i theta) (|dg/dtheta| theta <= 1), each of
    # the M = N(N - 1)/2 complex products at most sqrt(5) u (Brent,
    # Percival and Zimmermann, Math. Comp. 76, 1469 (2007)) and each complex
    # division at most 4u.  So raw_P and raw_id are within M (2 + sqrt(5)) u
    # each, their quotient within 2 M (2 + sqrt(5)) u + 4u, the product of
    # pair ratios within M (6 + sqrt(5)) u, and the two differ by less than
    # (17 M + 4) u on unimodular values
    rng = random.Random(17)
    for n in range(1, MAX_PARTICLES_ENUMERATED + 1):
        for _ in range(4 if n <= 6 else 1):
            k = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            lam = rng.uniform(0.1, 10.0)
            raw = _raw_amplitudes(k, lam)
            a_id = raw[tuple(range(n))]
            bound = (17 * n * (n - 1) / 2 + 4) * np.finfo(float).eps / 2
            amps = _ratio_table(gaudin_wavefunction(k, lam).pair_ratios)
            assert max(abs(amps[p] - a / a_id) for p, a in raw.items()) <= bound


def test_probe_forms_the_terms_without_mpmath_products(monkeypatch):
    # the N! N term products and the O(N^2) tail both run on integers (the
    # term-by-term mpmath sum makes N! N + N^2 mpc products)
    n = 6
    cls = type(mp.mpc(1))
    calls = []
    original = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    wf = gaudin_wavefunction([-1.3, 0.2, 1.9, -2.4, 0.9, 2.6], 0.8)
    schrodinger_residual(wf, [0.4 + 0.8 * s for s in range(n)])
    assert len(calls) == 0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_probe_makes_one_exponential_per_momentum_and_slot(n, monkeypatch):
    # N^2 phases exp(i k_m y_s), each one call of mpmath's cos/sin kernel,
    # where the pointwise sum makes N! (2N + 1) exponentials
    calls = []
    original = mp.libmp.mpf_cos_sin

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mp.libmp, "mpf_cos_sin", counted)
    monkeypatch.setattr(mp, "exp", None)
    wf = gaudin_wavefunction([-1.3, 0.2, 1.9, -2.4, 0.9, 2.6][:n], 0.8)
    schrodinger_residual(wf, [0.4 + 0.8 * s for s in range(n)])
    assert len(calls) == n * n


def test_fixed_point_phases_are_the_truncated_mpmath_exponentials():
    # cos and sin of the exact product k y at the working precision, rounded
    # to nearest, are the components of mp.exp(mp.mpc(0, k y)) bit for bit,
    # here also at |k y| up to 1e15 where the argument reduction needs many
    # extra bits
    rng = random.Random(40)
    prec = mp.libmp.dps_to_prec(40)
    frac = prec + 64
    pairs = [(rng.uniform(-3.0, 3.0), rng.uniform(0.0, 5.0)) for _ in range(200)]
    pairs += [(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 10.0),
               10.0 ** rng.uniform(0.0, 5.0)) for _ in range(200)]
    pairs += [(1e15, 1.0), (-1e15, 1.0), (3.0, 0.0), (0.0, 2.5)]
    with mp.workprec(prec):
        for km, ys in pairs:
            z = mp.exp(mp.mpc(0, mp.mpf(km) * mp.mpf(ys)))
            expected = (int(mp.ldexp(z.real, frac)), int(mp.ldexp(z.imag, frac)))
            assert gaudin._fixed_phases([km], [ys], prec, frac) == [expected], (km, ys)


def test_schrodinger_residual_returns_a_builtin_float():
    wf = gaudin_wavefunction([-1.3, 0.2, 1.9], 0.8)
    assert type(schrodinger_residual(wf, [0.4, 1.2, 2.1])) is float


@pytest.mark.parametrize("n", [6, 7, MAX_PARTICLES_ENUMERATED])
def test_probe_passes_one_draw_at_large_n(n):
    (row,) = gaudin_residual_scan(n, 1, seed=1)
    assert row["schrodinger_residual"] <= 1e-6


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
    original = gaudin.gaudin_wavefunction

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gaudin, "gaudin_wavefunction", counted)
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
    with pytest.raises(ValueError, match=rf"quantum number {index} is not finite: {text}$"):
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
    # reference that the blocked bethe_residuals must equal bit for bit.
    # Row j's factors come from one array division, which rounds as numpy's
    # scalar division does, and are multiplied from left to right in Python
    # complex, which rounds as numpy's scalar product does, not by the array
    # product that bethe_residuals itself uses
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
        d = k[j] - k
        rhs = prefactor + 0j
        for l, factor in enumerate(((d + 1j * c) / (d - 1j * c)).tolist()):
            if l != j:
                rhs *= factor
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


def _solve_both_ways(model, n, L, coupling, eta, qn, tol, max_iter=None):
    # the dense reference's roots, from the same theta expressions and branch
    # offset as solve_bethe / solve_lieb_liniger, and the library's state
    # within max_iter Newton steps, by default the reference's number (a step
    # solved less accurately would need more and raise ConvergenceError)
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
    return solve(max(steps, 1) if max_iter is None else max_iter), reference


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


@pytest.mark.parametrize("n", [129, 300, 700])
def test_nested_start_roots_lie_within_the_certified_bound_of_the_free_start(n):
    # above DIRECT_SOLVE_MAX Newton starts from the coarse ring's roots, the
    # reference from the free momenta.  Both end at ||F|| <= tol, and every
    # row of the Newton matrix is diagonally dominant by L, so the two root
    # sets lie within 2 tol / L of each other
    tol, L = 1e-11, n / 0.7
    ground = list(ground_state_quantum_numbers(n))
    # a hole in the middle and a particle above the top
    excited = ground[:n // 2] + ground[n // 2 + 1:] + [ground[-1] + 1.0]
    for (model, coupling), eta, qn in itertools.product(
            (("fermion", 2.0), ("boson", 0.5)), (0.0, math.pi), (ground, excited)):
        state, reference = _solve_both_ways(model, n, L, coupling, eta, qn, tol, max_iter=200)
        gap = np.max(np.abs(np.asarray(state.momenta) - reference))
        assert gap <= 2.0 * tol / L, (model, eta, qn is ground, gap * L / tol)


def _caller_ring_steps(n, lam):
    # Newton steps taken in the caller's ring of a solve_bethe at density 1,
    # read as the log-form evaluations of length N less the one at the start
    # (every step evaluates at least one trial)
    calls = []
    log_form = bethe._log_form
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bethe, "_log_form",
                      lambda k, *args: calls.append(len(k)) or log_form(k, *args))
        state = solve_bethe(n, float(n), lam, tol=1e-11)
    return calls.count(n) - 1, state


def test_the_caller_ring_starts_from_the_coarse_ring_roots(monkeypatch):
    # from the free momenta the N = 1024 ring takes 5 steps at lam = 1 and 7
    # at lam = 10; from the coarse ring's interpolated roots it takes 2 and 3
    n = 1024
    for lam, most in ((10.0, 3), (1.0, 2)):
        steps, state = _caller_ring_steps(n, lam)
        assert 1 <= steps <= most, (lam, steps)
        assert bethe_residuals(state).max() <= 1e-9
    # a coarse ring that does not converge leaves the caller the free start
    solve_ring = bethe._newton_log_form

    def failing_coarse_rings(I, *args):
        if len(I) < n:
            raise ConvergenceError("coarse ring")
        return solve_ring(I, *args)

    monkeypatch.setattr(bethe, "_newton_log_form", failing_coarse_rings)
    steps, free_start = _caller_ring_steps(n, 1.0)
    assert steps == 5
    assert np.max(np.abs(np.subtract(free_start.momenta, state.momenta))) <= 2e-11 / n


@pytest.mark.parametrize("n", [1000, 1024])
def test_the_coarse_ring_start_is_close_in_the_bulk_and_at_the_edges(n):
    # the coarse ring's equations sit at the midpoints of equal index
    # blocks, so its sums stand for the fine ones without a shift: the
    # caller ring's first ||F|| is about 0.07 at lam = 1, density 2 (every
    # fourth equation, weighted 4, missed or doubled about one theta per
    # row and started at about 2)
    residuals = []
    log_form = bethe._log_form

    def recorded(k, *args):
        f = log_form(k, *args)
        if len(k) == n:
            residuals.append(np.max(np.abs(f)))
        return f

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bethe, "_log_form", recorded)
        solve_bethe(n, n / 2.0, 1.0, tol=1e-11)
    assert residuals[0] < 0.2


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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_newton_peak_rss_stays_below_one_and_a_half_matrices(fresh_python):
    # the Jacobian lives on pages mapped for the solve, which tracemalloc
    # does not see: the process's own high-water mark counts them (VmHWM,
    # as ru_maxrss carries the parent's peak over fork and exec)
    n = 2048
    code = ("import re\n"
            "from momgas.bethe import solve_bethe\n"
            "def peak():\n"
            "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
            "solve_bethe(16, 16.0, 1.0)\n"
            "before = peak()\n"
            f"solve_bethe({n}, {n}.0, 1.0, tol=1e-11)\n"
            "print(1024 * (peak() - before))\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert n * n * 8 <= int(proc.stdout) < 1.5 * n * n * 8


# the row-block passes are split across the CPUs the process may run on;
# a process pinned to one CPU runs every row in the calling thread
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_needs_two_cpus = pytest.mark.skipif(_CPUS < 2, reason="needs two CPUs to compare a split pass")

_OUTCOME = """
import hashlib, json, math, os, warnings
from momgas import bethe
from momgas.bethe import bethe_residuals, ground_state_quantum_numbers, solve_bethe, solve_lieb_liniger

def outcome(solve, *args, **kwargs):
    # the state's repr and the bytes of its residuals, or the error's text
    try:
        state = solve(*args, **kwargs)
        residuals = bethe_residuals(state)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    return repr(state) + " " + hashlib.sha256(residuals.tobytes()).hexdigest()
"""


def _split_and_one_cpu(fresh_python, cases):
    # the outcomes of `cases` (code that fills OUTCOMES) in a fresh process on
    # every CPU of this one and in a fresh process pinned to a single CPU
    # before momgas is imported.  Both run BLAS on one thread: the CG step's
    # matrix-vector product is BLAS, and OpenBLAS's own thread count changes
    # its rounding at some N (N = 1500 among them), split or not
    runs = []
    for pin in ("", "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"):
        proc = fresh_python("import os\nos.environ['OPENBLAS_NUM_THREADS'] = '1'\n" + pin
                            + _OUTCOME + cases
                            + "print(json.dumps([len(bethe._row_groups(1024)), OUTCOMES]))")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    (groups, split), (one_group, one_cpu) = runs
    assert (groups, one_group) == (min(_CPUS, 1024 // RESIDUAL_BLOCK_ROWS), 1)
    return split, one_cpu


@_needs_two_cpus
def test_a_split_pass_gives_the_bits_of_one_cpu(fresh_python):
    # both models and eta, a ground and an excited block, at and above
    # SPLIT_MIN_BLOCKS row blocks
    assert 512 // RESIDUAL_BLOCK_ROWS >= bethe.SPLIT_MIN_BLOCKS
    split, one_cpu = _split_and_one_cpu(fresh_python, """
OUTCOMES = []
for n in (512, 1024, 1500):
    ground = list(ground_state_quantum_numbers(n))
    excited = ground[:-1] + [ground[-1] + 2.0]
    for eta in (0.0, math.pi):
        for qn in (ground, excited):
            OUTCOMES.append(outcome(solve_bethe, n, n / 0.7, 0.8, quantum_numbers=qn, eta=eta,
                                    tol=1e-11))
            OUTCOMES.append(outcome(solve_lieb_liniger, n, n / 0.7, 1.25, eta=eta,
                                    quantum_numbers=qn, tol=1e-11))
""")
    assert len(split) == 24 and all(o.startswith("BetheState(") for o in split), split
    assert split == one_cpu


@_needs_two_cpus
def test_worker_threads_keep_the_float_range_policy(fresh_python):
    # theta' overflows ((lam u)^2) or divides by zero (c^2 underflows on the
    # diagonal) on the first step; numpy's error state is per thread, so a
    # worker that did not enter its own would raise the warning here
    split, one_cpu = _split_and_one_cpu(fresh_python, """
with warnings.catch_warnings():
    warnings.simplefilter("error")
    OUTCOMES = [outcome(solve_bethe, 600, 600.0, 1e200, tol=1e-11),
                outcome(solve_lieb_liniger, 600, 600.0, 1e-200, tol=1e-11)]
""")
    assert not any("Warning" in o for o in split), split
    assert split == one_cpu


def test_program_threads_that_solve_at_once_share_the_pool():
    # six program threads at once, switching often, each sending split
    # passes to the same workers: every one gets its own roots and
    # residuals, as when solving alone
    def outcome(n, lam):
        state = solve_bethe(n, float(n), lam, tol=1e-11)
        return state.momenta, bethe_residuals(state).tobytes()

    cases = [(n, lam) for n in (520, 600, 700) for lam in (0.3, 2.0)]
    alone = [outcome(*case) for case in cases]
    results = {}

    def solve(index):
        results[index] = outcome(*cases[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(index,)) for index in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[index] for index in range(len(cases))] == alone


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_solves_on_threads_of_its_own(fresh_python):
    # the child inherits the pool object but not its threads; it must start
    # its own and finish, not wait on the parent's
    code = """
import os, sys, threading, time, warnings
from momgas import bethe
warnings.simplefilter("ignore", DeprecationWarning)   # fork() with threads running
first = repr(bethe.solve_bethe(1024, 1024.0, 1.0, tol=1e-11))
pid = os.fork()
if pid == 0:
    again = repr(bethe.solve_bethe(1024, 1024.0, 1.0, tol=1e-11))
    workers = [t for t in threading.enumerate() if t.name.startswith("momgas-rows")]
    own = len(workers) == len(bethe._row_groups(1024)) - 1
    os._exit(0 if again == first and own else 1)
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(print(os.waitstatus_to_exitcode(status)))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
print("child hung")
"""
    proc = fresh_python(code)
    assert (proc.returncode, proc.stdout.strip()) == (0, "0"), proc.stderr


class _GroupError(Exception):
    pass


@pytest.mark.parametrize("failing", [(), (1,), (0, 1), (1, 2)])
def test_a_split_pass_waits_for_every_group_and_raises_the_lowest_error(failing):
    # a failing group g raises its own error after 0.01 (3 - g) s, so higher
    # groups fail first; any other group sleeps 0.05 (g + 1) s, so the
    # calling thread's group 0 is done first, and then records that it
    # finished.  The pass returns or raises only after all groups have
    # finished, and raises the error of the lowest failing group
    groups = [range(64 * g, 64 * (g + 1)) for g in range(3)]
    finished = []

    def work(g, rows):
        assert rows == groups[g]
        if g in failing:
            time.sleep(0.01 * (3 - g))
            raise _GroupError(g)
        time.sleep(0.05 * (g + 1))
        finished.append(g)

    if failing:
        with pytest.raises(_GroupError) as error:
            bethe._on_groups(groups, work)
        assert error.value.args == (failing[0],)
    else:
        bethe._on_groups(groups, work)
    assert sorted(finished) == [g for g in range(3) if g not in failing]


def test_a_first_pass_of_few_groups_caps_no_later_pass(monkeypatch):
    # on 16 CPUs an N = 512 pass (8 groups) makes the pool, and an N = 4096
    # pass then runs 16 groups that finish only if all 16 run at once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    monkeypatch.setattr(bethe, "_pools", {})
    barrier = threading.Barrier(16, timeout=10)
    try:
        bethe._on_groups(bethe._row_groups(512), lambda g, rows: None)
        groups = bethe._row_groups(4096)
        assert len(groups) == 16
        bethe._on_groups(groups, lambda g, rows: barrier.wait())
    finally:
        for pool in bethe._pools.values():
            pool.shutdown()


def test_excited_block_and_explicit_eta():
    state = solve_bethe(3, 10.0, 1.0, quantum_numbers=[-1.0, 0.0, 2.0], eta=math.pi)
    assert bethe_residuals(state).max() <= 1e-12
    assert state.total_momentum > 0.1


def test_free_limit_spacing():
    # lam -> 0+ is the free model: roots approach 2 pi I_j / L
    state = solve_bethe(3, 10.0, 1e-7)
    free = [2.0 * math.pi * I / 10.0 for I in (-1.0, 0.0, 1.0)]
    assert np.max(np.abs(np.asarray(state.momenta) - free)) < 1e-5


_WEAK_LAMS = (0.01, 0.005, 0.0025)


def _weak_coupling_roots(qn, L, delta, lam):
    # theta(u) = 2 lam u + O(lam^3) makes the log form linear,
    # k_j (L + 2 lam N) = 2 pi I_j + delta + 2 lam P, and summing the log
    # form over j (theta is odd) gives P = (2 pi sum I + N delta) / L exactly
    I = np.asarray(qn, dtype=float)
    n = len(I)
    total = (2.0 * math.pi * I.sum() + n * delta) / L
    return (2.0 * math.pi * I + delta + 2.0 * lam * total) / (L + 2.0 * lam * n)


def _is_third_order(roots_at, qn, L, delta):
    # the error of the linear form falls by 2^3 per halving of lam (measured
    # 2^2.94, then 2^2.97, at every N, state and eta below)
    errors = [np.max(np.abs(roots_at(lam) - _weak_coupling_roots(qn, L, delta, lam)))
              for lam in _WEAK_LAMS]
    return all(abs(math.log2(a / b) - 3.0) <= 0.15 for a, b in zip(errors, errors[1:]))


def _cubic_coefficient(qn, L, delta):
    # c_j = (2/(3L)) sum_l (k0_j - k0_l)^3, k0 = (2 pi I + delta)/L: the lam^3
    # term of the roots past the linearised form, derived in
    # test_weak_coupling_cubic_term_is_derived_from_the_log_form
    k0 = (2.0 * math.pi * np.asarray(qn, dtype=float) + delta) / L
    return 2.0 / (3.0 * L) * ((k0[:, None] - k0[None, :]) ** 3).sum(axis=1)


def _has_cubic_term(roots_at, qn, L, delta):
    # the misfit of (k - k1)/lam^3 against c is O(lam), so it halves with lam
    # (measured 0.077, 0.039, 0.020 at N = L = 4; ratios 1.96 to 2.03 at
    # every N, state and eta below)
    c = _cubic_coefficient(qn, L, delta)
    misfits = [np.max(np.abs((roots_at(lam) - _weak_coupling_roots(qn, L, delta, lam)) / lam ** 3
                             - c)) / np.max(np.abs(c)) for lam in _WEAK_LAMS]
    return all(abs(a / b - 2.0) <= 0.2 for a, b in zip(misfits, misfits[1:]))


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_weak_coupling_roots_follow_the_linearised_log_form(n):
    # an oracle that shares no code with theta, Newton or the product form
    ground = list(ground_state_quantum_numbers(n))
    excited = [ground[0] - 1.0, *ground[1:-1], ground[-1] + 3.0]
    for qn, eta in itertools.product((ground, excited), (0.0, math.pi)):
        delta = eta - parity_rule_eta(n)
        roots = functools.cache(lambda lam: np.asarray(solve_bethe(
            n, float(n), lam, quantum_numbers=qn, eta=eta, tol=1e-11).momenta))
        assert _is_third_order(roots, qn, float(n), delta), (n, qn == ground, eta)
        assert _has_cubic_term(roots, qn, float(n), delta), (n, qn == ground, eta)
        # the other eta's branch offset fails the checks
        other = (math.pi - eta) - parity_rule_eta(n)
        assert not _is_third_order(roots, qn, float(n), other), (n, qn == ground, eta)
        assert not _has_cubic_term(roots, qn, float(n), other), (n, qn == ground, eta)
        if n > 64:
            continue
        # and so do roots of theta scaled by 1 + 1e-3, from the dense reference
        s = 1.0 + 1e-3
        mutant = functools.cache(lambda lam: _dense_newton_reference(
            np.asarray(qn, dtype=float), float(n), delta,
            lambda u: s * 2.0 * np.arctan(lam * u),
            lambda u: s * 2.0 * lam / (1.0 + (lam * u) ** 2), 1e-11, 200)[0])
        assert not _is_third_order(mutant, qn, float(n), delta), (n, qn == ground, eta)
        assert not _has_cubic_term(mutant, qn, float(n), delta), (n, qn == ground, eta)


def test_weak_coupling_cubic_term_is_derived_from_the_log_form():
    # k = k0 + lam k1 + lam^2 k2 + lam^3 k3 solves the log form
    # (k_j - k0_j) L + sum_l theta(k_j - k_l) = 0 order by order in lam, with
    # theta's series to lam^3, here at N = 4 with symbolic k0 and L.  The
    # linearised roots agree through lam^2 and miss the lam^3 term by c
    import sympy as sp

    n = 4
    lam, L, u = sp.symbols("lambda L u", positive=True)
    k0 = sp.symbols(f"k0:{n}")
    orders = [sp.symbols(f"k{m}_0:{n}") for m in (1, 2, 3)]
    theta = sp.series(2 * sp.atan(lam * u), lam, 0, 4).removeO()
    k = [k0[j] + sum(lam ** m * orders[m - 1][j] for m in (1, 2, 3)) for j in range(n)]
    log_form = [sp.expand((k[j] - k0[j]) * L + sum(theta.subs(u, k[j] - k[l]) for l in range(n)))
                for j in range(n)]
    terms = {}
    for m in (1, 2, 3):
        terms.update(sp.solve([f.coeff(lam, m).subs(terms) for f in log_form], orders[m - 1]))
    for j in range(n):
        # _weak_coupling_roots, where P = sum_l k0_l
        k1 = sp.series((L * k0[j] + 2 * lam * sum(k0)) / (L + 2 * lam * n), lam, 0, 4).removeO()
        assert all(sp.expand(k1.coeff(lam, m) - terms[orders[m - 1][j]]) == 0 for m in (1, 2))
        c = terms[orders[2][j]] - k1.coeff(lam, 3)
        assert sp.expand(c - sp.Rational(2, 3) / L * sum((k0[j] - k0[l]) ** 3
                                                          for l in range(n))) == 0


_STRONG_LAMS = (1e4, 1e5, 1e6)


def _hermite_zeros(n):
    # the zeros of the physicists' Hermite polynomial H_N: the eigenvalues of
    # its Jacobi matrix, zero diagonal and off-diagonal sqrt(j / 2),
    # j = 1..N-1 (Golub and Welsch, Math. Comp. 23, 221 (1969))
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def _hermite_errors(k, L, lam):
    # relative errors of ground-block roots and of their energy against the
    # lam -> inf limit.  theta(u) = pi sgn(u) - 2/(lam u) + O(lam^-3), and
    # under the parity rule the sgn terms sum to 2 pi I_j, which leaves
    # k_j L = (2/lam) sum_{l != j} 1/(k_j - k_l): Stieltjes's equations for
    # the zeros x_j of H_N (Szego, Orthogonal Polynomials, 6.7) at
    # k_j = sqrt(2/(lam L)) x_j, so E = sum_j k_j^2 -> N (N - 1)/(lam L)
    n = len(k)
    limit = math.sqrt(2.0 / (lam * L)) * _hermite_zeros(n)
    return (np.max(np.abs(k - limit)) / np.max(np.abs(limit)),
            abs(np.sum(k * k) * lam * L / (n * (n - 1)) - 1.0))


def _is_first_order(roots_at, L):
    # both errors fall by 10 per decade of lam (measured 9.9 to 10.0 at N = 4
    # and 64; E lam L / (N (N - 1)) - 1 reads -1/(3 lam) at N = L = 4)
    errors = [_hermite_errors(roots_at(lam), L, lam) for lam in _STRONG_LAMS]
    return all(abs(a / b - 10.0) <= 0.5
               for pair in zip(errors, errors[1:]) for a, b in zip(*pair))


@pytest.mark.parametrize("n", [4, 64])
def test_strong_coupling_ground_roots_approach_the_hermite_zeros(n):
    # an oracle that shares no code with theta, Newton or the product form,
    # at couplings where no golden record lives
    L, eta = float(n), parity_rule_eta(n)
    roots = lambda lam: np.asarray(solve_bethe(n, L, lam, eta=eta, tol=1e-11).momenta)
    assert _is_first_order(roots, L)
    # the other eta's branch offset fails the check
    other = lambda lam: np.asarray(solve_bethe(n, L, lam, eta=math.pi - eta, tol=1e-11).momenta)
    assert not _is_first_order(other, L)
    # and so do roots of theta scaled by 1 + 1e-3, from the dense reference
    s, I = 1.0 + 1e-3, np.asarray(ground_state_quantum_numbers(n))
    mutant = lambda lam: _dense_newton_reference(
        I, L, 0.0, lambda u: s * 2.0 * np.arctan(lam * u),
        lambda u: s * 2.0 * lam / (1.0 + (lam * u) ** 2), 1e-11, 200)[0]
    assert not _is_first_order(mutant, L)


def _strong_coupling_energy_slope(n):
    # a in E lam L / (N (N - 1)) = 1 + a L / lam + O(lam^-2), derived with
    # sympy.  Less its jump pi sgn(u), theta(u) = -2/(lam u) + 2/(3 (lam u)^3)
    # + O((lam u)^-5) as lam u -> inf, so at k_j = sqrt(2/(lam L)) x_j the
    # ground-block log form, divided by sqrt(2 L / lam), reads
    # x_j = sum_l 1/(x_j - x_l) - (L/(6 lam)) sum_l 1/(x_j - x_l)^3:
    # Stieltjes's equations, perturbed.  Their first-order shift y/lam of the
    # Hermite zeros x0 (to 40 digits) moves 2 sum_j x_j^2 / (N (N - 1)),
    # which is E lam L / (N (N - 1)), by 4 sum_j x0_j y_j / (N (N - 1) lam)
    import sympy as sp

    lam, L, z, t = sp.symbols("lambda L z t", positive=True)
    d, x = sp.symbols("d x")
    jumpless = 2 * sp.series(sp.atan(z), z, sp.oo, 5).removeO() - sp.pi
    s = sp.sqrt(2 / (lam * L))
    # theta(k_j - k_l) less its jump, over s L, at t = 1/lam: the log form is
    # x_j + sum_l pair(x_j - x_l) = 0
    pair = sp.expand(sp.powsimp(jumpless.subs(z, lam * s * d) / (s * L))).subs(lam, 1 / t)
    x0 = sp.Poly(sp.hermite(n, x), x).nroots(n=40)
    y = sp.symbols(f"y0:{n}")
    xs = [x0[j] + t * y[j] for j in range(n)]
    stieltjes = [xs[j] + sum(pair.subs(d, xs[j] - xs[l]) for l in range(n) if l != j)
                 for j in range(n)]
    assert all(abs(f.subs(t, 0)) < 1e-35 for f in stieltjes)
    shift = sp.solve([sp.diff(f, t).subs(t, 0) for f in stieltjes], y, dict=True,
                     rational=False)[0]
    return float(4 * sum(x0[j] * shift[y[j]] for j in range(n)) / (n * (n - 1)) / L)


def _follows_the_energy_slope(roots_at, L, slope):
    # E lam L / (N (N - 1)) - 1 against slope L / lam: the ratio is 1 up to
    # the next order, measured -N L / (30 lam) at N = 2, 3, 4, 64 and L = 4, 10
    for lam in (1e3, 1e4, 1e5):
        k = roots_at(lam)
        n = len(k)
        ratio = (np.sum(k * k) * lam * L / (n * (n - 1)) - 1.0) / (slope * L / lam)
        if abs(ratio - 1.0) > n * L / (20.0 * lam):
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4, 64])
def test_strong_coupling_energy_has_the_derived_first_correction(n):
    # E lam L / (N (N - 1)) = 1 - L / (12 lam) + O(lam^-2): the slope is
    # derived at N = 2, 3 and 4 (sympy's linear solve grows fast with N), and
    # the ground-block roots follow it in two boxes, at N = 64 as well
    slope = -1.0 / 12.0
    if n <= 4:
        assert _strong_coupling_energy_slope(n) == pytest.approx(slope, rel=1e-15)
    eta, I = parity_rule_eta(n), np.asarray(ground_state_quantum_numbers(n))
    for L in (4.0, 10.0):
        roots = lambda lam: np.asarray(solve_bethe(n, L, lam, eta=eta).momenta)
        assert _follows_the_energy_slope(roots, L, slope), L
        # the other eta's roots and those of theta scaled by 1 + 1e-3 do not
        other = lambda lam: np.asarray(solve_bethe(n, L, lam, eta=math.pi - eta).momenta)
        assert not _follows_the_energy_slope(other, L, slope), L
        s = 1.0 + 1e-3
        mutant = lambda lam: _dense_newton_reference(
            I, L, 0.0, lambda u: s * 2.0 * np.arctan(lam * u),
            lambda u: s * 2.0 * lam / (1.0 + (lam * u) ** 2), 1e-13, 200)[0]
        assert not _follows_the_energy_slope(mutant, L, slope), L


def test_strong_coupling_limit_holds_at_n1024():
    # the leading Hermite limit at lam = 1e6 (measured 4.2e-5 on the roots,
    # 8.3e-5 on the energy), which the other eta's roots miss
    n, lam = 1024, 1e6
    for eta, holds in ((parity_rule_eta(n), True), (math.pi - parity_rule_eta(n), False)):
        k = np.asarray(solve_bethe(n, float(n), lam, eta=eta, tol=1e-11).momenta)
        assert (max(_hermite_errors(k, float(n), lam)) <= 1e-4) == holds, eta


@pytest.mark.parametrize("solve", [
    pytest.param(lambda: solve_bethe(3, 10.0, 1e200), id="bethe-lam-1e200"),
    pytest.param(lambda: solve_bethe(3, 10.0, 1e300), id="bethe-lam-1e300"),
    # 2 lam overflows from lam = 9e307
    pytest.param(lambda: solve_bethe(3, 10.0, 1e308), id="bethe-lam-1e308"),
    pytest.param(lambda: solve_lieb_liniger(3, 10.0, 1e-300), id="lieb_liniger-c-1e-300"),
    # the free initial guess 2 pi I / L makes lam * u and u / c overflow
    pytest.param(lambda: solve_bethe(3, 1e-8, 1e300), id="bethe-lam-1e300-box-1e-8"),
    pytest.param(lambda: solve_lieb_liniger(3, 1e-8, 1e-300), id="lieb_liniger-c-1e-300-box-1e-8"),
])
def test_hard_core_couplings_solve_without_a_float_warning(solve):
    # (lam u)^2 overflows and c^2 underflows on the Jacobian's diagonal:
    # theta and theta' take the limit values, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve()
    assert np.all(np.diff(state.momenta) > 0)
    assert bethe_residuals(state).max() <= 1e-12


@pytest.mark.parametrize("c", [3e-309, 1e-320])
def test_subnormal_couplings_check_without_a_float_warning(c):
    # the l = j factors (0 + ic) / (0 - ic) would take 1/c, which overflows
    state = solve_lieb_liniger(3, 1.0, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = bethe_residuals(state)
    assert residuals.max() <= 1e-12


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
    # a box whose free energy N ((2 pi max|I_j| + |delta|) / L)^2 overflows
    pytest.param(lambda: solve_bethe(3, 1e-300, 1.0),
                 "L = 1e-300 is too small for N = 3", id="bethe-box-1e-300"),
    pytest.param(lambda: solve_bethe(3, 1e-320, 1.0),
                 "L = 1e-320 is too small for N = 3", id="bethe-box-1e-320"),
    pytest.param(lambda: solve_lieb_liniger(3, 1e-300, 1.0),
                 "L = 1e-300 is too small for N = 3", id="lieb_liniger-box-1e-300"),
    pytest.param(lambda: ground_state_scan(1e300, 1.0, [4, 8]),
                 "L = 4e-300 is too small for N = 4", id="gs_scan-rho-1e300"),
])
def test_solvers_name_a_non_finite_box_or_coupling(call, name):
    # not a Newton failure, and never a state with free roots or inf energy
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda: solve_bethe(2.5, 10.0, 1.0), "n must be an integer, got n = 2.5",
                 id="bethe-n-2.5"),
    pytest.param(lambda: solve_lieb_liniger(3.0, 10.0, 1.0), "n must be an integer, got n = 3.0",
                 id="lieb_liniger-n-3.0"),
    pytest.param(lambda: ground_state_scan(1.0, 1.0, [4, 8.7]),
                 r"sizes must be integers, got \[8.7\]", id="gs_scan-size-8.7"),
    pytest.param(lambda: solve_bethe(4, 10.0, 1.0, max_iter=2.5),
                 "max_iter must be an integer, got max_iter = 2.5", id="bethe-max_iter-2.5"),
    pytest.param(lambda: yb_defect(1.0, 1, 2, 1, 4), "i must be an integer, got i = 1.0",
                 id="yb_defect-i-1.0"),
    pytest.param(lambda: check_unitarity(1.0, 1, 1, 3), "i must be an integer, got i = 1.0",
                 id="unitarity-i-1.0"),
    pytest.param(lambda: delta_control_defect(2.5, 1, 2, 1, 5), "i must be an integer, got i = 2.5",
                 id="delta_control-i-2.5"),
    pytest.param(lambda: bc_residual(gaudin_wavefunction([-1.0, 0.5, 2.0], 0.7), 0.7, (0, 1.0),
                                     [1.0, 1.0, 3.0]),
                 r"pair \(0, 1.0\) is not a valid coordinate pair", id="bc_residual-pair-1.0"),
])
def test_a_count_that_is_not_an_integer_is_named(call, text):
    # not a bare TypeError from range() or a list index, and never a
    # silently truncated N
    with pytest.raises(ValueError, match=text):
        call()


def test_integer_counts_may_be_numpy_integers():
    assert solve_bethe(np.int64(3), 10.0, 1.0) == solve_bethe(3, 10.0, 1.0)
    assert ground_state_scan(1.0, 1.0, [np.int64(4)]) == ground_state_scan(1.0, 1.0, [4])


@pytest.mark.parametrize("solve", [solve_bethe, solve_lieb_liniger])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(solve, tol):
    # a validation error before the first step, not a Newton stall
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got tol = {tol!r}"):
        solve(4, 10.0, 1.0, tol=tol)


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


def test_a_singular_newton_matrix_names_its_cause():
    # clustered roots at a hard-core coupling give theta' of order lam, and
    # L = 0.93 is lost against it on the diagonal of J
    with pytest.raises(ConvergenceError) as err:
        solve_bethe(7, 0.9251554403241824, 6.1e250, quantum_numbers=[-3, -2, -1, 0, 1, 2, 5],
                    eta=math.pi, tol=2.75e-12)
    message = str(err.value)
    assert message.startswith("Newton matrix is singular in float64 at step ")
    assert "L = 0.925155 is lost against the largest row sum of theta', " in message


def test_a_singular_newton_matrix_on_the_conjugate_gradient_path_names_its_cause():
    # N = 200 roots 2^-100 apart at lam = 2^65: (lam u)^2 < 2^-53 rounds
    # away, so theta' is 2 lam = 2^66 on every pair and its row sum
    # 199 * 2^66 hides L = 1.  J is then exactly singular, with J 1 = 0, and
    # f along J's diagonal makes CG's first curvature p.Jp exactly 0
    n, lam, L = 200, 2.0 ** 65, 1.0
    assert n > bethe.DIRECT_SOLVE_MAX
    k = np.arange(n) * 2.0 ** -100

    def theta_prime(u):   # the fermion theta', in place
        u[...] = 2.0 * lam / (1.0 + (lam * u) ** 2)

    f = np.full(n, -199.0 * 2.0 ** 66 * 2.0 ** -70)
    with pytest.raises(ConvergenceError) as err:
        bethe._newton_step(k, f, L, theta_prime, 4, bethe._row_groups(n), np.empty((n, n)))
    assert str(err.value) == ("Newton matrix is singular in float64 at step 5: L = 1 is lost "
                              "against the largest row sum of theta', 1.47e+22")


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


def test_duality_names_a_lambda_whose_inverse_overflows():
    # the message names the lam the caller passed, not the c = 1/lam it never did
    with pytest.raises(ValueError, match=r"lam = 1e-309 .*c = 1/lam overflows float64"):
        duality_check(3, 10.0, 1e-309)


def test_duality_rejects_an_overflowing_lambda_before_it_solves(monkeypatch):
    # a lam whose dual c = 1/lam overflows is rejected before the fermion
    # ring is solved, as no boson ring could be compared with it
    def solve(*args, **kwargs):
        raise AssertionError("a ring was solved")

    monkeypatch.setattr(bethe, "solve_bethe", solve)
    monkeypatch.setattr(bethe, "solve_lieb_liniger", solve)
    with pytest.raises(ValueError) as error:
        duality_check(1024, 1024.0, 1e-310)
    assert str(error.value) == "lam = 1e-310 has no dual delta gas: c = 1/lam overflows float64"


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


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_ground_state_scan_names_a_non_finite_density(rho):
    # not the box length L = N / rho that it would turn into
    with pytest.raises(ValueError, match=rf"^density must be finite, got rho = {rho!r}$"):
        ground_state_scan(rho, 1.0, [4, 8])


def test_ground_state_scan_needs_a_size():
    with pytest.raises(ValueError, match="sizes"):
        ground_state_scan(1.0, 1.0, [])


def test_single_particle_ground_state_has_zero_energy():
    rows = ground_state_scan(1.0, 1.0, [1])
    assert rows[0]["energy_density"] == pytest.approx(0.0, abs=1e-26)
