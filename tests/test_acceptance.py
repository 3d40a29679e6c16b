"""End-to-end acceptance gate.

Each test measures one headline claim of the package at its stated tolerance
and prints a single verdict line (past pytest's capture) before asserting, so
a full run always shows the seven verdicts:

    ACCEPTANCE <n>: PASS|FAIL - <measured numbers>

Two claims are checked against expectations derived here, independently of
the package:

  * claim 5: the fitted log-log slope of the leading-vertex relative error is
    -2 +- 0.1.  A sympy series of the documented vertex in eps = 1/mc (m = 1)
    has vanishing eps^0, eps^1, eps^3 and eps^5 coefficients (the vertex is
    even under simultaneous k -> -k), leading coefficient
    c2 = (k1-k3)(k2-k4)/16 and a nonzero c4, so the relative error is
    |c4/c2| (mc)^-2 + O((mc)^-4).  Measured: -1.93.
  * claim 7: at rho = 1, lam = 0.01 the N = 16 energy density lies within 2%
    of the thermodynamic limit of the dual Lieb-Liniger gas at
    gamma = 1/(lam rho) = 100, whose strong-coupling form
    e_inf = (pi^2/3) rho^3 (gamma/(gamma+2))^2 (Lieb and Liniger 1963) is
    exact to O(gamma^-3).  Measured: 0.39%, the 1/N^2 finite-size term.  The
    free-fermion value pi^2/3 is the lam = 0 limit; the verdict line reports
    the distance to it for information only.
"""

import math
import random
import time
from fractions import Fraction

from momgas.bethe import duality_check, ground_state_scan
from momgas.gaudin import gaudin_residual_scan
from momgas.nonrel import coupling_maps, coleman_check, \
    vertex_exact, vertex_expansion_scan
from momgas.regularize import bound_state_energy_via_regularization
from momgas.twobody import bound_state
from momgas.yang_baxter import (
    check_unitarity, delta_control_defect, sign_projection,
    trivial_projection, yb_defect,
)


def emit(capsys, number, ok, details):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {details}",
              flush=True)


def test_acceptance_1_bound_state_two_routes(capsys):
    # closed form vs regularized quadrature route, four couplings
    worst_rel = 0.0
    slowest = 0.0
    for lam in (-0.25, -0.5, -1.0, -2.0):
        t0 = time.perf_counter()
        direct = bound_state(lam).energy
        via_integral = bound_state_energy_via_regularization(lam)
        slowest = max(slowest, time.perf_counter() - t0)
        assert direct == -1.0 / (4.0 * lam * lam)
        worst_rel = max(worst_rel, abs(via_integral - direct) / abs(direct))
    ok = worst_rel <= 1e-8 and slowest < 1.0
    emit(capsys, 1, ok,
         f"worst rel diff {worst_rel:.3e} (cap 1e-8), "
         f"slowest coupling {slowest:.3f} s (cap 1 s)")
    assert worst_rel <= 1e-8
    assert slowest < 1.0


def test_acceptance_2_gaudin_eigenfunctions(capsys):
    # 50 random draws per particle number: contact conditions on every
    # adjacent hyperplane and a finite-difference Schroedinger probe
    t0 = time.perf_counter()
    worst_bc = 0.0
    worst_fd = 0.0
    for n in (1, 2, 3, 4):
        for row in gaudin_residual_scan(n, 50, seed=0):
            worst_bc = max(worst_bc, row["max_derivative_jump"],
                           row["max_value_jump_defect"])
            worst_fd = max(worst_fd, row["schrodinger_residual"])
    runtime = time.perf_counter() - t0
    ok = worst_bc <= 1e-12 and worst_fd <= 1e-6 and runtime < 30.0
    emit(capsys, 2, ok,
         f"worst contact defect {worst_bc:.3e} (cap 1e-12), "
         f"worst probe residual {worst_fd:.3e} (cap 1e-6), "
         f"{runtime:.2f} s (cap 30 s)")
    assert worst_bc <= 1e-12
    assert worst_fd <= 1e-6
    assert runtime < 30.0


def test_acceptance_3_duality(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for lam in (0.25, 1.0, 4.0):
            worst = max(worst, duality_check(n, 10.0, lam)["max_abs_difference"])
    control = duality_check(3, 10.0, 1.0, eta=0.0)["max_abs_difference"]
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-10 and control > 1e-2 and runtime < 10.0
    emit(capsys, 3, ok,
         f"worst root mismatch {worst:.3e} (cap 1e-10), "
         f"wrong-phase control {control:.3f} (floor 1e-2), "
         f"{runtime:.2f} s (cap 10 s)")
    assert worst <= 1e-10
    assert control > 1e-2
    assert runtime < 10.0


def _random_rational(rng, nonzero_against=()):
    while True:
        value = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        if value != 0 and all(value + other != 0 for other in nonzero_against):
            return value


def test_acceptance_4_yang_baxter_falsification(capsys):
    # exact arithmetic throughout: every verdict is an identity of rational
    # matrices, not a float comparison
    rng = random.Random(0)
    t0 = time.perf_counter()
    checked = 0
    for n in (3, 4):
        for trial in range(10):
            u = _random_rational(rng)
            v = _random_rational(rng, nonzero_against=(u,))
            lam = _random_rational(rng)
            i = 1 + trial % (n - 2) if n > 3 else 1
            assert all(check_unitarity(site, arg, lam, n)
                       for site in range(1, n) for arg in (u, v))
            defect = yb_defect(i, u, v, lam, n)
            assert not defect.is_zero
            assert trivial_projection(defect.matrix).is_zero
            assert sign_projection(defect.matrix).is_zero
            assert delta_control_defect(i, u, v, 1 / lam, n).is_zero
            checked += 1
    runtime = time.perf_counter() - t0
    ok = checked == 20 and runtime < 60.0
    emit(capsys, 4, ok,
         f"{checked} random rational triples at N = 3, 4: unitarity exact, "
         f"defect exactly nonzero, scalar sectors and delta control exactly "
         f"zero; {runtime:.2f} s (cap 60 s)")
    assert checked == 20
    assert runtime < 60.0


def _vertex_series(order=6):
    """Series of the documented vertex in eps = 1/mc (m = 1), from the
    formula alone: returns (coefficients c_0..c_{order-1}, symbols k1..k4).

    a_pm(k) = sqrt((1 pm r)/2) with r = kc/E_k = x/sqrt(1 + x^2), x = k eps.
    sqrt(2) a_pm has rational Taylor coefficients, so the four-weight
    products carry a factor 1/4 besides the vertex's own 1/4.  Truncating
    each weight at x^order leaves the eps^n coefficients below order exact.
    """
    import sympy as sp
    x, eps = sp.symbols("x epsilon")
    ks = k1, k2, k3, k4 = sp.symbols("k1:5")
    r = x / sp.sqrt(1 + x ** 2)
    plus, minus = (sp.series(sp.sqrt(1 + s * r), x, 0, order).removeO()
                   for s in (1, -1))

    def a(weight, k):
        return sp.Poly(weight.subs(x, k * eps), eps, *ks)

    def term(p, q, s, t):
        return a(plus, p) * a(plus, q) * a(minus, s) * a(minus, t)

    v = (term(k1, k2, k3, k4) + term(k3, k4, k1, k2)
         - term(k3, k2, k1, k4) - term(k1, k4, k3, k2)).as_expr() / 16
    return [sp.factor(v.coeff(eps, n)) for n in range(order)], ks


def test_acceptance_5_vertex_expansion(capsys):
    # expected slope from the series: the relative error of the leading term
    # c_lead eps^lead decays as eps^(next - lead), next the first nonzero
    # order after it
    coeffs, (k1, k2, k3, k4) = _vertex_series()
    assert coeffs[0] == coeffs[1] == coeffs[3] == coeffs[5] == 0
    assert (coeffs[2] - (k1 - k3) * (k2 - k4) / 16).expand() == 0
    assert coeffs[4] != 0
    lead, following = (n for n, c in enumerate(coeffs) if c != 0)
    expected_slope = -(following - lead)
    ratio = abs(float((coeffs[4] / coeffs[2]).subs({k1: 1, k2: 2, k3: 3,
                                                     k4: 5})))

    t0 = time.perf_counter()
    scan = vertex_expansion_scan([1.0, 2.0, 3.0, 5.0], [10.0, 20.0, 40.0, 80.0])
    slope = scan["slope"]
    zero_13 = vertex_exact(1.3, 0.4, 1.3, 2.9, 1.0, 1.0)
    zero_24 = vertex_exact(0.2, -1.7, 3.1, -1.7, 1.0, 1.0)
    runtime = time.perf_counter() - t0
    slope_ok = abs(slope - expected_slope) <= 0.1
    zeros_ok = zero_13 == 0.0 and zero_24 == 0.0
    ok = slope_ok and zeros_ok and runtime < 1.0
    last = scan["rows"][-1]
    emit(capsys, 5, ok,
         f"fitted slope {slope:.4f} (series gives {expected_slope} +- 0.1), "
         f"rel_error*mc^2 at mc = {last['mc']:g}: "
         f"{last['rel_error'] * last['mc'] ** 2:.3f} (|c4/c2| = {ratio:.3f}), "
         f"diagonal zeros exact: {zeros_ok}, {runtime:.2f} s (cap 1 s)")
    assert zeros_ok
    assert runtime < 1.0
    assert slope_ok, (
        f"slope {slope:.4f} is outside {expected_slope} +- 0.1: the vertex "
        f"series has no odd 1/mc powers and a nonzero (mc)^-4 term, so the "
        f"relative error of the leading term decays as (mc)^-2"
    )


def test_acceptance_6_coleman_constant(capsys):
    t0 = time.perf_counter()
    target = math.pi ** 2 / 4.0
    rng = random.Random(0)
    worst_product = 0.0
    worst_routes = 0.0
    for _ in range(10):
        g = rng.uniform(0.01, 50.0)
        c = rng.uniform(0.1, 10.0)
        worst_product = max(worst_product, abs(coleman_check(g, c) - target))
        beta = math.sqrt(4.0 * math.pi ** 2 / g)
        maps = coupling_maps(g=g, beta=beta, m=rng.uniform(0.2, 5.0), c=c)
        worst_routes = max(worst_routes,
                           abs(maps["cB_from_sg"] - maps["cB_from_phi4"])
                           / abs(maps["cB_from_sg"]))
    runtime = time.perf_counter() - t0
    ok = worst_product <= 1e-12 and worst_routes <= 1e-12
    emit(capsys, 6, ok,
         f"worst |lam*cB - pi^2/4| = {worst_product:.3e} (cap 1e-12), "
         f"worst route disagreement {worst_routes:.3e} (cap 1e-12), "
         f"{runtime:.3f} s")
    assert worst_product <= 1e-12
    assert worst_routes <= 1e-12


def test_acceptance_7_thermodynamic_proxy(capsys):
    t0 = time.perf_counter()
    n, rho, lam = 16, 1.0, 0.01
    e_16 = ground_state_scan(rho, lam, [n])[0]["energy_density"]
    # thermodynamic limit of the dual Lieb-Liniger gas at c = 1/lam, in its
    # strong-coupling form; the error is O(gamma^-3), ~2e-5 relative here
    gamma = 1.0 / (lam * rho)
    e_inf = math.pi ** 2 / 3.0 * rho ** 3 * (gamma / (gamma + 2.0)) ** 2
    off_limit = abs(e_16 - e_inf) / e_inf
    finite_size = e_16 / (e_inf * (1.0 - 1.0 / n ** 2)) - 1.0
    free_inf = math.pi ** 2 / 3.0
    box = n / rho
    free_16 = sum((2.0 * math.pi * (j - (n + 1) / 2.0) / box) ** 2
                  for j in range(1, n + 1)) / box
    off_free_inf = abs(e_16 - free_inf) / free_inf
    off_free_16 = abs(e_16 - free_16) / free_16

    rows = ground_state_scan(rho, 1.0, [4, 8, 16])
    densities = [r["energy_density"] for r in rows]
    increments = [abs(b - a) for a, b in zip(densities, densities[1:])]
    monotone = increments[1] < increments[0]
    runtime = time.perf_counter() - t0

    two_percent_ok = off_limit <= 0.02
    ok = two_percent_ok and monotone and runtime < 30.0
    emit(capsys, 7, ok,
         f"e(16) = {e_16:.6f} is {off_limit * 100:.2f}% off the dual-gas "
         f"limit e_inf = {e_inf:.6f} at gamma = {gamma:g} (cap 2%; "
         f"e(16)/(e_inf*(1-1/N^2)) - 1 = {finite_size:.1e}); for information: "
         f"{off_free_inf * 100:.2f}% off pi^2/3, {off_free_16 * 100:.2f}% off "
         f"the same-N free value; increments {increments[0]:.5f} -> "
         f"{increments[1]:.5f} monotone: {monotone}, {runtime:.2f} s "
         f"(cap 30 s)")
    assert monotone
    assert runtime < 30.0
    assert two_percent_ok, (
        f"e(16) = {e_16:.6f} differs from the dual-gas limit "
        f"(pi^2/3) rho^3 (gamma/(gamma+2))^2 = {e_inf:.6f} at "
        f"gamma = 1/(lam rho) = {gamma:g} by {off_limit * 100:.2f}%, beyond "
        f"the 2% cap"
    )
