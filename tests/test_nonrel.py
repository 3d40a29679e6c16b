"""Dispersion, Bogoliubov weights, the four-point vertex, and coupling maps."""

import math
import random

import pytest

from momgas.nonrel import (
    BogoliubovPair, bogoliubov, coleman_check, coleman_full_product, coupling_maps,
    dispersion, dispersion_remainder, dispersion_scan, loglog_slope,
    sine_gordon_taylor_coeff, vertex_exact, vertex_expansion_scan,
    vertex_leading,
)

# pinned by an independent 40-digit evaluation of the same four products
VERTEX_1234_MC1 = 0.006267474255693601


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_trivial_points():
    assert dispersion(0.0, 2.0, 3.0) == 2.0 * 9.0
    assert dispersion(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        dispersion(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dispersion(1.0, 1.0, -2.0)


def test_dispersion_remainder_leading_term():
    # remainder -> -k^4/(8 m^3 c^2) deep in the non-relativistic regime
    k, m, c = 1.3, 1.0, 200.0
    expected = -k ** 4 / (8.0 * m ** 3 * c ** 2)
    assert dispersion_remainder(k, m, c) == pytest.approx(expected, rel=1e-4)


def test_dispersion_scan_slope_is_minus_two():
    scan = dispersion_scan(1.0, [10.0, 20.0, 40.0, 80.0])
    assert scan["slope"] == pytest.approx(-1.997742743214379, abs=1e-12)
    assert abs(scan["slope"] + 2.0) <= 0.05
    assert len(scan["rows"]) == 4
    with pytest.raises(ValueError):
        dispersion_scan(1.0, [10.0, -20.0])


def test_loglog_slope_exact_on_power_law():
    x = [1.0, 2.0, 4.0, 8.0]
    assert loglog_slope(x, [v ** -3 for v in x]) == pytest.approx(-3.0, abs=1e-12)
    with pytest.raises(ValueError):
        loglog_slope([1.0], [1.0])


def test_loglog_slope_rejects_degenerate_data():
    # one distinct x leaves the line undetermined; y = 0 has no logarithm
    with pytest.raises(ValueError, match=r"two distinct x values, got \[10.0, 10.0\]"):
        loglog_slope([10.0, 10.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"nonzero y values, got y = 0 at x = \[2.0\]"):
        loglog_slope([1.0, 2.0, 4.0], [1.0, 0.0, 3.0])
    # the scans that fit a slope: the remainder vanishes identically at k = 0,
    # and a repeated mc is a single point
    with pytest.raises(ValueError, match="nonzero y values"):
        dispersion_scan(0.0, [10.0, 20.0])
    with pytest.raises(ValueError, match="distinct x values"):
        vertex_expansion_scan([1.0, 2.0, 3.0, 5.0], [10.0, 10.0])


# ---------------------------------------------------------------------------
# Bogoliubov weights


def test_bogoliubov_rest_frame():
    pair = bogoliubov(0.0, 1.0, 1.0)
    assert pair.a_plus == pair.a_minus == pytest.approx(1.0 / math.sqrt(2.0))


def test_bogoliubov_normalization_identity():
    rng = random.Random(0)
    for _ in range(1000):
        k = rng.uniform(-50.0, 50.0)
        m = rng.uniform(0.1, 10.0)
        c = rng.uniform(0.1, 10.0)
        pair = bogoliubov(k, m, c)
        assert abs(pair.a_plus ** 2 + pair.a_minus ** 2 - 1.0) < 1e-14


def test_bogoliubov_depends_only_on_mc_product():
    for k in (0.7, -2.3):
        a = bogoliubov(k, 2.0, 3.0)
        b = bogoliubov(k, 3.0, 2.0)
        c = bogoliubov(k, 1.0, 6.0)
        assert a.a_plus == pytest.approx(b.a_plus, rel=1e-15)
        assert a.a_plus == pytest.approx(c.a_plus, rel=1e-15)


def test_bogoliubov_ultrarelativistic_limit():
    pair = bogoliubov(1e8, 1.0, 1.0)
    assert pair.a_plus == pytest.approx(1.0, abs=1e-8)
    assert pair.a_minus == pytest.approx(0.0, abs=1e-4)
    assert isinstance(pair, BogoliubovPair)


# ---------------------------------------------------------------------------
# four-point vertex


def test_vertex_frozen_value():
    assert vertex_exact(1.0, 2.0, 3.0, 4.0, 1.0, 1.0) == pytest.approx(
        VERTEX_1234_MC1, rel=1e-15)


def test_vertex_vanishes_exactly_on_the_diagonals():
    assert vertex_exact(1.3, 0.4, 1.3, 2.9, 1.0, 1.0) == 0.0
    assert vertex_exact(0.2, -1.7, 3.1, -1.7, 1.0, 1.0) == 0.0
    assert vertex_exact(0.9, 0.9, 0.9, 0.9, 2.0, 5.0) == 0.0


def test_vertex_antisymmetry():
    rng = random.Random(3)
    for _ in range(50):
        k = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        v = vertex_exact(*k, 1.0, 2.0)
        swapped13 = vertex_exact(k[2], k[1], k[0], k[3], 1.0, 2.0)
        swapped24 = vertex_exact(k[0], k[3], k[2], k[1], 1.0, 2.0)
        assert abs(v + swapped13) <= 1e-14
        assert abs(v + swapped24) <= 1e-14


def test_vertex_leading_value():
    assert vertex_leading(1.0, 0.0, 0.0, 1.0, 1.0, 1.0) == -0.0625
    assert vertex_leading(1.0, 2.0, 3.0, 5.0, 1.0, 10.0) == pytest.approx(
        (1.0 - 3.0) * (2.0 - 5.0) / 1600.0)


def test_vertex_leading_converges():
    k = (1.0, 2.0, 3.0, 5.0)
    for mc in (10.0, 100.0):
        rel = abs(vertex_exact(*k, 1.0, mc) - vertex_leading(*k, 1.0, mc)) \
            / abs(vertex_leading(*k, 1.0, mc))
        assert rel < 10.0 / mc ** 2 * 16.0


def test_vertex_scan_measured_slope():
    # the vertex is even under k -> -k, so the remainder is O((mc)^-4) and
    # the relative-error slope sits at -2, not at the first naive order
    scan = vertex_expansion_scan([1.0, 2.0, 3.0, 5.0], [10.0, 20.0, 40.0, 80.0])
    assert -2.1 < scan["slope"] < -1.8
    assert scan["rows"][0]["rel_error"] == pytest.approx(0.15274509375045506, rel=1e-12)
    assert scan["rows"][-1]["rel_error"] == pytest.approx(0.0027854846805628703, rel=1e-12)


def test_vertex_scan_rejects_degenerate_tuples():
    with pytest.raises(ValueError):
        vertex_expansion_scan([1.0, 2.0, 1.0, 5.0], [10.0, 20.0])
    with pytest.raises(ValueError):
        vertex_expansion_scan([1.0, 2.0, 3.0, 5.0], [10.0, 0.0])


@pytest.mark.parametrize("ks", [[1.0, 2.0], [1.0, 2.0, 3.0, 5.0, 7.0], []])
def test_vertex_scan_needs_four_momenta(ks):
    with pytest.raises(ValueError, match=rf"four momenta k1, k2, k3, k4, got {len(ks)}"):
        vertex_expansion_scan(ks, [10.0, 20.0])


# ---------------------------------------------------------------------------
# cosine-potential coefficients and coupling maps


def test_sine_gordon_quartic_coefficient():
    assert sine_gordon_taylor_coeff(2, 1.0, 1.0, 1.0) == pytest.approx(-1.0 / 24.0)
    # consecutive ratio: coeff(n+1)/coeff(n) = -beta^2 (2n)!/(2n+2)!
    beta = 0.7
    ratio = sine_gordon_taylor_coeff(3, 1.0, 1.0, beta) / \
        sine_gordon_taylor_coeff(2, 1.0, 1.0, beta)
    assert ratio == pytest.approx(-beta ** 2 * math.factorial(4) / math.factorial(6))
    with pytest.raises(ValueError):
        sine_gordon_taylor_coeff(1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sine_gordon_taylor_coeff(2.0, 1.0, 1.0, 1.0)


def test_coupling_maps_rejects_nonpositive_mass_and_speed():
    with pytest.raises(ValueError, match="mass and speed of light must be positive"):
        coupling_maps(g=1.0, beta=1.0, m=-1.0, c=1.0)
    with pytest.raises(ValueError, match="mass and speed of light must be positive"):
        coupling_maps(g=1.0, beta=1.0, m=1.0, c=0.0, g_b=-3.0)


def test_coupling_maps_trivial_points():
    maps = coupling_maps(g=-4.0, beta=2.0, m=1.0, c=2.0)
    assert maps["lambda_from_thirring"] == 1.0          # g = -c^2
    assert maps["cB_from_sg"] == -1.0                   # beta = 4/c
    assert maps["cB_from_phi4"] == pytest.approx(-1.0, rel=1e-15)


def test_coupling_maps_routes_agree():
    rng = random.Random(5)
    for _ in range(20):
        m, c = rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
        maps = coupling_maps(g=rng.uniform(-3.0, 3.0) or 1.0, beta=rng.uniform(0.1, 4.0),
                             m=m, c=c)
        assert maps["cB_from_sg"] == pytest.approx(maps["cB_from_phi4"], rel=1e-12)


def test_coupling_maps_honors_explicit_quartic_coupling():
    maps = coupling_maps(g=1.0, beta=1.0, m=1.0, c=1.0, g_b=-3.0)
    assert maps["cB_from_phi4"] == pytest.approx(-4.5)


def test_coupling_maps_requires_both_couplings():
    with pytest.raises(TypeError, match="'g'"):
        coupling_maps(beta=1.0, m=1.0, c=1.0)
    with pytest.raises(TypeError, match="'beta'"):
        coupling_maps(g=1.0, m=1.0, c=1.0)
    with pytest.raises(TypeError):
        coupling_maps(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the pi^2/4 constant


def test_coleman_product_is_constant():
    target = math.pi ** 2 / 4.0
    rng = random.Random(9)
    for _ in range(10):
        g = rng.uniform(0.01, 100.0)
        c = rng.uniform(0.1, 10.0)
        assert abs(coleman_check(g, c) - target) <= 1e-12 * target


def test_coleman_rejects_bad_couplings():
    with pytest.raises(ValueError):
        coleman_check(-1.0, 1.0)
    with pytest.raises(ValueError):
        coleman_check(0.0, 1.0)
    with pytest.raises(ValueError):
        coleman_check(1.0, -1.0)
    with pytest.raises(ValueError):
        coleman_full_product(-1.0, 1.0)
    with pytest.raises(ValueError):
        coleman_full_product(1.0, 0.0)


def test_coleman_full_product():
    g = 2.5
    expected = math.pi ** 2 * g / (4.0 * (math.pi + g))
    assert coleman_full_product(g, 3.0) == pytest.approx(1.093397402018343, rel=1e-14)
    assert coleman_full_product(g, 3.0) == pytest.approx(expected, rel=1e-14)
    # the full relation approaches pi^2/4 only in the strong-coupling limit
    assert coleman_full_product(1e9, 1.0) == pytest.approx(math.pi ** 2 / 4.0, rel=1e-8)
    assert coleman_full_product(g, 1.0) == coleman_full_product(g, 7.0)
