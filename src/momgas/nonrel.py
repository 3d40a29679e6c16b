"""Non-relativistic limit of the 1D current-current (Thirring-type) model:
dispersion, Bogoliubov coefficients, the four-point vertex and its 1/mc
expansion, cosine-potential Taylor coefficients, and the coupling maps that
tie the relativistic couplings to the contact-gas couplings.

Conventions.  E_k = sqrt((mc^2)^2 + (kc)^2); the canonical transformation
diagonalizing the free Dirac Hamiltonian has weights

    a_pm(k) = sqrt((1 pm kc/E_k)/2),

and the anti-symmetrized interaction vertex in that basis is

    v = 1/4 [ a+(k1)a+(k2)a-(k3)a-(k4) + a+(k3)a+(k4)a-(k1)a-(k2)
            - a+(k3)a+(k2)a-(k1)a-(k4) - a+(k1)a+(k4)a-(k3)a-(k2) ],

whose leading 1/mc behaviour is (k1-k3)(k2-k4)/(4mc)^2: exactly the
momentum-dependent contact interaction, with lam = -g/c^2 in 2m = 1 units.
The cosine potential of the dual boson description starts at the quartic
term with coefficient -(mc)^2 beta^2/4!, identified with the phi^4 coupling
g_B; both routes give c_B = -(beta c/4)^2.  Combining lam = -g/c^2 with the
strong-coupling limit of the duality relation 4 pi/beta^2 = 1 + g/pi pins
lam * c_B = pi^2/4 independently of g and c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .twobody import _check_finite, _check_integer, _require_finite

__all__ = [
    "BogoliubovPair",
    "dispersion", "dispersion_remainder", "dispersion_scan",
    "bogoliubov",
    "vertex_exact", "vertex_leading", "vertex_expansion_scan",
    "sine_gordon_taylor_coeff", "coupling_maps",
    "coleman_check", "coleman_full_product",
    "loglog_slope",
]


def _check_mass_speed(m: float, c: float) -> None:
    _check_finite(m=m, c=c)
    if not (0 < m and 0 < c):
        raise ValueError("mass and speed of light must be positive")


@dataclass(frozen=True)
class BogoliubovPair:
    """Weights of the canonical transformation: a_plus^2 + a_minus^2 = 1."""
    a_plus: float
    a_minus: float


def dispersion(k: float, m: float, c: float) -> float:
    """E_k = sqrt((mc^2)^2 + (kc)^2)."""
    _check_finite(k=k)
    _check_mass_speed(m, c)
    return math.hypot(m * c * c, k * c)


def dispersion_remainder(k: float, m: float, c: float) -> float:
    """E_k - mc^2 - k^2/2m: what survives after removing rest energy and the
    Galilean kinetic term.  Leading behaviour -k^4/(8 m^3 c^2)."""
    e = dispersion(k, m, c)
    return (e - m * c * c) - k * k / (2.0 * m)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x.

    A line through fewer than two distinct log x values is not determined
    (distinct x can share a float64 logarithm, as 1e300 and its neighbour
    do), and log x is not real for x <= 0 and log|y| is -inf where y = 0:
    each raises instead of returning a NaN or dividing by zero.
    """
    x = _require_finite(x, "x value")
    y = _require_finite(y, "y value")
    if not all(v > 0 for v in x):
        raise ValueError(f"a log-log slope needs positive x values, got {x}")
    lx = [math.log(v) for v in x]
    if len(set(lx)) < 2:
        cause = ("two distinct x values" if len(set(x)) < 2
                 else "two x values whose float64 logarithms differ")
        raise ValueError(f"a log-log slope needs at least {cause}, got {x}")
    zeros = [xi for xi, yi in zip(x, y, strict=True) if yi == 0.0]
    if zeros:
        raise ValueError(f"a log-log slope needs nonzero y values, got y = 0 at x = {zeros}")
    ly = [math.log(abs(v)) for v in y]
    # centred sums: the slope is sum(dx dy) / sum(dx^2) about the means
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    dx = [v - mx for v in lx]
    return math.fsum(d * (v - my) for d, v in zip(dx, ly)) / math.fsum(d * d for d in dx)


def _mc_sweep(mc_values, row, fitted: str) -> tuple[list[dict], float]:
    # one row {"mc": mc, **row(mc)} per mc, swept through c at m = 1 (the
    # limit the expansion is taken in), and the log-log slope of the rows'
    # `fitted` field against mc
    mc_values = _require_finite(mc_values, "mc value")
    if not all(0 < v for v in mc_values):
        raise ValueError("mc values must be positive")
    rows = [{"mc": mc, **row(mc)} for mc in mc_values]
    return rows, loglog_slope(mc_values, [r[fitted] for r in rows])


def dispersion_scan(k: float, mc_values) -> dict:
    """Expansion-order check of the dispersion: remainder vs mc at fixed k.

    The remainder scales as (mc)^-2 and the fitted log-log slope must sit
    at -2.
    """
    rows, slope = _mc_sweep(mc_values, lambda mc: {
        "energy": dispersion(k, 1.0, mc),
        "remainder": dispersion_remainder(k, 1.0, mc),
    }, "remainder")
    return {"k": float(k), "rows": rows, "slope": slope}


def bogoliubov(k: float, m: float, c: float) -> BogoliubovPair:
    """a_pm(k) = sqrt((1 pm kc/E_k)/2).  Depends on k and the product mc only."""
    e = dispersion(k, m, c)
    ratio = k * c / e
    return BogoliubovPair(a_plus=math.sqrt((1.0 + ratio) / 2.0),
                          a_minus=math.sqrt((1.0 - ratio) / 2.0))


def vertex_exact(k1: float, k2: float, k3: float, k4: float,
                 m: float, c: float) -> float:
    """Anti-symmetrized four-point vertex in the Bogoliubov basis.

    The four products are grouped as (t1 - t3) + (t2 - t4) so that the
    antisymmetry zeros at k1 = k3 and at k2 = k4 cancel exactly in floats,
    not merely to rounding.
    """
    b1, b2, b3, b4 = (bogoliubov(k, m, c) for k in (k1, k2, k3, k4))
    t1 = b1.a_plus * b2.a_plus * b3.a_minus * b4.a_minus
    t2 = b3.a_plus * b4.a_plus * b1.a_minus * b2.a_minus
    t3 = b3.a_plus * b2.a_plus * b1.a_minus * b4.a_minus
    t4 = b1.a_plus * b4.a_plus * b3.a_minus * b2.a_minus
    return 0.25 * ((t1 - t3) + (t2 - t4))


def vertex_leading(k1: float, k2: float, k3: float, k4: float,
                   m: float, c: float) -> float:
    """Leading 1/mc term of the vertex: (k1 - k3)(k2 - k4)/(4mc)^2."""
    _check_finite(k1=k1, k2=k2, k3=k3, k4=k4)
    _check_mass_speed(m, c)
    return (k1 - k3) * (k2 - k4) / (4.0 * m * c) ** 2


def vertex_expansion_scan(ks, mc_values) -> dict:
    """Relative error of the leading vertex term across an mc sweep (m = 1).

    The vertex is even under simultaneous k -> -k, so its 1/mc expansion
    has no odd powers.  With eps = 1/mc its coefficients are
    c2 = (k1-k3)(k2-k4)/16 (the leading term) and
    c4 = -(k1-k3)(k2-k4)(3k1^2 + 2k1k3 + 3k2^2 + 2k2k4 + 3k3^2 + 3k4^2)/128,
    so the relative error is |c4/c2| (mc)^-2 + O((mc)^-4).  The fitted
    log-log slope over mc in {10, 20, 40, 80} is about -1.93 at
    ks = (1, 2, 3, 5), where |c4/c2| = 17.875.
    """
    ks = [float(v) for v in ks]
    if len(ks) != 4:
        raise ValueError(f"need the four momenta k1, k2, k3, k4, got {len(ks)}")
    k1, k2, k3, k4 = ks
    if (k1 - k3) * (k2 - k4) == 0.0:
        raise ValueError("degenerate momentum tuple: leading term vanishes, "
                         "relative error undefined")

    def row(mc):
        v = vertex_exact(k1, k2, k3, k4, 1.0, mc)
        lead = vertex_leading(k1, k2, k3, k4, 1.0, mc)
        return {"v_exact": v, "v_leading": lead, "rel_error": abs(v - lead) / abs(lead)}

    rows, slope = _mc_sweep(mc_values, row, "rel_error")
    return {"ks": ks, "rows": rows, "slope": slope}


def sine_gordon_taylor_coeff(n: int, m: float, c: float, beta: float) -> float:
    """Coefficient of the 2n-th power in the cosine-potential expansion:
    (-1)^(n-1) (mc)^2 beta^(2n-2) / (2n)!.  Starts at the quartic term n = 2."""
    _check_integer(n=n)
    if n < 2:
        raise ValueError("the expansion starts at the quartic term: n >= 2")
    n = int(n)   # numpy's pow of a numpy integer can round differently
    _check_mass_speed(m, c)
    _check_finite(beta=beta)
    return (-1.0) ** (n - 1) * (m * c) ** 2 * beta ** (2 * n - 2) / math.factorial(2 * n)


def coupling_maps(*, g: float, beta: float, m: float, c: float,
                  g_b: float | None = None) -> dict:
    """The three coupling maps into the contact-gas language (2m = 1 units):

      lambda_from_thirring = -g/c^2
      cB_from_sg           = -(beta c/4)^2
      cB_from_phi4         = 3 g_B/(2 m^2), with g_B the n = 2 cosine
                             coefficient -(mc)^2 beta^2/4! unless an explicit
                             g_b is given.

    The two c_B routes agree identically: the mass cancels from the phi^4
    route once g_B carries its (mc)^2 prefactor.
    """
    _check_mass_speed(m, c)
    _check_finite(g=g, beta=beta)
    if g_b is None:
        g_b = sine_gordon_taylor_coeff(2, m, c, beta)
    _check_finite(g_b=g_b)
    return {
        "lambda_from_thirring": -g / c ** 2,
        "cB_from_sg": -(beta * c / 4.0) ** 2,
        "cB_from_phi4": 3.0 * g_b / (2.0 * m ** 2),
    }


def _lam_times_cb(g: float, c: float, denominator: float) -> float:
    # lam * c_B at beta^2 = 4 pi^2/denominator, once g and c are checked
    _check_finite(g=g, c=c)
    if not 0 < g:
        raise ValueError("the duality argument applies to g > 0 "
                         "(attractive contact coupling lam < 0)")
    if not 0 < c:
        raise ValueError("speed of light must be positive")
    lam = -g / c ** 2
    beta_sq = 4.0 * math.pi ** 2 / denominator
    c_b = -beta_sq * c ** 2 / 16.0
    return lam * c_b


def coleman_check(g: float, c: float) -> float:
    """lam * c_B under the strong-coupling form of the boson-fermion duality.

    lam = -g/c^2 and beta^2 = 4 pi^2/g (the duality relation 4 pi/beta^2 =
    1 + g/pi with the 1 dropped, the limit relevant for g -> infinity) give
    c_B = -(beta c/4)^2 and lam * c_B = pi^2/4 for every g > 0 and c > 0.
    """
    return _lam_times_cb(g, c, g)


def coleman_full_product(g: float, c: float) -> float:
    """Same product without dropping the 1: beta^2 = 4 pi^2/(pi + g), so
    lam * c_B = pi^2 g/(4 (pi + g)), approaching pi^2/4 as g grows."""
    return _lam_times_cb(g, c, math.pi + g)
