"""Fourier-space regularization of the bound-state self-consistency integral.

The momentum-space eigenvalue condition for a two-body bound state of the
momentum-dependent contact interaction reads

    1 = 4 lam * integral dq/(2 pi) q^2 / (q^2 + |E|),

whose right-hand side is linearly divergent.  Inserting the regulator
cos(eps q) and splitting q^2/(q^2 + |E|) = 1 - |E|/(q^2 + |E|) produces

  * a non-decaying piece (4 lam/pi) * int_0^inf cos(eps q) dq whose cutoff
    form sin(eps L)/eps oscillates without growing; its Cesaro mean over the
    cutoff vanishes like 1/L (see `constant_piece_cesaro`), so it
    contributes nothing for every eps > 0;
  * an absolutely convergent Lorentzian piece.  Substituting q = sqrt(|E|) t
    turns it into sqrt(|E|)-scaled J(omega) = int_0^inf cos(omega t)/(1 + t^2)
    dt at omega = eps sqrt(|E|), which the Ooura-Mori double-exponential
    formula for Fourier integrals evaluates in plain `math` (no scipy, numpy
    or mpmath), to rounding level wherever the bound state needs it.

The result I(eps, |E|) = -2 lam sqrt(|E|) e^(-eps sqrt(|E|)) is finite for
every eps > 0 and Richardson extrapolation in eps -> 0 recovers
-2 lam sqrt(|E|); solving 1 = -2 lam sqrt(|E|) reproduces the bound-state
energy E = -1/(4 lam^2) without ever touching the divergent eps = 0 form.
"""

from __future__ import annotations

import functools
import math

from . import ConvergenceError
from .twobody import _check_finite, _require_finite

__all__ = [
    "closed_form", "constant_piece_cesaro",
    "regularized_integral", "node_ratio",
    "richardson", "extrapolate_integral",
    "bound_state_energy_via_regularization",
]


def _validate(lam: float, e_abs: float, epsilon: float) -> None:
    _check_finite(lam=lam, e_abs=e_abs, epsilon=epsilon)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if not 0 < e_abs:
        raise ValueError("|E| must be positive")
    if not 0 < epsilon:
        raise ValueError(
            "epsilon must be positive: at epsilon = 0 the integral is linearly "
            "divergent, which is the point of the regulator"
        )


def closed_form(lam: float, e_abs: float, epsilon: float) -> float:
    """Analytic value -2 lam sqrt(|E|) e^(-eps sqrt(|E|)) of the regularized
    integral (the oracle the quadrature route is tested against)."""
    _validate(lam, e_abs, epsilon)
    s = math.sqrt(e_abs)
    return -2.0 * lam * s * math.exp(-epsilon * s)


def constant_piece_cesaro(lam: float, epsilon: float, cutoff: float) -> float:
    """Cesaro mean over the cutoff of the non-decaying split piece.

    (4 lam/pi) int_0^L cos(eps q) dq = (4 lam/pi) sin(eps L)/eps has no
    L -> inf limit pointwise; averaging over L gives
    (4 lam/pi) (1 - cos(eps L)) / (eps^2 L), which vanishes like 1/L.
    """
    _check_finite(lam=lam, epsilon=epsilon, cutoff=cutoff)
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if not 0 < cutoff:
        raise ValueError("cutoff must be positive")
    return 4.0 * lam / math.pi * (1.0 - math.cos(epsilon * cutoff)) / (epsilon ** 2 * cutoff)


# Step of the double-exponential sum.  The worst relative error of J against
# (pi/2) e^(-omega), per decade of omega at 50 points a decade:
#   omega in        h = 0.015   0.02      0.025     0.03
#   [1e-9, 1e-8)    5.7e-16     7.4e-13   2.7e-10   1.3e-8
#   [1e-8, 1e-7)    2.8e-16     1.1e-14   1.0e-11   8.2e-10
#   [1e-7, 1e-6)    2.8e-16     8.5e-16   1.7e-13   2.6e-11
#   [1e-6, 1)       2.9e-16     8.5e-16   5.7e-16   3.4e-13
# h = 0.02 is the largest of these steps that stays within 1.1e-14 from
# omega = 1e-8 up; a smaller one costs nodes in proportion (993 at 0.015,
# 736 at 0.02) and gains nothing above omega = 1e-7.
_H = 0.02


@functools.cache
def _fourier_nodes(h: float) -> tuple:
    """Nodes x_j = M phi(u_j) and weights w_j = h M phi'(u_j) cos(x_j) of
    the Ooura-Mori formula at step h, M = pi/h, u_j = (j - 1/2) h, so that
    J(omega) = sum_j w_j omega/(omega^2 + x_j^2) for every omega.

    Taking t = (M/omega) phi(u) with
    phi(u) = u/(1 - exp(-2u - alpha (1 - e^-u) - beta (e^u - 1))),
    beta = 1/4 and alpha = beta/sqrt(1 + M ln(1 + M)/(4 pi)), the nodes run
    into the zeros of cos(M u) double-exponentially as u -> +inf, and phi
    decays double-exponentially as u -> -inf.  The cosine's argument is
    M phi itself, never omega t, so it carries no rounding of omega.  The
    sum stops where u > 0 puts cos(x_j) within 1e-18 of its zero, and where
    u < 0 drives the exponent below -700, which leaves a tail of about
    x_j/omega, under 1e-295/omega.
    """
    m = math.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    nodes = []
    for sign in (1.0, -1.0):
        j = 0
        while True:
            u = sign * (j + 0.5) * h
            j += 1
            g = 2.0 * u - alpha * math.expm1(-u) + beta * math.expm1(u)
            if g < -700.0:
                break
            d = -math.expm1(-g)
            phi = u / d
            dg = 2.0 + alpha * math.exp(-u) + beta * math.exp(u)
            dphi = (d - u * dg * math.exp(-g)) / (d * d)
            x = m * phi
            nodes.append((x, h * m * dphi * math.cos(x)))
            if sign > 0 and m * (phi - u) < 1e-18:
                break
    return tuple(nodes)


def _lorentz_fourier(omega: float, h: float) -> float:
    """J(omega) = int_0^inf cos(omega t)/(1 + t^2) dt by the double-exponential
    sum at step h; hypot keeps omega/(omega^2 + x^2) finite when both squares
    underflow."""
    terms = []
    for x, w in _fourier_nodes(h):
        r = math.hypot(omega, x)
        terms.append(w * (omega / r) / r)
    return math.fsum(terms)


def regularized_integral(lam: float, e_abs: float, epsilon: float) -> float:
    """I(eps, |E|) = 4 lam int dq/(2 pi) cos(eps q) q^2/(q^2 + |E|).

    The constant split piece Cesaro-averages to zero; what remains is
    -(4 lam |E|/pi) int_0^inf cos(eps q)/(q^2 + |E|) dq.  With q = sqrt(|E|) t
    that is -(4 lam sqrt(|E|)/pi) J(omega), omega = eps sqrt(|E|),
    J(omega) = int_0^inf cos(omega t)/(1 + t^2) dt = (pi/2) e^(-omega), so
    the accuracy depends on omega alone, not on the scale of |E|.  J is the
    Ooura-Mori double-exponential sum (J. Comput. Appl. Math. 112, 229
    (1999)) at the step `_H`.  Against the closed form its relative error is
    <= 1.5e-12 for omega in [1e-9, 10], <= 1.1e-14 in [1e-8, 3] and
    <= 8.5e-16 in [1e-7, 1]; its absolute error is <= 1.5e-15 up to
    omega = 100.

    Three guards raise `ConvergenceError`, each naming eps, |E| and omega:
    |J| above pi/2, the integral of the integrand's modulus; J below
    pi/2 - 2 omega, which 1 - cos x <= min(2, x^2/2) gives; and the error
    estimate |J(h) - J(2h)| above 1e-5 max(1, |J|).  Below omega ~ 1e-10 the
    nodes no longer resolve t ~ 1.  In a scan at 100 points a decade none
    fires from omega = 8.4e-11 up, one fires at every omega below 1.8e-11,
    and every value let through lies within 3.9e-11 of the closed form.
    """
    _validate(lam, e_abs, epsilon)
    s = math.sqrt(e_abs)
    omega = epsilon * s
    lorentz = _lorentz_fourier(omega, _H)
    at = f"at epsilon = {epsilon:g}, |E| = {e_abs:g} (omega = eps sqrt|E| = {omega:g})"
    # |int cos(omega t)/(1 + t^2) dt| <= int 1/(1 + t^2) dt
    if abs(lorentz) > math.pi / 2.0:
        raise ConvergenceError(
            f"double-exponential Fourier sum returned J = {lorentz!r}, above "
            f"the modulus bound pi/2, {at}"
        )
    lower = math.pi / 2.0 - 2.0 * omega
    if lorentz < lower:
        raise ConvergenceError(
            f"double-exponential Fourier sum returned J = {lorentz!r}, below "
            f"the lower bound pi/2 - 2 omega = {lower!r}, {at}"
        )
    abserr = abs(lorentz - _lorentz_fourier(omega, 2.0 * _H))
    if abserr > 1e-5 * max(1.0, abs(lorentz)):
        raise ConvergenceError(
            f"double-exponential Fourier sum error estimate |J(h) - J(2h)| = "
            f"{abserr:g} too large {at}"
        )
    return -(4.0 * lam * s / math.pi) * lorentz


def richardson(values, step_ratio: float = 2.0) -> float:
    """Neville-style Richardson limit of a sequence f(h), f(h/r), f(h/r^2), ...

    `values` is ordered largest step first; the error is assumed to be a
    power series in h starting at first order, so stage j cancels the h^j
    term.  Three nodes at ratio 2 give (8 f(h) - 6 f(2h) + f(4h))/3.
    """
    vals = _require_finite(values, "value")
    if len(vals) < 2:
        raise ValueError("need at least two values to extrapolate")
    _check_finite(step_ratio=step_ratio)
    if not 1 < step_ratio:
        raise ValueError("step ratio must exceed 1")
    table = list(vals)
    n = len(table)
    for j in range(1, n):
        factor = step_ratio ** j
        # overwrite in place from the small-step end
        for i in range(n - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    return table[-1]


def node_ratio(epsilons) -> float:
    """Common ratio of geometric epsilon nodes, largest first: the step
    ratio `richardson` extrapolates the nodes' integrals with."""
    eps = _require_finite(epsilons, "epsilon node")
    if len(eps) < 2:
        raise ValueError("need at least two epsilon nodes")
    if not all(0 < e for e in eps):
        raise ValueError("epsilon nodes must be positive")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilon nodes must be strictly decreasing")
    ratios = [a / b for a, b in zip(eps, eps[1:])]
    if any(abs(r / ratios[0] - 1.0) > 1e-9 for r in ratios):
        raise ValueError("epsilon nodes must form a geometric sequence")
    return ratios[0]


def extrapolate_integral(lam: float, e_abs: float,
                         epsilons=(0.2, 0.1, 0.05)) -> float:
    """eps -> 0 Richardson limit of the regularized integral over the given
    geometric epsilon nodes (largest first).  Converges to the closed form's
    limit -2 lam sqrt(|E|)."""
    ratio = node_ratio(epsilons)
    vals = [regularized_integral(lam, e_abs, float(e)) for e in epsilons]
    return richardson(vals, step_ratio=ratio)


def bound_state_energy_via_regularization(lam: float) -> float:
    """Bound-state energy from the regularized route alone.

    Substituting q = sqrt(|E|) t in the Lorentzian piece gives the exact
    scaling I(eps, |E|) = sqrt(|E|) I(eps sqrt(|E|), 1).  Extrapolated over
    nodes eps = 2e-4 * {4, 2, 1} / sqrt(|E|), whose extrapolation error
    stays ~ (2e-4)^3 at every energy, the integral is therefore r sqrt(|E|)
    with one constant r, the extrapolation at unit energy over the nodes
    2e-4 * {4, 2, 1}.  The condition 1 = r sqrt(|E|) then has the single
    root |E| = 1/r^2, so no root solve is needed and no quadrature runs at
    small |E|.  Returns E = -1/r^2, matching -1/(4 lam^2) since r -> -2 lam.
    """
    if lam >= 0:
        raise ValueError(
            "no bound state for lam >= 0: the self-consistency condition "
            "1 = -2 lam sqrt(|E|) has no solution with a repulsive coupling"
        )
    r = extrapolate_integral(lam, 1.0, (8e-4, 4e-4, 2e-4))
    if not r > 0:
        raise ConvergenceError(
            f"extrapolated integral at unit energy r = {r:g} is not positive at "
            f"lam = {lam:g}: 1 = r sqrt(|E|) has no root"
        )
    return -1.0 / r ** 2
