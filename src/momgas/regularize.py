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
  * an absolutely convergent Lorentzian piece, evaluated here by adaptive
    quadrature with the oscillatory cos weight.

The result I(eps, |E|) = -2 lam sqrt(|E|) e^(-eps sqrt(|E|)) is finite for
every eps > 0 and Richardson extrapolation in eps -> 0 recovers
-2 lam sqrt(|E|); solving 1 = -2 lam sqrt(|E|) reproduces the bound-state
energy E = -1/(4 lam^2) without ever touching the divergent eps = 0 form.
"""

from __future__ import annotations

import math

from . import ConvergenceError

__all__ = [
    "closed_form", "constant_piece_cesaro",
    "regularized_integral", "node_ratio",
    "richardson", "extrapolate_integral",
    "bound_state_energy_via_regularization",
]


def _validate(lam: float, e_abs: float, epsilon: float) -> None:
    if lam == 0:
        raise ValueError("lam must be nonzero")
    if e_abs <= 0:
        raise ValueError("|E| must be positive")
    if epsilon <= 0:
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return 4.0 * lam / math.pi * (1.0 - math.cos(epsilon * cutoff)) / (epsilon ** 2 * cutoff)


def regularized_integral(lam: float, e_abs: float, epsilon: float) -> float:
    """I(eps, |E|) = 4 lam int dq/(2 pi) cos(eps q) q^2/(q^2 + |E|).

    The constant split piece Cesaro-averages to zero; what remains is
    -(4 lam |E|/pi) int_0^inf cos(eps q)/(q^2 + |E|) dq, done by adaptive
    oscillatory quadrature to absolute error 1e-13.  A quadrature whose
    error estimate is large, whose value exceeds pi/(2 sqrt|E|), the
    integral of the integrand's modulus, or whose value falls below
    (pi/2 - 2 eps sqrt|E|)/sqrt|E|, which 1 - cos x <= min(2, x^2/2) gives,
    raises `ConvergenceError`.
    """
    _validate(lam, e_abs, epsilon)
    # imported on first use, not at module level: importing momgas or this
    # module loads no scipy; only the reg-* subcommands pay for it
    from scipy.integrate import quad

    # full_output suppresses the spurious slow-cycle warning; trust the
    # returned error estimate instead (checked against the closed form in tests)
    out = quad(lambda q: 1.0 / (q * q + e_abs), 0.0, math.inf,
               weight="cos", wvar=epsilon, epsabs=1e-13, limit=200,
               full_output=1)
    lorentz, abserr = out[0], out[1]
    # catastrophe net only; accuracy is pinned against the closed form in tests
    if abserr > 1e-5 * max(1.0, abs(lorentz)):
        raise ConvergenceError(
            f"oscillatory quadrature error estimate {abserr:g} too large at "
            f"epsilon = {epsilon:g}, |E| = {e_abs:g}"
        )
    # |int cos(eps q)/(q^2 + |E|) dq| <= int 1/(q^2 + |E|) dq: an error
    # estimate relative to the value itself cannot catch a huge wrong value
    s = math.sqrt(e_abs)
    bound = math.pi / (2.0 * s)
    if abs(lorentz) > bound:
        raise ConvergenceError(
            f"oscillatory quadrature returned {lorentz:g}, above the modulus "
            f"bound pi/(2 sqrt|E|) = {bound:g}, at epsilon = {epsilon:g}, "
            f"|E| = {e_abs:g}"
        )
    # 1 - cos x <= min(2, x^2/2) bounds the integral below; below about
    # eps sqrt|E| = 2e-5 quad returns ~ -(pi/2) eps with a tiny error
    # estimate, which only this bound catches
    lower = (math.pi / 2.0 - 2.0 * epsilon * s) / s
    if lorentz < lower:
        raise ConvergenceError(
            f"oscillatory quadrature returned {lorentz:g}, below the lower "
            f"bound (pi/2 - 2 eps sqrt|E|)/sqrt|E| = {lower:g}, at "
            f"epsilon = {epsilon:g}, |E| = {e_abs:g}"
        )
    return -(4.0 * lam * e_abs / math.pi) * lorentz


def richardson(values, step_ratio: float = 2.0) -> float:
    """Neville-style Richardson limit of a sequence f(h), f(h/r), f(h/r^2), ...

    `values` is ordered largest step first; the error is assumed to be a
    power series in h starting at first order, so stage j cancels the h^j
    term.  Three nodes at ratio 2 give (8 f(h) - 6 f(2h) + f(4h))/3.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two values to extrapolate")
    if step_ratio <= 1:
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
    eps = [float(e) for e in epsilons]
    if len(eps) < 2:
        raise ValueError("need at least two epsilon nodes")
    if any(e <= 0 for e in eps):
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
