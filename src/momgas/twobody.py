"""Two-particle states and boundary-condition residuals of the
momentum-dependent contact gas.

The model Hamiltonian, in units 2m = hbar = 1, is

    H = -sum_j d^2/dx_j^2
        + 2*lam * sum_{j<k} (d_j - d_k) delta(x_j - x_k) (d_j - d_k).

The singular interaction is equivalent to boundary conditions on each
hyperplane x_j = x_k (spectator coordinates held fixed and distinct):

    (d_j - d_k) chi   continuous across x_j = x_k,
    chi|_{x_j = x_k + 0+} - chi|_{x_j = x_k - 0+}
        = 2*lam * (d_j - d_k) chi|_{x_j = x_k - 0+}.

For N = 2 in the relative coordinate x = x1 - x2 (the center of mass
decouples) they reduce to

    chi'(0+) = chi'(-0+),      chi(0+) - chi(-0+) = 4*lam*chi'(0+),

and the solutions at energy E = k^2 are

    chi_plus(x)  = cos(k*x)                       (even channel, lam-blind),
    chi_minus(x) = sin(k*x)/(2*lam*k) + sgn(x)*cos(k*x)   (odd channel).

For lam < 0 the odd channel additionally hosts one bound state at
k = i/(2*lam), E = -1/(4*lam^2), with wavefunction proportional to
sgn(x)*exp(-|x|/(2*|lam|)); we return it normalized to unit L2 norm.
Scattering states are returned unnormalized, exactly as written above.

Conventions fixed here and relied on by every other module:

  * units 2m = hbar = 1; lam is a length (E = -1/(4 lam^2),
    theta = 2 arctan(lam u));
  * the formal chi'(0) generated by the interaction is the average of the
    left and right derivatives (they coincide on eigenfunctions);
  * sgn(0) = 0, so chi_minus(0) is that average of its one-sided limits;
  * one-sided limits are taken analytically, by branch selection, never by
    shrinking a numerical offset.
"""

from __future__ import annotations

import cmath
import math
import numbers
from enum import Enum
from typing import NamedTuple

__all__ = [
    "Parity", "TwoBodyState", "BoundaryResidual",
    "scattering_state", "bound_state",
    "eval_two_body", "eval_two_body_derivative",
    "two_body_residual", "bc_residual",
]


class Parity(Enum):
    """Exchange parity of the two-particle relative wavefunction."""
    EVEN = "even"
    ODD = "odd"


class TwoBodyState(NamedTuple):
    """A two-particle relative-motion eigenstate.

    `k` is the relative momentum (real for scattering states, purely
    imaginary for the bound state) and `energy` = k^2 is real in both
    cases (negative for the bound state).
    """
    parity: Parity
    k: complex
    energy: float

    @property
    def bound(self) -> bool:
        return self.energy < 0


class BoundaryResidual(NamedTuple):
    """Defects of the two matching conditions at a contact hyperplane.

    Both vanish (to evaluation roundoff) on true eigenfunctions.
    `derivative_jump` is the defect of the first line ((d_j - d_k) chi
    continuous), `value_jump_defect` of the second (value jump minus
    2*lam*(d_j - d_k) chi evaluated on the lower side).
    """
    derivative_jump: complex
    value_jump_defect: complex


def _require_finite(values, name: str) -> list[float]:
    out = [float(v) for v in values]
    if not all(map(math.isfinite, out)):
        i = next(i for i, v in enumerate(out) if not math.isfinite(v))
        raise ValueError(f"{name} {i} is not finite: {out[i]}")
    return out


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name} = {value!r}")


def _check_integer(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {name} = {value!r}")


def perm_sign(p) -> int:
    sign = 1
    p = tuple(p)
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                sign = -sign
    return sign


def _sgn(x: float) -> int:
    return (x > 0) - (x < 0)


def scattering_state(parity: Parity, k: float) -> TwoBodyState:
    """Scattering state of given parity at real relative momentum k."""
    k = float(k)
    _check_finite(k=k)
    return TwoBodyState(parity=parity, k=complex(k), energy=k * k)


def bound_state(lam: float) -> TwoBodyState | None:
    """The odd-channel bound state, or None in the repulsive sector.

    Exists iff lam < 0, at k = i/(2*lam) with E = -1/(4*lam^2).
    """
    _check_finite(lam=lam)
    if lam == 0:
        raise ValueError("lam = 0 is the free model; no bound state is defined")
    if lam > 0:
        return None
    return TwoBodyState(parity=Parity.ODD, k=1j / (2.0 * lam), energy=-1.0 / (4.0 * lam * lam))


def _branch(state: TwoBodyState, lam: float, x: float, sgn: int) -> tuple[complex, complex]:
    # value and derivative at x with the sgn(x) branch fixed to `sgn`; at
    # x = 0, sgn = +-1 gives the one-sided limits x -> +-0+ analytically
    _check_finite(lam=lam, x=x)
    if state.parity is Parity.EVEN:
        return cmath.cos(state.k * x), -state.k * cmath.sin(state.k * x)
    if state.bound:
        if lam >= 0:
            raise ValueError("bound state requested with lam >= 0; it exists only for lam < 0")
        # decay rate kappa = 1/(2|lam|) and L2 normalization 1/sqrt(2|lam|)
        kappa, norm = 1.0 / (2.0 * abs(lam)), 1.0 / math.sqrt(2.0 * abs(lam))
        return (sgn * math.exp(-kappa * abs(x)) * norm,
                -kappa * math.exp(-kappa * abs(x)) * norm)
    if lam == 0:
        raise ValueError("odd channel requires lam != 0")
    if state.k == 0:
        raise ValueError("odd channel degenerates at k = 0")
    k = state.k
    return (cmath.sin(k * x) / (2.0 * lam * k) + sgn * cmath.cos(k * x),
            cmath.cos(k * x) / (2.0 * lam) - k * sgn * cmath.sin(k * x))


def eval_two_body(state: TwoBodyState, lam: float, x: float) -> complex:
    """Evaluate the two-particle relative wavefunction at x = x1 - x2.

    chi_plus(x) = cos(k x); chi_minus(x) = sin(k x)/(2 lam k) + sgn(x) cos(k x);
    the bound state (energy < 0) is the lam < 0 continuation of chi_minus,
    normalized to unit L2 norm: sgn(x) exp(-|x|/(2|lam|)) / sqrt(2|lam|).
    """
    return _branch(state, lam, x, _sgn(x))[0]


def eval_two_body_derivative(state: TwoBodyState, lam: float, x: float) -> complex:
    """d/dx of `eval_two_body`, with sgn(0) = 0 (average convention at x = 0).

    For the bound state the derivative is continuous, -kappa * exp(-kappa|x|)
    times the normalization, and that value is returned also at x = 0.
    """
    return _branch(state, lam, x, _sgn(x))[1]


def two_body_residual(state: TwoBodyState, lam: float) -> BoundaryResidual:
    """Defects of the two-particle matching conditions at x = 0, analytically.

    First line: chi'(0+) - chi'(-0+).  Second line: [chi(0+) - chi(-0+)]
    - 4*lam*chi'(0+) (the relative-coordinate form; (d_1 - d_2) = 2 d_x).
    """
    vp, dp = _branch(state, lam, 0.0, +1)
    vm, dm = _branch(state, lam, 0.0, -1)
    return BoundaryResidual(
        derivative_jump=dp - dm,
        value_jump_defect=(vp - vm) - 4.0 * lam * dp,
    )


def bc_residual(wavefunction, lam: float, pair: tuple[int, int],
                base_point) -> BoundaryResidual:
    """Defects of the N-body matching conditions at a point on x_j = x_k.

    `wavefunction` is a `gaudin.BetheWavefunction`; its ``contact_limits``
    gives chi and (d_j - d_k) chi on x_j = x_k + 0+ analytically, and
    antisymmetry gives the - side: -chi with the same (d_j - d_k) chi.
    `pair` holds 0-based integer indices (j, k); `base_point` holds one
    coordinate per particle and must lie on the hyperplane x_j = x_k (to
    1e-9 relative; x_k is then read as x_j) with all spectator coordinates
    distinct from each other and from the contact value.  A coordinate or
    lam that is not finite is named (every tolerance comparison is False
    for nan).

    Returns the defect of both matching conditions:
    (d_j - d_k) chi continuity, and the value jump minus
    2*lam*(d_j - d_k) chi taken on the x_j = x_k - 0+ side.  The first
    holds by antisymmetry for every amplitude table, so `derivative_jump`
    is exactly 0j; the second pins the amplitudes.
    """
    j, k = pair
    x = _require_finite(base_point, "base_point coordinate")
    n = len(x)
    _check_finite(lam=lam)
    if n != wavefunction.n:
        raise ValueError(f"base_point has {n} coordinates, but the wavefunction has "
                         f"{wavefunction.n} particles")
    if not all(isinstance(v, numbers.Integral) and 0 <= v < n for v in pair) or j == k:
        raise ValueError(f"pair {pair!r} is not a valid coordinate pair for {n} coordinates")
    t = x[j]
    scale = 1.0 + max(abs(v) for v in x)
    if abs(x[j] - x[k]) > 1e-9 * scale:
        raise ValueError("base_point does not lie on the hyperplane x_j = x_k")
    spectators = [v for m, v in enumerate(x) if m not in (j, k)]
    for a, va in enumerate(spectators):
        if abs(va - t) < 1e-9 * scale:
            raise ValueError("a spectator coordinate coincides with the contact point")
        for vb in spectators[a + 1:]:
            if abs(va - vb) < 1e-9 * scale:
                raise ValueError("spectator coordinates coincide; the sector is ill-defined")

    value, slope = wavefunction.contact_limits(x, pair)
    return BoundaryResidual(
        derivative_jump=0j,
        value_jump_defect=(value - -value) - 2.0 * lam * slope,
    )
