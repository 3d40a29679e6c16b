"""momgas: an exactly solvable 1D quantum gas with momentum-dependent
contact interactions.

The package implements, in units 2m = hbar = 1:

  * two-particle scattering and bound states of the interaction
    2*lam*(d_j - d_k) delta(x_j - x_k) (d_j - d_k)  (`twobody`),
  * Gaudin-type Bethe-ansatz eigenfunctions for N fermions, finite-ring
    Bethe equations, and the duality to the delta-interaction boson gas
    at c = 1/lam  (`bethe`),
  * exact Gaussian-rational Yang operators on the regular representation
    of S_N: unitarity holds, the Yang-Baxter relations fail  (`yang_baxter`),
  * the non-relativistic limit bookkeeping: Dirac dispersion, Bogoliubov
    coefficients, the four-point vertex and coupling maps, including the
    pi^2/4 constant  (`nonrel`),
  * the cos(eps*q)-regularized self-consistency integral and the bound
    state energy it determines  (`regularize`),
  * a CLI exposing each operation with JSON/CSV output  (`cli`).

Importing the package loads none of its submodules, and so neither numpy
nor mpmath: each exported name imports its submodule on first use
(PEP 562), so a cold process pays only for the libraries it uses.
"""

import importlib

__version__ = "0.1.0"


class ConvergenceError(RuntimeError):
    """A numerical computation failed to reach its target: a Newton solve
    exhausted or stalled or its matrix singular in float64, a Fourier sum
    with too large an error estimate or a value above its modulus bound or
    below its lower bound, or a non-positive extrapolated integral.
    Defined here, not in a submodule, so that catching it imports neither
    numpy nor mpmath; `bethe` and `regularize` raise this same class."""


# submodule -> the names the package exports from it
_EXPORTS = {
    "twobody": (
        "BoundaryResidual", "Parity", "TwoBodyState",
        "bc_residual", "bound_state", "eval_two_body", "eval_two_body_derivative",
        "scattering_state", "two_body_residual",
    ),
    "bethe": (
        "BetheState", "BetheWavefunction",
        "bethe_residuals", "duality_check", "eval_wavefunction",
        "gaudin_residual_scan", "gaudin_wavefunction",
        "ground_state_scan", "schrodinger_residual", "solve_bethe", "solve_lieb_liniger",
    ),
    "yang_baxter": (
        "GaussianRational", "GroupAlgebraElement",
        "check_unitarity", "delta_control_defect", "regular_rep", "yang_op", "yb_defect",
    ),
    "nonrel": (
        "BogoliubovPair", "bogoliubov", "coleman_check", "coleman_full_product",
        "coupling_maps", "dispersion", "dispersion_remainder", "dispersion_scan",
        "sine_gordon_taylor_coeff", "vertex_exact", "vertex_expansion_scan",
        "vertex_leading",
    ),
    "regularize": (
        "bound_state_energy_via_regularization",
        "closed_form", "extrapolate_integral", "regularized_integral", "richardson",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "ConvergenceError", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        # `momgas.bethe` after a bare `import momgas`; the import system then
        # binds the submodule as a package attribute itself
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
