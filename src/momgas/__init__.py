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
"""

__version__ = "0.1.0"

from .twobody import (
    BoundaryResidual,
    Parity,
    TwoBodyState,
    bc_residual,
    bound_state,
    eval_two_body,
    eval_two_body_derivative,
    scattering_state,
    two_body_residual,
)
from .bethe import (
    BetheState,
    BetheWavefunction,
    ConvergenceError,
    bethe_residuals,
    duality_check,
    eval_gradient,
    eval_wavefunction,
    gaudin_amplitudes,
    gaudin_residual_scan,
    gaudin_wavefunction,
    ground_state_scan,
    schrodinger_residual,
    solve_bethe,
    solve_lieb_liniger,
)
from .yang_baxter import (
    GaussianRational,
    GroupAlgebraElement,
    check_unitarity,
    delta_control_defect,
    delta_variant,
    regular_rep,
    yang_op,
    yb_defect,
)
from .nonrel import (
    BogoliubovPair,
    bogoliubov,
    coleman_check,
    coleman_full_product,
    coupling_maps,
    dispersion,
    dispersion_remainder,
    dispersion_scan,
    sine_gordon_taylor_coeff,
    vertex_exact,
    vertex_expansion_scan,
    vertex_leading,
)
from .regularize import (
    bound_state_energy_via_regularization,
    closed_form,
    extrapolate_integral,
    regularized_integral,
    richardson,
)

__all__ = [
    "__version__",
    "BoundaryResidual", "Parity", "TwoBodyState",
    "bc_residual", "bound_state", "eval_two_body", "eval_two_body_derivative",
    "scattering_state", "two_body_residual",
    "BetheState", "BetheWavefunction", "ConvergenceError",
    "bethe_residuals", "duality_check", "eval_gradient", "eval_wavefunction",
    "gaudin_amplitudes", "gaudin_residual_scan", "gaudin_wavefunction",
    "ground_state_scan", "schrodinger_residual", "solve_bethe", "solve_lieb_liniger",
    "GaussianRational", "GroupAlgebraElement",
    "check_unitarity", "delta_control_defect", "delta_variant",
    "regular_rep", "yang_op", "yb_defect",
    "BogoliubovPair", "bogoliubov", "coleman_check", "coleman_full_product", "coupling_maps",
    "dispersion", "dispersion_remainder", "dispersion_scan",
    "sine_gordon_taylor_coeff", "vertex_exact", "vertex_expansion_scan",
    "vertex_leading",
    "bound_state_energy_via_regularization",
    "closed_form", "extrapolate_integral", "regularized_integral",
    "richardson",
]
