"""Bethe-ansatz eigenfunctions and finite-ring Bethe equations for the
momentum-dependent contact gas, plus the dual delta-interaction boson gas.

Wedge formula.  In the fundamental wedge x_1 < x_2 < ... < x_N every fermion
eigenfunction is a Gaudin-type sum of plane waves,

    chi(x) = sum_{P in S_N} A_P exp(i sum_j k_{Pj} x_j),
    A_P = sgn(P) * prod_{1 <= l < j <= N} (i*lam*(k_{Pj} - k_{Pl}) + 1),

and the extension off the wedge is antisymmetric.  `bc_residual` reads each
contact x_j = x_k from one wedge sum, taken with the contact at the origin
(`BetheWavefunction.contact_limits`).  `gaudin_amplitudes`
returns the raw products; wavefunctions built by `gaudin_wavefunction`
rescale all amplitudes by the identity amplitude (a global constant, so the
same eigenfunction), which keeps every |A_P| = 1 and the evaluation well
conditioned at large lam.

Ring quantization.  On a ring of circumference L with boundary phase
eta in {0, pi} the momenta obey

    exp(i k_j L) = (-1)^N exp(i eta)
                   * prod_{l != j} (k_j - k_l + i/lam) / (k_j - k_l - i/lam),

which in logarithmic form, with quantum numbers I_j that are integers for
odd N and half-odd-integers for even N (the boson-gas convention), reads

    k_j L = 2 pi I_j + delta - sum_l theta(k_j - k_l),
    theta(u) = 2 arctan(lam u),
    delta = eta - pi  (N odd),   delta = eta  (N even).

delta vanishes exactly when eta follows the parity rule (eta = 0 for even
N, eta = pi for odd N); the system is then identical, root for root, to
the boson-gas equations at c = 1/lam with periodic boundary conditions

    k_j L = 2 pi I_j - sum_l 2 arctan((k_j - k_l)/c).

Both are solved by one damped Newton iteration with the analytic Jacobian
J = diag(L + sum_l a_jl) - a, where a_jl = theta'(k_j - k_l) > 0 off the
diagonal.  For repulsive couplings J is L times the identity plus a graph
Laplacian: symmetric positive definite, smallest eigenvalue L, and a
condition number of a few units at every N.  Up to DIRECT_SOLVE_MAX
particles each step is a dense LU solve, so small-N roots (the golden
records among them) stay bit for bit; above it Jacobi-preconditioned
conjugate gradients solve the step in a few matrix-vector products instead
of O(N^3) work.  The residual and the Jacobian are built in row blocks, so
on that path the Jacobian is the only N x N array.  Each model codes its
own theta, so `duality_check` compares two independent codings of the same
equation.

Schroedinger probe.  `schrodinger_residual` takes a wavefunction, as
`bc_residual` does, and makes one pass over that object's own amplitude
table at 40 mpmath digits: N^2 exponentials exp(i k_m y_s) give every
plane wave as a product of per-slot phases, and a +-h shift of one slot
rescales each momentum's terms there, so all N second differences come
from the same N! terms.  Those N! products and their slot sums run on
Python integers in fixed point, 64 bits finer than the working precision
and scaled to the largest amplitude, so only the N^2 phases and the final
O(N^2) combination are mpmath operations.  `gaudin_residual_scan` builds
one state per draw and passes it to both checks.  mpmath is imported by
the probe on first use, so the ring solvers load numpy alone.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import ConvergenceError
from .twobody import bc_residual
from .yang_baxter import perm_sign

__all__ = [
    "MAX_PARTICLES_ENUMERATED", "ConvergenceError",
    "BetheState", "BetheWavefunction",
    "gaudin_amplitudes", "gaudin_wavefunction",
    "eval_wavefunction",
    "solve_bethe", "solve_lieb_liniger", "bethe_residuals",
    "duality_check", "ground_state_scan", "ground_state_quantum_numbers",
    "schrodinger_residual", "gaudin_residual_scan",
]

# permutation enumeration is capped: N! amplitudes
MAX_PARTICLES_ENUMERATED = 8

# rows of an N x N pairwise array evaluated at once, in the log-form
# residual, the Newton Jacobian fill and the product-form check: bounds the
# temporaries to a few RESIDUAL_BLOCK_ROWS x N arrays (0.5 MB of float64 or
# 1 MB of complex at N = 1024, where one N x N complex matrix takes 16 MB)
RESIDUAL_BLOCK_ROWS = 64

# largest N whose Newton step is a dense LU solve; above it Jacobi-
# preconditioned CG is faster.  Per step on one BLAS thread of a 2-core
# x86-64 machine, LU and CG tie near N = 112 and CG takes 262 us against
# 323 us at N = 128 and 12 ms against 64 ms at N = 1024
DIRECT_SOLVE_MAX = 128


def parity_rule_eta(n: int) -> float:
    """Boundary phase of the fermion model that matches the periodic boson
    gas: eta = 0 for even N, eta = pi for odd N.

    A fermion eigenfunction picks up -exp(i eta) when one particle goes
    once round the ring, so under this rule it is anti-periodic for even N
    and periodic for odd N."""
    return math.pi if n % 2 else 0.0


def _require_distinct(values, message: str) -> None:
    if len(set(values)) != len(values):
        raise ValueError(message)


def gaudin_amplitudes(momenta, lam: float) -> dict[tuple[int, ...], complex]:
    """Raw wedge amplitudes A_P = sgn(P) * prod_{l<j} (i lam (k_Pj - k_Pl) + 1).

    Keys are permutations of range(N) in one-line notation (P[j] is the index
    of the momentum occupying slot j).  At lam = 0 this reduces to sgn(P).
    """
    k = [float(v) for v in momenta]
    n = len(k)
    if n < 1:
        raise ValueError("need at least one momentum")
    if n > MAX_PARTICLES_ENUMERATED:
        raise ValueError(f"N = {n} exceeds the N! enumeration guard ({MAX_PARTICLES_ENUMERATED})")
    _require_distinct(k, "momenta must be pairwise distinct (the determinant vanishes)")
    # sgn(P) = prod_{l<j} sgn(P_j - P_l): each inverted pair's factor is negated
    pair = [[1j * lam * (kb - ka) + 1.0 for kb in k] for ka in k]
    for a in range(n):
        for b in range(a):
            pair[a][b] = -pair[a][b]
    out = {}
    for p in itertools.permutations(range(n)):
        a = 1 + 0j
        for l in range(n):
            row = pair[p[l]]
            for j in range(l + 1, n):
                a *= row[p[j]]
        out[p] = a
    return out


@dataclass
class BetheWavefunction:
    """A fermion Bethe-ansatz wavefunction: momenta plus permutation
    amplitudes of the wedge formula, extended antisymmetrically off the wedge.
    """
    momenta: tuple[float, ...]
    amplitudes: dict[tuple[int, ...], complex]
    _amps: np.ndarray = field(init=False, repr=False)
    _kmat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.momenta)
        perms = list(itertools.permutations(range(n)))
        if len(self.amplitudes) != len(perms) or not all(p in self.amplitudes for p in perms):
            raise ValueError("amplitudes must cover S_N exactly once")
        k = np.asarray(self.momenta, dtype=float)
        self._amps = np.array([self.amplitudes[p] for p in perms], dtype=complex)
        bad = np.flatnonzero(~np.isfinite(self._amps))
        if bad.size:
            p = perms[bad[0]]
            raise ValueError(f"amplitude of permutation {p} is not finite: {self.amplitudes[p]}")
        self._kmat = k[np.array(perms, dtype=np.intp).reshape(len(perms), n)]

    @property
    def n(self) -> int:
        return len(self.momenta)

    def _terms(self, y: np.ndarray) -> np.ndarray:
        # the N! plane waves A_P exp(i k_P . y) of the wedge formula at ordered y
        return self._amps * np.exp(1j * (self._kmat @ y))

    def contact_limits(self, x, pair) -> tuple[complex, complex, complex, complex]:
        """Limits on x_j = x_k +- 0+, (j, k) = pair, with x_k read as x_j:
        (value +, value -, (d_j - d_k) chi +, (d_j - d_k) chi -).

        The + side sorts k just before j, into slots r and r + 1; the - side
        is that sector with the two swapped, of opposite sign and the same
        (d_j - d_k) chi, so one sum of the N! terms gives all four.  It is
        taken at y - x_j, the contact at the origin: y_r = y_{r+1} = 0 gives
        the plane waves P and P o (r r+1) bit-identical phases.  Each limit
        carries the unimodular factor exp(-i K x_j), K = sum_m k_m."""
        j, k = pair
        x = [float(v) for v in x]
        x[k] = x[j]
        order = sorted(range(self.n), key=lambda m: (x[m], m == j))
        r = order.index(k)
        terms = self._terms(np.array([x[m] - x[j] for m in order], dtype=float))
        s = perm_sign(order)
        value = s * terms.sum()
        slope = s * (1j * (self._kmat[:, r + 1] - self._kmat[:, r]) * terms).sum()
        return value, -value, slope, slope


def gaudin_wavefunction(momenta, lam: float) -> BetheWavefunction:
    """Fermion eigenfunction with Gaudin amplitudes at coupling lam.

    All amplitudes are divided by the identity amplitude; every |A_P| is
    then exactly 1, which keeps float evaluation well conditioned for large
    lam.  This changes the wavefunction only by a global constant.  A raw
    amplitude that is not finite (the product overflows float64, or lam is
    not finite) raises a ValueError that names lam and N.
    """
    k = tuple(float(v) for v in momenta)
    amps = gaudin_amplitudes(k, lam)
    if not all(cmath.isfinite(a) for a in amps.values()):
        raise ValueError(f"Gaudin amplitudes are not finite at lam = {lam}, N = {len(k)}: "
                         "the product of pair factors overflows float64 or lam is not finite")
    a0 = amps[tuple(range(len(k)))]
    return BetheWavefunction(momenta=k, amplitudes={p: a / a0 for p, a in amps.items()})


def _checked_coords(wf: BetheWavefunction, x) -> list[float]:
    xs = [float(v) for v in x]
    if len(xs) != wf.n:
        raise ValueError("coordinate count does not match the wavefunction")
    _require_distinct(xs, "coordinates coincide: the point sits on a sector boundary")
    return xs


def eval_wavefunction(wf: BetheWavefunction, x) -> complex:
    """Evaluate wf at pairwise-distinct coordinates x (any sector)."""
    xs = _checked_coords(wf, x)
    order = sorted(range(wf.n), key=xs.__getitem__)
    return perm_sign(order) * wf._terms(np.array([xs[m] for m in order], dtype=float)).sum()


# ---------------------------------------------------------------------------
# finite-ring Bethe equations


@dataclass(frozen=True)
class BetheState:
    """A solved finite-ring Bethe state.

    `model` is "fermion" (momentum-dependent gas, coupling lam) or "boson"
    (delta gas, coupling c); `boundary_phase` is eta in {0, pi}.  Energy and
    total momentum are the recomputed sums over `momenta`.
    """
    momenta: tuple[float, ...]
    box_length: float
    boundary_phase: float
    quantum_numbers: tuple[float, ...]
    energy: float
    total_momentum: float
    model: str
    coupling: float


def ground_state_quantum_numbers(n: int) -> tuple[float, ...]:
    """The symmetric block I_j = j - (N+1)/2, j = 1..N: integers for odd N,
    half-odd-integers for even N."""
    return tuple(j - (n + 1) / 2.0 for j in range(1, n + 1))


def _validate_quantum_numbers(qn) -> np.ndarray:
    I = np.asarray([float(v) for v in qn], dtype=float)
    for j, value in enumerate(I.tolist()):
        if not math.isfinite(value):
            raise ValueError(f"quantum numbers must be finite, got {value} at index {j}")
    if not np.all(np.diff(I) > 0):
        raise ValueError("quantum numbers must be strictly increasing")
    return I


def _row_blocks(n: int):
    # the row slices of an N x N pairwise array, RESIDUAL_BLOCK_ROWS at a time
    return (slice(start, start + RESIDUAL_BLOCK_ROWS)
            for start in range(0, n, RESIDUAL_BLOCK_ROWS))


def _jacobi_pcg(diag: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # conjugate gradients for (diag(diag) - a) x = b, preconditioned by the
    # diagonal; stops at a recursive residual of 1e-15 ||b|| or after N
    # iterations, the exact-arithmetic bound
    x = b / diag
    r = b - (diag * x - a @ x)
    z = r / diag
    p = z
    rz = r @ z
    bound = 1e-15 * np.linalg.norm(b)
    for _ in range(len(b)):
        if np.linalg.norm(r) <= bound:
            break
        q = diag * p - a @ p
        alpha = rz / (p @ q)
        x = x + alpha * p
        r = r - alpha * q
        z = r / diag
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x


def _newton_step(k: np.ndarray, f: np.ndarray, L: float, theta_prime) -> np.ndarray:
    # full Newton step -J^{-1} f with J = diag(L + sum_l a_jl) - a,
    # a_jl = theta'(k_j - k_l) and a_jj = 0: a dense LU solve up to
    # DIRECT_SOLVE_MAX, Jacobi-preconditioned CG above (J is SPD, see the
    # module docstring).  a is filled in row blocks, is the only N x N array
    # on the CG path, and is freed on return, before the damping loop
    # evaluates the residual
    n = len(k)
    a = np.empty((n, n))
    for rows in _row_blocks(n):
        a[rows] = theta_prime(k[rows, None] - k[None, :])
    np.fill_diagonal(a, 0.0)
    diag = L + a.sum(axis=1)
    if n <= DIRECT_SOLVE_MAX:
        jac = -a
        jac[np.diag_indices(n)] += diag
        return np.linalg.solve(jac, -f)
    return _jacobi_pcg(diag, a, -f)


def _newton_log_form(I: np.ndarray, L: float, delta: float, theta, theta_prime,
                     tol: float, max_iter: int) -> np.ndarray:
    k = (2.0 * math.pi * I + delta) / L   # free-model initial guess

    def residual(kv):
        out = kv * L - 2.0 * math.pi * I - delta
        for rows in _row_blocks(len(kv)):
            out[rows] += theta(kv[rows, None] - kv[None, :]).sum(axis=1)
        return out

    f = residual(k)
    for it in range(max_iter):
        if np.max(np.abs(f)) <= tol:
            return k
        step = _newton_step(k, f, L, theta_prime)
        scale = 1.0
        norm0 = np.max(np.abs(f))
        # step halving until the residual norm decreases
        for _ in range(60):
            trial = k + scale * step
            ftrial = residual(trial)
            if np.max(np.abs(ftrial)) < norm0:
                break
            scale *= 0.5
        else:
            # no shorter step lowers the norm: the usual cause is a tolerance
            # below the float64 rounding of the log form, which grows with |k L|
            floor = np.finfo(float).eps * np.max(np.abs(k * L))
            raise ConvergenceError(
                f"Newton iteration stalled at step {it + 1}: residual norm "
                f"{norm0:.3g} stays above tol {tol:g} under every damped step; "
                f"the float64 rounding floor of the log form is of order "
                f"eps * max|k L| = {floor:.2g}"
            )
        k, f = trial, ftrial
    if np.max(np.abs(f)) <= tol:
        return k
    raise ConvergenceError(
        f"Newton iteration did not reach residual {tol:g} in {max_iter} steps"
    )


def _finish_state(k: np.ndarray, L: float, eta: float, I: np.ndarray,
                  model: str, coupling: float) -> BetheState:
    if not np.all(np.diff(k) > 0):
        raise ConvergenceError("solved momenta are not strictly ordered")
    return BetheState(
        momenta=tuple(float(v) for v in k),
        box_length=float(L),
        boundary_phase=float(eta),
        quantum_numbers=tuple(float(v) for v in I),
        energy=float(np.sum(k * k)),
        total_momentum=float(np.sum(k)),
        model=model,
        coupling=float(coupling),
    )


def _validate_eta(eta: float) -> float:
    if eta not in (0.0, math.pi):
        raise ValueError(f"boundary phase eta must be 0 or pi, got {eta!r}")
    return float(eta)


def _solve_ring(n: int, L: float, eta: float, delta: float, quantum_numbers,
                theta, theta_prime, tol: float, max_iter: int,
                model: str, coupling: float) -> BetheState:
    # shared by both models: validate, solve k_j L = 2 pi I_j + delta -
    # sum_l theta(k_j - k_l), and package the ordered roots
    if n < 1:
        raise ValueError(f"need at least one particle, got N = {n}")
    if not math.isfinite(L):
        raise ValueError(f"box length must be finite, got L = {L!r}")
    if L <= 0:
        raise ValueError("box length must be positive")
    if max_iter < 1:
        raise ValueError(f"need at least one Newton step, got max_iter = {max_iter}")
    I = _validate_quantum_numbers(
        ground_state_quantum_numbers(n) if quantum_numbers is None else quantum_numbers)
    if len(I) != n:
        raise ValueError(f"need exactly N = {n} quantum numbers, got {len(I)}")
    k = _newton_log_form(I, L, delta, theta, theta_prime, tol, max_iter)
    return _finish_state(k, L, eta, I, model, coupling)


def solve_bethe(n: int, L: float, lam: float, quantum_numbers=None,
                eta: float | None = None, tol: float = 1e-13,
                max_iter: int = 200) -> BetheState:
    """Solve the fermion-model Bethe equations on a ring of length L.

    Repulsive sector only (lam > 0; the dual coupling c = 1/lam > 0
    guarantees real roots).  `eta` defaults to the parity rule; quantum
    numbers default to the symmetric ground-state block.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got lam = {lam!r}")
    if lam <= 0:
        raise ValueError(
            "lam must be positive: the attractive sector (lam <= 0) has complex "
            "string roots and is not supported by this solver"
        )
    eta = parity_rule_eta(n) if eta is None else _validate_eta(eta)
    delta = eta - (math.pi if n % 2 else 0.0)
    theta = lambda u: 2.0 * np.arctan(lam * u)
    theta_prime = lambda u: 2.0 * lam / (1.0 + (lam * u) ** 2)
    return _solve_ring(n, L, eta, delta, quantum_numbers, theta, theta_prime,
                       tol, max_iter, "fermion", lam)


def solve_lieb_liniger(n: int, L: float, c: float, eta: float = 0.0,
                       quantum_numbers=None, tol: float = 1e-13,
                       max_iter: int = 200) -> BetheState:
    """Solve the repulsive delta-gas Bethe equations (the duality control).

    Same logarithmic form with theta(u) = 2 arctan(u/c) and branch offset
    eta (periodic rings use eta = 0, the convention the duality refers to).
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got c = {c!r}")
    if c <= 0:
        raise ValueError("c must be positive (repulsive delta gas)")
    eta = _validate_eta(eta)
    theta = lambda u: 2.0 * np.arctan(u / c)
    theta_prime = lambda u: 2.0 * c / (c * c + u * u)
    return _solve_ring(n, L, eta, eta, quantum_numbers, theta, theta_prime,
                       tol, max_iter, "boson", c)


def bethe_residuals(state: BetheState) -> np.ndarray:
    """Multiplicative residuals |LHS/RHS - 1| of the quantization conditions.

    Fermion: exp(i k_j L) vs (-1)^N e^{i eta} prod_{l != j}
    (k_j - k_l + i/lam)/(k_j - k_l - i/lam); boson: exp(i k_j L) vs
    e^{i eta} prod_{l != j} (k_j - k_l + i c)/(k_j - k_l - i c).

    The product form shares no code with the log-form Newton solver, so it
    checks the roots independently.  Rows j are evaluated in blocks of
    RESIDUAL_BLOCK_ROWS: each block builds its factor matrix, sets the
    l = j entries to exactly 1 and multiplies each row from left to right,
    so temporaries stay O(RESIDUAL_BLOCK_ROWS * N) and no N x N array is
    allocated for N above the block size.  The modulus is taken with
    hypot, which rounds like the scalar complex abs; the result is bit for
    bit that of the plain double loop over j and l.
    """
    k = np.asarray(state.momenta)
    n = len(k)
    L = state.box_length
    phase = math.cos(state.boundary_phase)   # exactly +1 or -1
    if state.model == "fermion":
        c = 1.0 / state.coupling
        prefactor = phase * (-1.0) ** n
    else:
        c = state.coupling
        prefactor = phase
    out = np.empty(n)
    for rows in _row_blocks(n):
        d = k[rows, None] - k[None, :]
        factors = d + 1j * c
        factors /= d - 1j * c
        np.fill_diagonal(factors[:, rows], 1.0)
        rhs = prefactor * factors.prod(axis=1)
        z = np.exp(1j * k[rows] * L) / rhs - 1.0
        out[rows] = np.hypot(z.real, z.imag)
    return out


def duality_check(n: int, L: float, lam: float, eta: float | None = None) -> dict:
    """Solve the fermion model (lam > 0) in its ground-state block and the
    boson gas at c = 1/lam with the same quantum numbers, and report the
    root-by-root difference.

    With eta = None the fermion ring uses the parity rule (eta = 0 for even
    N, pi for odd N), under which the two root sets coincide; passing the
    opposite phase shows the macroscopic mismatch."""
    eta_used = parity_rule_eta(n) if eta is None else _validate_eta(eta)
    fermion = solve_bethe(n, L, lam, eta=eta_used)
    qn = fermion.quantum_numbers
    boson = solve_lieb_liniger(n, L, 1.0 / lam, quantum_numbers=qn)
    diff = np.abs(np.asarray(fermion.momenta) - np.asarray(boson.momenta))
    return {
        "n": n,
        "box_length": float(L),
        "lam": float(lam),
        "c_dual": 1.0 / lam,
        "eta": eta_used,
        "eta_follows_parity_rule": eta_used == parity_rule_eta(n),
        "quantum_numbers": [float(v) for v in qn],
        "fermion_roots": [float(v) for v in fermion.momenta],
        "boson_roots": [float(v) for v in boson.momenta],
        "max_abs_difference": float(diff.max()),
    }


def ground_state_scan(rho: float, lam: float, sizes) -> list[dict]:
    """Ground-state energy density e = E/L at fixed density rho = N/L for a
    list of increasing particle numbers.

    Successive increments |e(N_next) - e(N)| shrinking is the finite-size
    (Cauchy) behaviour behind the thermodynamic-limit claim.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one system size, got sizes = []")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    if not math.isfinite(rho):
        raise ValueError(f"density must be finite, got rho = {rho!r}")
    if rho <= 0:
        raise ValueError("density must be positive")
    rows = []
    for n in sizes:
        L = n / rho
        state = solve_bethe(n, L, lam)
        rows.append({
            "n": n,
            "box_length": L,
            "energy": state.energy,
            "energy_density": state.energy / L,
        })
    return rows


# ---------------------------------------------------------------------------
# diagnostics: residual scans used by the CLI and the acceptance suite


def schrodinger_residual(wf: BetheWavefunction, x) -> float:
    """Relative free-Schroedinger residual of the wavefunction wf at x,
    probed with central second differences of step h = 1e-6.

    One pass over wf's amplitude table at 40 mpmath digits (float64 cannot
    resolve a 1e-6 second-difference step below ~1e-3 relative error).
    From the N^2 phases exp(i k_m y_s) at the sorted point y, each term
    A_P prod_s exp(i k_{P_s} y_s) is formed once and added to W[s][m], the
    sum of the terms with momentum m in slot s; chi is sum_m W[0][m].  A +-h
    shift of slot s multiplies those by exp(+-i k_m h), so the central
    difference is exactly D2_s chi = sum_m W[s][m] (2 cos(k_m h) - 2) / h^2,
    evaluated as -4 sin^2(k_m h / 2) / h^2.  Returns |sum_s D2_s chi + E chi|
    / (sum_s |D2_s chi| + |E chi|), ~h^2 k^2 / 12 for a true eigenfunction.
    Every plane wave of the table has energy E, so any amplitude set passes;
    the contact conditions (`bc_residual`) are what pin the amplitudes.

    The N! terms are summed in fixed point, as Python integers scaled by
    2^F with F = prec + 64 (prec the working precision in bits).  The
    amplitudes are first divided by 2^e, e the binary exponent of their
    largest component (`math.frexp`), so every component is below 1 at any
    amplitude scale.  Each complex product truncates by >> F, the phases
    carry one truncation each, and the sums are exact, so each W[s][m] is
    off by fewer than 4 (N + 1) N! units of 2^(e - F), under
    2^(e - prec - 43) at N = 8: less than one rounding of a term-by-term
    mpmath sum.  W returns to mpmath as integer * 2^(e - F); the residual
    is homogeneous of degree zero in the amplitudes, and any power-of-two
    rescaling of them gives the same bits.
    """
    h = 1e-6
    xs = _checked_coords(wf, x)
    n = wf.n
    if n > 1:
        gap = min(abs(xs[a] - xs[b]) for a in range(n) for b in range(a + 1, n))
        if gap <= 4 * h:
            raise ValueError("coordinates too close for the finite-difference step")
    import mpmath as mp

    with mp.workdps(40):
        hh = mp.mpf(h)
        k = [mp.mpf(float(v)) for v in wf.momenta]
        y = sorted(xs)
        frac = mp.mp.prec + 64
        table = [(p, complex(a)) for p, a in wf.amplitudes.items()]
        scale = math.frexp(max(max(abs(a.real), abs(a.imag)) for _, a in table))[1]
        phase = [[(int(mp.ldexp(z.real, frac)), int(mp.ldexp(z.imag, frac)))
                  for z in (mp.exp(mp.mpc(0, km * ys)) for ys in y)] for km in k]
        w_re = [[0] * n for _ in range(n)]
        w_im = [[0] * n for _ in range(n)]
        for p, a in table:
            re = int(math.ldexp(a.real, frac - scale))
            im = int(math.ldexp(a.imag, frac - scale))
            for s, m in enumerate(p):
                pr, pi = phase[m][s]
                re, im = (re * pr - im * pi) >> frac, (re * pi + im * pr) >> frac
            for s, m in enumerate(p):
                w_re[s][m] += re
                w_im[s][m] += im

        def to_mpc(re, im):
            return mp.mpc(mp.mpf((re, scale - frac)), mp.mpf((im, scale - frac)))

        chi0 = to_mpc(sum(w_re[0]), sum(w_im[0]))
        w = [list(map(to_mpc, row_re, row_im)) for row_re, row_im in zip(w_re, w_im)]
        d2_factor = [-4 * mp.sin(km * hh / 2) ** 2 / (hh * hh) for km in k]
        e_tot = mp.fsum(km ** 2 for km in k)
        num = e_tot * chi0
        denom = abs(num)
        for row in w:
            d2 = mp.fsum(ws * c for ws, c in zip(row, d2_factor))
            num += d2
            denom += abs(d2)
        return float(abs(num) / denom)


def gaudin_residual_scan(n: int, draws: int, seed: int = 0) -> list[dict]:
    """Random-draw verification of the Gaudin eigenfunctions.

    Per draw: random distinct momenta in (-3, 3) and coupling in (0.1, 10),
    one `gaudin_wavefunction` state, its contact-condition defects on every
    adjacent hyperplane x_j = x_{j+1} (one wedge sum per contact), and
    its finite-difference Schroedinger residual at a random interior point.
    Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    if draws < 1:
        raise ValueError(f"need at least one draw, got draws = {draws}")
    rng = random.Random(seed)

    def distinct_draw(count, lo, hi, min_gap):
        while True:
            vals = [rng.uniform(lo, hi) for _ in range(count)]
            ok = all(abs(vals[a] - vals[b]) > min_gap
                     for a in range(count) for b in range(a + 1, count))
            if ok:
                return vals

    records = []
    for draw in range(int(draws)):
        lam = rng.uniform(0.1, 10.0)
        momenta = distinct_draw(n, -3.0, 3.0, 1e-3)
        wf = gaudin_wavefunction(momenta, lam)

        max_deriv = 0.0
        max_value = 0.0
        for j in range(n - 1):
            # base point on x_j = x_{j+1} with distinct spectators
            t, *spect = distinct_draw(n - 1, 0.0, 5.0, 5e-2)
            point = spect[:j] + [t, t] + spect[j:]
            res = bc_residual(wf, lam, (j, j + 1), point)
            max_deriv = max(max_deriv, float(abs(res.derivative_jump)))
            max_value = max(max_value, float(abs(res.value_jump_defect)))

        point = distinct_draw(n, 0.0, 5.0, 5e-2)
        fd = schrodinger_residual(wf, point)
        records.append({
            "draw": draw,
            "n": n,
            "lam": lam,
            "momenta": momenta,
            "max_derivative_jump": max_deriv,
            "max_value_jump_defect": max_value,
            "schrodinger_residual": fd,
        })
    return records
