"""Finite-ring Bethe equations for the momentum-dependent contact gas and
the dual delta-interaction boson gas; the Gaudin eigenfunctions are in `gaudin`.

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
condition number of a few units at every N, unless theta' of order lam
on clustered hard-core roots hides L in float64 (a singular J raises
ConvergenceError).  Up to DIRECT_SOLVE_MAX particles each step is a dense
LU solve, so small-N roots (the golden records among them) stay bit for
bit; above it Jacobi-preconditioned conjugate gradients solve the step in
a few matrix-vector products instead of O(N^3) work, and a curvature
p.Jp that is not positive and finite is the same singular J.

Nested start.  Up to DIRECT_SOLVE_MAX Newton starts from the free momenta
(2 pi I_j + delta) / L.  Above it, it starts from the roots of a coarse
ring of M = N // 4 equations, one at the midpoint c = (m + 1/2) r - 1/2 of
each of M equal blocks of the index range [-1/2, N - 1/2], r = N / M, with
the quantum numbers I_c interpolated linearly there:

    k (L/r) = 2 pi (I_c / r) + delta/r - sum_{l in coarse} theta(k - k_l),

the same log form, since r times a sum over the M coarse roots is the
midpoint rule for the sum over all N (grid sequencing: Knoll and Keyes,
J. Comput. Phys. 193, 357 (2004)).  The coarse ring is solved the same
way, so the recursion stops at the first ring of DIRECT_SOLVE_MAX or fewer
equations, which starts free and steps by LU (N = 1024: 256, then 64).  Its
roots, interpolated linearly in I and extrapolated linearly past the end
nodes, start the finer ring with a log-form residual of about 0.07 at
lam = 1 and 0.4 at lam = 10, largest at the two end roots (N = 1000 to
1025, density 2), which then takes 1 to 3 steps where the free start took
2 to 7 (N = 300 and 1024, lam = 0.01 to 10).  The log form is the
gradient of a convex action (Yang and Yang, J. Math. Phys. 10, 1115
(1969)), so the start changes the steps, not the roots.  A coarse ring
that raises ConvergenceError leaves the free start, and tol and max_iter
apply to each ring alike.

Row blocks.  The log form, the Jacobian fill and the product-form check
`bethe_residuals` run over the rows j of their pairwise arrays in blocks
of RESIDUAL_BLOCK_ROWS.  From SPLIT_MIN_BLOCKS blocks on, each pass splits
its blocks into contiguous groups, one per CPU the process may run on
(`os.sched_getaffinity`; there is no setting): the calling thread runs the
first group and a `concurrent.futures.ThreadPoolExecutor` the others, made
on first use, one per process (a forked child makes its own); a pass of one
group imports nothing and starts no thread.  Each row is computed by one
thread with the same operations, so the bits do not depend on the split.
theta and theta' act in place: the log form and the check work in per-group
scratch blocks that the calling thread allocates once per solve (once per
call of the check), and the Jacobian fill writes theta' straight into J's
rows, so the workers allocate nothing of size N.  J is still the only
N x N array on either path, allocated once per solve on pages of its own,
and both solves take it as filled.  The models
differ only in theta and theta', each coded on its own, so `duality_check`
compares two independent codings of the same equation; `_log_form` and
`_newton_step` evaluate both under one float-range policy (the comment
above `_log_form`), which each group enters itself, as numpy's error state
is per thread.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
from typing import NamedTuple

import numpy as np

from . import ConvergenceError
from .twobody import _check_finite, _check_integer, _require_finite

# the benchmark's span tracer names these three in `bethe`; imported eagerly,
# they load `gaudin` with `bethe`, so the tracer wraps its calls there too
from .gaudin import gaudin_residual_scan, gaudin_wavefunction, schrodinger_residual  # noqa: F401

__all__ = [
    "ConvergenceError", "BetheState",
    "solve_bethe", "solve_lieb_liniger", "bethe_residuals",
    "duality_check", "ground_state_scan", "ground_state_quantum_numbers",
]

# rows of an N x N pairwise array evaluated at once, in the log-form
# residual, the Newton Jacobian fill and the product-form check: each thread
# works through its rows one block at a time in a scratch block of this many
# rows (0.5 MB of float64 or 1 MB of complex per block at N = 1024, where one
# N x N complex matrix takes 16 MB), and the Jacobian fill in J's own rows
RESIDUAL_BLOCK_ROWS = 64

# fewest row blocks whose passes are split across the CPUs the process may
# run on.  A split costs a hand-off to the worker threads per pass: on a
# 2-core x86-64 machine (40 interleaved solves, lam = 1, density 1) the
# split solve took 15% longer at 4 blocks (N = 256), from 6% longer to 17%
# less at 5-7 blocks, and 27% less at 8 blocks (N = 512) than one thread
SPLIT_MIN_BLOCKS = 8

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


class BetheState(NamedTuple):
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


def _row_blocks(rows: range):
    # the row slices of a group of rows, RESIDUAL_BLOCK_ROWS at a time
    return (slice(start, min(start + RESIDUAL_BLOCK_ROWS, rows.stop))
            for start in range(rows.start, rows.stop, RESIDUAL_BLOCK_ROWS))


def _cpus() -> int:
    # the CPUs the process may run on, read at each call
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _row_groups(n: int) -> list[range]:
    # contiguous runs of whole row blocks, one per CPU the process may run on
    # from SPLIT_MIN_BLOCKS blocks on, a single run below that
    blocks = -(-n // RESIDUAL_BLOCK_ROWS)
    count = 1 if blocks < SPLIT_MIN_BLOCKS else min(blocks, _cpus())
    edges = [min(n, RESIDUAL_BLOCK_ROWS * (blocks * g // count)) for g in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


_pools = {}   # pid -> the ThreadPoolExecutor of that process's split passes


def _on_groups(groups: list[range], work) -> None:
    # work(g, rows) for each group g of `_row_groups`: in the calling thread
    # alone for one group, else group 0 there and the others on the pool,
    # made on first use with a worker per further CPU (or group, if more);
    # a forked child inherits the object, not its threads.  Every group
    # finishes before the pass returns or raises; the lowest group's error wins
    if len(groups) == 1:
        return work(0, groups[0])
    from concurrent.futures import ThreadPoolExecutor

    # setdefault is atomic, so threads that race here share one pool
    pool = _pools.get(os.getpid()) or _pools.setdefault(os.getpid(), ThreadPoolExecutor(
        max(_cpus(), len(groups)) - 1, thread_name_prefix="momgas-rows"))
    futures = [pool.submit(work, g, rows) for g, rows in enumerate(groups[1:], 1)]
    try:
        work(0, groups[0])
    finally:
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error


def _jacobi_pcg(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    # conjugate gradients for J x = b, preconditioned by the diagonal; stops
    # at a recursive residual of 1e-15 ||b|| or after N iterations, the
    # exact-arithmetic bound.  A curvature p.Jp that is not positive and
    # finite means J is singular in float64, and raises LinAlgError as the
    # LU solve does
    diag = J.diagonal()
    x = b / diag
    r = b - J @ x
    z = r / diag
    p = z
    rz = r @ z
    bound = 1e-15 * np.linalg.norm(b)
    for _ in range(len(b)):
        if np.linalg.norm(r) <= bound:
            break
        q = J @ p
        curvature = p @ q
        if not 0.0 < curvature < math.inf:
            raise np.linalg.LinAlgError(f"curvature p.Jp = {curvature:g}")
        alpha = rz / curvature
        x = x + alpha * p
        r = r - alpha * q
        z = r / diag
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x


# One float-range policy for both models, where theta and theta' are
# evaluated.  At a hard-core coupling or in a tiny box lam u, u / c, (lam u)^2
# and u^2 overflow to inf without harm: arctan(+-inf) = +-pi/2 is the correctly
# rounded value long before float64 ends, and 2 lam / inf = 2 c / inf = 0 is
# theta''s limit.  c^2 may underflow, so the diagonal u = 0 reads 2 c / 0 = inf;
# `_newton_step` discards the diagonal.  theta' doubles its quotient last, so
# 2 lam, which overflows from lam = 9e307, is never formed.  theta' only steers
# the step: the roots are the zeros of the log form, which theta alone fixes.


def _log_form(k: np.ndarray, I: np.ndarray, L: float, delta: float, theta,
              groups: list[range], scratch: list[np.ndarray]) -> np.ndarray:
    # k_j L - 2 pi I_j - delta + sum_l theta(k_j - k_l), summed in row blocks;
    # group g forms its differences and theta in place in scratch[g]
    out = k * L - 2.0 * math.pi * I - delta

    def work(g, rows):
        with np.errstate(over="ignore"):
            for block in _row_blocks(rows):
                u = scratch[g][:block.stop - block.start]
                np.subtract(k[block, None], k[None, :], out=u)
                theta(u)
                out[block] += u.sum(axis=1)

    _on_groups(groups, work)
    return out


def _newton_step(k: np.ndarray, f: np.ndarray, L: float, theta_prime, it: int,
                 groups: list[range], J: np.ndarray) -> np.ndarray:
    # full Newton step -J^{-1} f with J = diag(L + sum_l a_jl) - a,
    # a_jl = theta'(k_j - k_l) and a_jj = 0: a dense LU solve up to
    # DIRECT_SOLVE_MAX, Jacobi-preconditioned CG above (J is SPD, see the
    # module docstring).  J is filled in place one row block at a time and
    # is the only N x N array on either path
    n = len(k)

    def work(g, rows):
        with np.errstate(over="ignore", divide="ignore"):
            for block in _row_blocks(rows):
                a, square = J[block], J[block, block]
                np.subtract(k[block, None], k[None, :], out=a)
                theta_prime(a)
                np.negative(a, out=a)
                np.fill_diagonal(square, 0.0)
                np.fill_diagonal(square, L - a.sum(axis=1))

    _on_groups(groups, work)
    try:
        return _jacobi_pcg(J, -f) if n > DIRECT_SOLVE_MAX else np.linalg.solve(J, -f)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            f"Newton matrix is singular in float64 at step {it + 1}: L = {L:g} is lost "
            f"against the largest row sum of theta', {J.diagonal().max() - L:.3g}") from None


def _newton_start(I: np.ndarray, L: float, delta: float, theta, theta_prime,
                  tol: float, max_iter: int) -> np.ndarray:
    # Newton's start (module docstring, nested start).  A coarse ring that
    # does not converge leaves the free start, so the caller's ring fails
    # only where it fails from the free momenta
    free = (2.0 * math.pi * I + delta) / L
    n = len(I)
    if n <= DIRECT_SOLVE_MAX:
        return free
    # N // 4 equations at the midpoints of equal blocks of the index range
    # [-1/2, N - 1/2], each standing for r = N / M fine equations
    m = n // 4
    r = n / m
    sub = np.interp((np.arange(m) + 0.5) * r - 0.5, np.arange(n), I)
    try:
        coarse = _newton_log_form(sub / r, L / r, delta / r, theta, theta_prime,
                                  tol, max_iter)
    except ConvergenceError:
        return free
    k = np.interp(I, sub, coarse)
    head, tail = I < sub[0], I > sub[-1]
    k[head] = coarse[0] + (I[head] - sub[0]) * ((coarse[1] - coarse[0]) / (sub[1] - sub[0]))
    k[tail] = coarse[-1] + (I[tail] - sub[-1]) * ((coarse[-1] - coarse[-2]) / (sub[-1] - sub[-2]))
    return k


def _newton_log_form(I: np.ndarray, L: float, delta: float, theta, theta_prime,
                     tol: float, max_iter: int) -> np.ndarray:
    n = len(I)
    # before J is mapped, so that the coarse rings' J are freed first
    k = _newton_start(I, L, delta, theta, theta_prime, tol, max_iter)
    groups = _row_groups(n)
    scratch = [np.empty((min(n, RESIDUAL_BLOCK_ROWS), n)) for _ in groups]
    # J of more than one row block on pages mapped for this solve alone,
    # faulted in by the mapping call: freed, they go back to the OS.  From
    # malloc's heap, J would leave an N x N hole that any small array
    # allocated later can pin, and the next large allocation would grow the
    # heap: 4 of 10 ring benchmark runs peaked 7-13 MB higher that way.  A
    # mapping costs about 10 us, a few percent of a solve of one block
    if n <= RESIDUAL_BLOCK_ROWS:
        J = np.empty((n, n))
    else:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
        J = np.frombuffer(mmap.mmap(-1, n * n * 8, flags=flags)).reshape(n, n)
    f = _log_form(k, I, L, delta, theta, groups, scratch)
    for it in range(max_iter + 1):
        norm0 = np.max(np.abs(f))
        if norm0 <= tol:
            return k
        if it == max_iter:
            raise ConvergenceError(
                f"Newton iteration did not reach residual {tol:g} in {max_iter} steps")
        step = _newton_step(k, f, L, theta_prime, it, groups, J)
        scale = 1.0
        # step halving until the residual norm decreases
        for _ in range(60):
            trial = k + scale * step
            ftrial = _log_form(trial, I, L, delta, theta, groups, scratch)
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


def _validate_eta(eta: float) -> float:
    if eta not in (0.0, math.pi):
        raise ValueError(f"boundary phase eta must be 0 or pi, got {eta!r}")
    return float(eta)


def _solve_ring(n: int, L: float, eta: float, delta: float, quantum_numbers,
                theta, theta_prime, tol: float, max_iter: int,
                model: str, coupling: float) -> BetheState:
    # shared by both models: validate, solve k_j L = 2 pi I_j + delta -
    # sum_l theta(k_j - k_l), and package the ordered roots
    _check_integer(n=n, max_iter=max_iter)
    if n < 1:
        raise ValueError(f"need at least one particle, got N = {n}")
    if not math.isfinite(L):
        raise ValueError(f"box length must be finite, got L = {L!r}")
    if L <= 0:
        raise ValueError("box length must be positive")
    if max_iter < 1:
        raise ValueError(f"need at least one Newton step, got max_iter = {max_iter}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got tol = {tol!r}")
    I = np.asarray(_require_finite(ground_state_quantum_numbers(n) if quantum_numbers is None
                                   else quantum_numbers, "quantum number"), dtype=float)
    if not np.all(np.diff(I) > 0):
        raise ValueError("quantum numbers must be strictly increasing")
    if len(I) != n:
        raise ValueError(f"need exactly N = {n} quantum numbers, got {len(I)}")
    # the free energy the roots start from, in scalar floats, which
    # overflow to inf without a RuntimeWarning
    top = float(np.max(np.abs(I)))
    free = (2.0 * math.pi * top + abs(delta)) / L
    if not math.isfinite(n * free * free):
        raise ValueError(f"box length L = {L!r} is too small for N = {n} and max|I_j| = {top!r}: "
                         "the free energy N ((2 pi max|I_j| + |delta|) / L)^2 overflows float64")
    k = _newton_log_form(I, L, delta, theta, theta_prime, tol, max_iter)
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


def solve_bethe(n: int, L: float, lam: float, quantum_numbers=None,
                eta: float | None = None, tol: float = 1e-13,
                max_iter: int = 200) -> BetheState:
    """Solve the fermion-model Bethe equations on a ring of length L.

    Repulsive sector only (lam > 0; the dual coupling c = 1/lam > 0
    guarantees real roots).  `eta` defaults to the parity rule; quantum
    numbers default to the symmetric ground-state block.
    """
    _check_finite(lam=lam)
    if lam <= 0:
        raise ValueError(
            "lam must be positive: the attractive sector (lam <= 0) has complex "
            "string roots and is not supported by this solver"
        )
    eta = parity_rule_eta(n) if eta is None else _validate_eta(eta)
    delta = eta - parity_rule_eta(n)

    def theta(u):   # u <- 2 arctan(lam u), in place
        u *= lam
        np.arctan(u, out=u)
        u *= 2.0

    def theta_prime(u):   # u <- 2 (lam / (1 + (lam u)^2)), in place
        u *= lam
        np.square(u, out=u)
        u += 1.0
        np.divide(lam, u, out=u)
        u *= 2.0

    return _solve_ring(n, L, eta, delta, quantum_numbers, theta, theta_prime,
                       tol, max_iter, "fermion", lam)


def solve_lieb_liniger(n: int, L: float, c: float, eta: float = 0.0,
                       quantum_numbers=None, tol: float = 1e-13,
                       max_iter: int = 200) -> BetheState:
    """Solve the repulsive delta-gas Bethe equations (the duality control).

    Same logarithmic form with theta(u) = 2 arctan(u/c) and branch offset
    eta (periodic rings use eta = 0, the convention the duality refers to).
    """
    _check_finite(c=c)
    if c <= 0:
        raise ValueError("c must be positive (repulsive delta gas)")
    eta = _validate_eta(eta)

    def theta(u):   # u <- 2 arctan(u / c), in place
        u /= c
        np.arctan(u, out=u)
        u *= 2.0

    def theta_prime(u):   # u <- 2 (c / (c c + u u)), in place
        np.square(u, out=u)
        u += c * c
        np.divide(c, u, out=u)
        u *= 2.0

    return _solve_ring(n, L, eta, eta, quantum_numbers, theta, theta_prime,
                       tol, max_iter, "boson", c)


def bethe_residuals(state: BetheState) -> np.ndarray:
    """Multiplicative residuals |LHS/RHS - 1| of the quantization conditions.

    Fermion: exp(i k_j L) vs (-1)^N e^{i eta} prod_{l != j}
    (k_j - k_l + i/lam)/(k_j - k_l - i/lam); boson: exp(i k_j L) vs
    e^{i eta} prod_{l != j} (k_j - k_l + i c)/(k_j - k_l - i c).

    The product form shares no code with the log-form Newton solver, so it
    checks the roots independently.  Rows j are evaluated in blocks of
    RESIDUAL_BLOCK_ROWS, split across the CPUs the process may run on as the
    solver's passes are (module docstring): each block builds its factor
    matrix in its group's scratch, two RESIDUAL_BLOCK_ROWS x N complex
    blocks, sets the l = j entries of both to 1, so that their quotient is
    exactly 1 at any coupling, divides, and multiplies each row from
    left to right, so no N x N array is allocated for N above the block
    size.  The modulus is taken with hypot, which rounds like the scalar
    complex abs; the result is bit for bit that of the plain double loop
    over j and l, whatever the split.
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
    groups = _row_groups(n)
    scratch = [np.empty((2, min(n, RESIDUAL_BLOCK_ROWS), n), complex) for _ in groups]
    shift = 1j * c

    def work(g, rows):
        for block in _row_blocks(rows):
            num, den = scratch[g][:, :block.stop - block.start]
            # d + 0j, then d + i c and d - i c: the operations of `d + 1j * c`
            np.subtract(k[block, None], k[None, :], out=num.real)
            num.imag = 0.0
            np.subtract(num, shift, out=den)
            num += shift
            # l = j divides 1 by 1: (0 + ic) / (0 - ic) would take 1/c, which
            # overflows for a subnormal c
            np.fill_diagonal(num[:, block], 1.0)
            np.fill_diagonal(den[:, block], 1.0)
            num /= den
            rhs = prefactor * num.prod(axis=1)
            z = np.exp(1j * k[block] * L) / rhs - 1.0
            out[block] = np.hypot(z.real, z.imag)

    _on_groups(groups, work)
    return out


def duality_check(n: int, L: float, lam: float, eta: float | None = None) -> dict:
    """Solve the fermion model (lam > 0) in its ground-state block and the
    boson gas at c = 1/lam with the same quantum numbers, and report the
    root-by-root difference.

    With eta = None the fermion ring uses the parity rule (eta = 0 for even
    N, pi for odd N), under which the two root sets coincide; passing the
    opposite phase shows the macroscopic mismatch."""
    # before the fermion solve, which this would waste; a lam that is not
    # positive is left to the solve's own message
    if lam > 0 and math.isinf(1.0 / lam):
        raise ValueError(f"lam = {lam!r} has no dual delta gas: c = 1/lam overflows float64")
    fermion = solve_bethe(n, L, lam, eta=eta)
    c_dual = 1.0 / lam
    qn, eta_used = fermion.quantum_numbers, fermion.boundary_phase
    boson = solve_lieb_liniger(n, L, c_dual, quantum_numbers=qn)
    return {
        "n": n,
        "box_length": float(L),
        "lam": float(lam),
        "c_dual": c_dual,
        "eta": eta_used,
        "eta_follows_parity_rule": eta_used == parity_rule_eta(n),
        "quantum_numbers": [float(v) for v in qn],
        "fermion_roots": [float(v) for v in fermion.momenta],
        "boson_roots": [float(v) for v in boson.momenta],
        "max_abs_difference": max(abs(f - b) for f, b in zip(fermion.momenta, boson.momenta)),
    }


def ground_state_scan(rho: float, lam: float, sizes) -> list[dict]:
    """Ground-state energy density e = E/L at fixed density rho = N/L for a
    list of increasing integer particle numbers.

    Successive increments |e(N_next) - e(N)| shrinking is the finite-size
    (Cauchy) behaviour behind the thermodynamic-limit claim.
    """
    sizes = list(sizes)
    bad = [s for s in sizes if not isinstance(s, numbers.Integral)]
    if bad:
        raise ValueError(f"sizes must be integers, got {bad}")
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
