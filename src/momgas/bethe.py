"""Bethe-ansatz eigenfunctions and finite-ring Bethe equations for the
momentum-dependent contact gas, plus the dual delta-interaction boson gas.

Wedge formula.  In the fundamental wedge x_1 < x_2 < ... < x_N every fermion
eigenfunction is a Gaudin-type sum of plane waves,

    chi(x) = sum_{P in S_N} A_P exp(i sum_j k_{Pj} x_j),
    A_P = sgn(P) * prod_{1 <= l < j <= N} (i*lam*(k_{Pj} - k_{Pl}) + 1),

and the extension off the wedge is antisymmetric.  A state
(`BetheWavefunction`) is the momenta and the pair ratios of A_P / A_id,
the same eigenfunction up to a global constant:

    A_P / A_id = prod_{l<j} g[P_l][P_j],
    g[a][b] = 1 (a < b),
    g[a][b] = -(1 + i*lam*(k_b - k_a)) / (1 - i*lam*(k_b - k_a)) (a > b),

where g[a][b] is the factor the pair picks up when a is placed before b.
Every g is unimodular, so every |A_P / A_id| = 1 at any lam.

Recursion over subsets.  Placing momentum m in slot s, after the set S
(|S| = s) of those already placed, multiplies a term by
t(S, m) = T(S, m) exp(i k_m y_s), T(S, m) = prod_{a in S} g[a][m], which
depends on the set S and not on its order.  So the N! plane waves sum by a
dynamic program over subsets (Held and Karp, J. SIAM 10, 196 (1962)) in
O(2^N N) products instead of N! N: the forward pass
F(S + {m}) += F(S) t(S, m) from F({}) = 1, the backward pass
B(S) = sum_{m not in S} t(S, m) B(S + {m}) from B(all) = 1, and the slot
sums

    W[s][m] = sum over P with P_s = m of the terms
            = sum_{|S| = s, m not in S} F(S) t(S, m) B(S + {m}),

with chi = sum_m W[s][m] for any s.  Since g[a][m] = 1 for a < m,
T(S, m) depends only on the members of S above m: the N tables of T take
2^N - 1 entries in all.  The passes run one layer of subsets (one |S|) at
a time.  `bc_residual` reads each contact x_j = x_k in slots r and r + 1
from one such sum, taken with the contact at the origin
(`BetheWavefunction.contact_limits`): the value sum_m W[r][m] and the
slope i sum_m k_m (W[r+1][m] - W[r][m]), in complex float.
`eval_wavefunction` is the backward pass alone.  Nothing here enumerates
S_N.

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

Schroedinger probe.  `schrodinger_residual` takes a wavefunction, as
`bc_residual` does, and runs the same recursion at 40 mpmath digits: N^2
phases exp(i k_m y_s), each the cosine and sine of the exact product
k_m y_s from mpmath's kernel, give the per-slot phases, and a +-h shift of
slot s rescales each momentum's terms there, so all N second differences
come from the slot sums W.  The recursion and the O(N^2) tail run on
Python integers in fixed point, 64 bits finer than the working precision:
no mpc value is formed, and the residual is one int / int division.  Its
error bound, fewer than 2^21 units of the last fixed-point bit at N = 8,
is derived in the function's docstring.  `gaudin_residual_scan` builds one
state per draw and passes it to both checks.  numpy is imported by the
ring solvers and mpmath by the probe, each when it runs, so the ring
solvers load numpy alone and the Gaudin checks mpmath alone.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import os
import random
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

from . import ConvergenceError
from .twobody import _check_finite, _check_integer, _require_finite, bc_residual, perm_sign

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_PARTICLES_ENUMERATED", "ConvergenceError",
    "BetheState", "BetheWavefunction",
    "gaudin_wavefunction",
    "eval_wavefunction",
    "solve_bethe", "solve_lieb_liniger", "bethe_residuals",
    "duality_check", "ground_state_scan", "ground_state_quantum_numbers",
    "schrodinger_residual", "gaudin_residual_scan",
]

# the largest N of a Gaudin state: the recursion's tables grow as 2^N, and
# the checks are verified up to this N (lifting it is ROADMAP item 4)
MAX_PARTICLES_ENUMERATED = 8

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


def _require_distinct(values, message: str) -> None:
    if len(set(values)) != len(values):
        raise ValueError(message)


def _gaudin_momenta(momenta) -> tuple[float, ...]:
    k = _require_finite(momenta, "momentum")
    if not k:
        raise ValueError("need at least one momentum")
    _require_distinct(k, "momenta must be pairwise distinct (the determinant vanishes)")
    return tuple(k)


def _gather(indices):
    # itemgetter that returns a tuple for any number of indices
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return operator.itemgetter(*indices)


class _Layer(NamedTuple):
    # the pairs (S, m) with |S| = s and m not in S, S in increasing mask
    # order and then m, as gathers: T(S, m) from the flat columns, the phase
    # exp(i k_m y_s) from the flat phases, F(S) from layer s, B(S + {m}) from
    # layer s + 1, k_m from the momenta; by_union and by_momentum reorder
    # the pairs by S + {m} (s + 1 each) and by m (C(N - 1, s) each)
    col: Callable
    phase: Callable
    below: Callable
    above: Callable
    momentum: Callable
    by_union: Callable
    by_momentum: Callable


@functools.cache
def _layers(n: int) -> list[_Layer]:
    # a _Layer per size s = 0..n-1; a layer lists its subsets (bit masks) in
    # increasing order
    masks = [[s for s in range(1 << n) if s.bit_count() == size] for size in range(n + 1)]
    place = {s: i for layer in masks for i, s in enumerate(layer)}
    layers = []
    for size in range(n):
        pairs = [(s, m) for s in masks[size] for m in range(n) if not s >> m & 1]
        union = sorted(range(len(pairs)), key=lambda i: (place[pairs[i][0] | 1 << pairs[i][1]],
                                                         pairs[i][1]))
        momentum = sorted(range(len(pairs)), key=lambda i: pairs[i][1])
        layers.append(_Layer(
            col=_gather([(1 << n) - (1 << n - m) + (s >> m + 1) for s, m in pairs]),
            phase=_gather([m * n + size for _, m in pairs]),
            below=_gather([place[s] for s, _ in pairs]),
            above=_gather([place[s | 1 << m] for s, m in pairs]),
            momentum=_gather([m for _, m in pairs]),
            by_union=_gather(union),
            by_momentum=_gather(momentum)))
    return layers


def _pair_columns(g, one, mul) -> list:
    # T(S, m) = prod_{a in S} g[a][m] for m not in S; g[a][m] is one for
    # a < m, so T(S, m) depends on S only through its members above m, and
    # column m is a table over the subsets of {m + 1, .., N - 1} (the bits of
    # S >> (m + 1)); the N columns are concatenated, 2^N - 1 entries in all
    out = []
    for m in range(len(g)):
        col = [one]
        for a in range(m + 1, len(g)):
            col += [mul(c, g[a][m]) for c in col]
        out += col
    return out


def _groups(terms, size: int, total) -> list:
    # totals of consecutive runs of `size` terms
    return list(map(total, zip(*[iter(terms)] * size)))


def _passes(cols, phases, lo, hi, one, mul, total) -> tuple[list, list, list, list]:
    # the recursion over subsets of the module docstring in the arithmetic
    # (one, mul, total), one layer of subsets at a time, from the flat
    # columns T of `_pair_columns` and the N^2 phases exp(i k_m y_s), flat
    # at m * N + s: per size s, the forward sums F(S) for s <= hi with the
    # terms F(S) t(S, m) of size s < hi, and the backward sums B(S) for
    # s >= lo with the terms t(S, m) B(S + {m}) of size s, where
    # t(S, m) = T(S, m) exp(i k_m y_s)
    n = math.isqrt(len(phases))
    layers = _layers(n)
    factors = [list(map(mul, p.col(cols), p.phase(phases))) for p in layers]
    back, products = [None] * n + [[one]], [None] * n
    for size in range(n - 1, lo - 1, -1):
        terms = products[size] = list(map(mul, factors[size], layers[size].above(back[size + 1])))
        back[size] = _groups(terms, n - size, total)
    forward, incs = [[one]] + [None] * n, [None] * n
    for size in range(hi):
        p = layers[size]
        terms = incs[size] = list(map(mul, p.below(forward[size]), factors[size]))
        forward[size + 1] = _groups(p.by_union(terms), size + 1, total)
    return forward, incs, back, products


class BetheWavefunction:
    """A fermion Bethe-ansatz wavefunction: momenta plus the pair ratios g
    of its wedge amplitudes, A_P / A_id = prod_{l<j} g[P_l][P_j], extended
    antisymmetrically off the wedge.

    `pair_ratios` is an N x N matrix: 1 on and above the diagonal and
    unimodular below it (to 1e-12), where g[a][b] is the factor a pair
    picks up when a is placed before b.  N is capped at
    MAX_PARTICLES_ENUMERATED: the recursion's tables grow as 2^N, and the
    checks are verified up to that N.
    """
    momenta: tuple[float, ...]
    pair_ratios: tuple[tuple[complex, ...], ...]

    def __init__(self, momenta, pair_ratios):
        self.momenta = tuple(_require_finite(momenta, "momentum"))
        n = len(self.momenta)
        if n > MAX_PARTICLES_ENUMERATED:
            raise ValueError(f"N = {n} exceeds the particle guard ({MAX_PARTICLES_ENUMERATED})")
        rows = tuple(tuple(complex(v) for v in row) for row in pair_ratios)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"pair_ratios must be an N x N matrix with N = {n}, got rows of "
                             f"lengths {[len(row) for row in rows]}")
        for a, row in enumerate(rows):
            for b, v in enumerate(row):
                if not cmath.isfinite(v):
                    raise ValueError(f"pair ratio g[{a}][{b}] is not finite: {v}")
                if a <= b and v != 1:
                    raise ValueError(f"pair ratio g[{a}][{b}] on or above the diagonal must "
                                     f"be 1, got {v}")
                if abs(abs(v) - 1.0) > 1e-12:
                    raise ValueError(f"pair ratio g[{a}][{b}] is not unimodular: |g| = {abs(v)}")
        self.pair_ratios = rows
        # T(S, m) of the recursion (`_pair_columns`), shared by every float sum
        self._columns = _pair_columns(rows, 1 + 0j, operator.mul)

    def __repr__(self) -> str:
        return f"BetheWavefunction(momenta={self.momenta!r}, pair_ratios={self.pair_ratios!r})"

    @property
    def n(self) -> int:
        return len(self.momenta)

    def _sums(self, y, lo, hi) -> tuple[list, list, list, list]:
        # `_passes` of the wedge sum at ordered y, in complex float
        phases = [cmath.exp(1j * (km * ys)) for km in self.momenta for ys in y]
        return _passes(self._columns, phases, lo, hi, 1 + 0j, operator.mul, sum)

    def contact_limits(self, x, pair) -> tuple[complex, complex]:
        """Limits (chi, (d_j - d_k) chi) on x_j = x_k + 0+, (j, k) = pair,
        with x_k read as x_j.  The x_j = x_k - 0+ side is that sector with
        the two swapped: -chi with the same slope (`bc_residual` reads it so).

        The + side sorts k just before j, into slots r and r + 1, so one
        wedge sum gives the value sum_m W[r][m] and the slope
        i sum_m k_m (W[r+1][m] - W[r][m]).  The passes meet at the sets U of
        the first r + 1 slots: chi is sum_U F(U) B(U), sum_m k_m W[r][m]
        weights the last momentum placed by F(U) and sum_m k_m W[r+1][m] the
        next one placed by B(U).  It is taken at y - x_j, the contact at the
        origin, where the phases of slots r and r + 1 are exactly 1.  Each
        limit carries the unimodular factor exp(-i K x_j), K = sum_m k_m."""
        j, k = pair
        x = [float(v) for v in x]
        x[k] = x[j]
        order = sorted(range(self.n), key=lambda m: (x[m], m == j))
        r = order.index(k)
        forward, incs, back, products = self._sums([x[m] - x[j] for m in order], r + 1, r + 1)
        size, layers, km = r + 1, _layers(self.n), self.momenta
        value = sum(map(operator.mul, forward[size], back[size]))
        weighted = list(map(operator.mul, layers[r].momentum(km), incs[r]))
        placed = _groups(layers[r].by_union(weighted), size, sum)
        following = _groups(map(operator.mul, layers[size].momentum(km), products[size]),
                            self.n - size, sum)
        slope = 1j * (sum(map(operator.mul, forward[size], following))
                      - sum(map(operator.mul, placed, back[size])))
        s = perm_sign(order)
        return s * value, s * slope


def gaudin_wavefunction(momenta, lam: float) -> BetheWavefunction:
    """Fermion eigenfunction with Gaudin amplitudes at coupling lam, as its
    pair ratios g[a][b] = -(1 + i lam d) / (1 - i lam d), d = k_b - k_a,
    for a > b.

    The state is the Gaudin sum divided by the identity amplitude (a global
    constant), so every |A_P| is 1 at any lam.  A momentum that is not
    finite is named by its index; a lam that is not finite, or a pair ratio
    that overflows float64, raises a ValueError that names lam and N.
    """
    k = _gaudin_momenta(momenta)
    n = len(k)
    if not math.isfinite(lam):
        raise ValueError(f"Gaudin pair ratios are not finite at lam = {lam}, N = {n}: "
                         "lam is not finite")
    g = [[1 + 0j] * n for _ in range(n)]
    for a in range(n):
        for b in range(a):
            u = 1j * lam * (k[b] - k[a])
            g[a][b] = -(1 + u) / (1 - u)
            if not cmath.isfinite(g[a][b]):
                raise ValueError(f"Gaudin pair ratios are not finite at lam = {lam}, N = {n}: "
                                 "lam * (k_b - k_a) overflows float64")
    return BetheWavefunction(momenta=k, pair_ratios=g)


def _checked_coords(wf: BetheWavefunction, x) -> list[float]:
    xs = _require_finite(x, "coordinate")
    if len(xs) != wf.n:
        raise ValueError("coordinate count does not match the wavefunction")
    _require_distinct(xs, "coordinates coincide: the point sits on a sector boundary")
    return xs


def eval_wavefunction(wf: BetheWavefunction, x) -> complex:
    """Evaluate wf at pairwise-distinct finite coordinates x (any sector)."""
    xs = _checked_coords(wf, x)
    order = sorted(range(wf.n), key=xs.__getitem__)
    return perm_sign(order) * wf._sums([xs[m] for m in order], 0, 0)[2][0][0]


# ---------------------------------------------------------------------------
# finite-ring Bethe equations


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


def _row_groups(n: int) -> list[range]:
    # contiguous runs of whole row blocks, one per CPU the process may run on
    # (read at each call) from SPLIT_MIN_BLOCKS blocks on, a single run below that
    blocks = -(-n // RESIDUAL_BLOCK_ROWS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = 1 if blocks < SPLIT_MIN_BLOCKS else min(blocks, cpus)
    edges = [min(n, RESIDUAL_BLOCK_ROWS * (blocks * g // count)) for g in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


_pools = {}   # pid -> the ThreadPoolExecutor of that process's split passes


def _on_groups(groups: list[range], work) -> None:
    # work(g, rows) for each group g of `_row_groups`: in the calling thread
    # alone for one group, else group 0 there and the others on the pool,
    # made on first use with a worker per further group (a forked child
    # inherits the object, not its threads).  Every group finishes before
    # the pass returns or raises, and the lowest group's error wins
    if len(groups) == 1:
        return work(0, groups[0])
    from concurrent.futures import ThreadPoolExecutor

    # setdefault is atomic, so threads that race here share one pool
    pool = _pools.get(os.getpid()) or _pools.setdefault(os.getpid(), ThreadPoolExecutor(
        len(groups) - 1, thread_name_prefix="momgas-rows"))
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
        import mmap

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


# ---------------------------------------------------------------------------
# diagnostics: residual scans used by the CLI and the acceptance suite


def _fixed(v, frac: int) -> int:
    # the mpf tuple v = (sign, mantissa, exponent, bits) times 2^frac,
    # truncated toward zero: int(mp.ldexp(v, frac)) without an mpf
    sign, man, exp, _ = v
    man = int(man)   # an mpz under the gmpy backend
    man = man << exp + frac if exp + frac >= 0 else man >> -(exp + frac)
    return -man if sign else man


def _fixed_phases(momenta, y, prec: int, frac: int) -> list[tuple[int, int]]:
    # the phases exp(i k_m y_s), flat at m * N + s, as integer pairs scaled
    # by 2^frac: cos and sin of the exact product k_m y_s rounded to nearest
    # at prec bits, the values mp.exp(mp.mpc(0, k_m y_s)) takes there, each
    # truncated toward zero
    from mpmath.libmp import from_float, mpf_cos_sin, mpf_mul

    ys = [from_float(v) for v in y]
    return [(_fixed(c, frac), _fixed(s, frac))
            for km in map(from_float, momenta)
            for c, s in (mpf_cos_sin(mpf_mul(km, v), prec, "n") for v in ys)]


def schrodinger_residual(wf: BetheWavefunction, x) -> float:
    """Relative free-Schroedinger residual of the wavefunction wf at x,
    probed with central second differences of step h = 1e-6.

    One run of the recursion over subsets at 40 mpmath digits (float64
    cannot resolve a 1e-6 second-difference step below ~1e-3 relative
    error).  From the N^2 phases exp(i k_m y_s) at the sorted point y it
    gives W[s][m], the sum of the wedge terms with momentum m in slot s; chi
    is sum_m W[0][m].  A +-h shift of slot s multiplies those by
    exp(+-i k_m h), so the central difference is exactly D2_s chi =
    sum_m W[s][m] c_m, c_m = (2 cos(k_m h) - 2) / h^2, evaluated as
    -4 sin^2(k_m h / 2) / h^2.  Returns the float |sum_s D2_s chi + E chi| /
    (sum_s |D2_s chi| + |E chi|), ~h^2 k^2 / 12 for a true eigenfunction.
    Every plane wave has energy E, so any pair ratios pass; the contact
    conditions (`bc_residual`) are what pin them.

    All of it runs in fixed point, on Python integers scaled by 2^F with
    F = prec + 64 (prec = 136 bits, the working precision of 40 digits); the
    phases are cos and sin of the exact products k_m y_s at prec bits,
    rounded to nearest (`_fixed_phases`).  Say a computed sum of n products
    of unimodular factors has bound c when it is off by at most c n units
    of 2^-F.  The pair ratios and the phases convert with under 2 units each
    (int truncates each component toward zero), and each complex product
    truncates by >> F, adding under 2 units, so a product of bounds c1 and
    c2 has the bound c1 + c2 + 2 and a sum keeps the larger bound; the pair
    ratios (unimodular to 1e-12) and the phases keep every product within
    1e-10 of unit modulus, which moves these bounds by less than a part in
    1e9.  Then T(S, m) has the bound 4N - 6, its product with the phase
    4N - 2, F(S) 4N |S|, B(S) 4N (N - |S|), and each of the (N - 1)! terms
    of W[s][m] 4N^2 + 2: W is off by fewer than 258 * 7! < 2^21 units at
    N = 8, below 2^(-prec - 43).  The tail adds a few units against those
    2^21: c_m, rounded at F + 8 bits, converts within 2 units (|k_m| < 8)
    and the exact E within one, and each product W[s][m] c_m or E chi
    (>> F) and each modulus (`math.isqrt`) truncates by under one unit.
    The result is one int / int division, rounded once.
    """
    h = 1e-6
    xs = _checked_coords(wf, x)
    n = wf.n
    if n > 1:
        gap = min(abs(xs[a] - xs[b]) for a in range(n) for b in range(a + 1, n))
        if gap <= 4 * h:
            raise ValueError("coordinates too close for the finite-difference step")
    from mpmath.libmp import dps_to_prec, from_float, mpf_add, mpf_div, mpf_mul, mpf_sin

    prec = dps_to_prec(40)
    frac = prec + 64
    phases = _fixed_phases(wf.momenta, sorted(xs), prec, frac)
    g = [[(int(math.ldexp(v.real, frac)), int(math.ldexp(v.imag, frac))) for v in row[:a]]
         for a, row in enumerate(wf.pair_ratios)]

    def mul(u, v):
        (ur, ui), (vr, vi) = u, v
        return (ur * vr - ui * vi) >> frac, (ur * vi + ui * vr) >> frac

    def total(terms):
        return tuple(map(sum, zip(*terms)))

    one = (1 << frac, 0)
    forward, _, _, products = _passes(_pair_columns(g, one, mul), phases, 0, n - 1,
                                      one, mul, total)
    k = [from_float(v) for v in wf.momenta]
    half, h2 = from_float(h / 2), mpf_mul(from_float(h), from_float(h))
    # c_m = -4 sin^2(k_m h / 2) / h^2 (4 = 2^2 in the scale) and E, exact
    factors = [-_fixed(mpf_div(mpf_mul(sk, sk), h2, frac + 8, "n"), frac + 2)
               for sk in (mpf_sin(mpf_mul(km, half), frac + 8, "n") for km in k)]
    energy = _fixed(functools.reduce(mpf_add, (mpf_mul(km, km) for km in k)), frac)

    def scaled(z, c):
        return (z[0] * c) >> frac, (z[1] * c) >> frac

    def modulus(z):
        return math.isqrt(z[0] * z[0] + z[1] * z[1])

    w = []
    for size, layer in enumerate(_layers(n)):
        terms = list(map(mul, layer.below(forward[size]), products[size]))
        w.append(_groups(layer.by_momentum(terms), math.comb(n - 1, size), total))
    num = scaled(total(w[0]), energy)
    denom = modulus(num)
    for row in w:
        d2 = total(map(scaled, row, factors))
        num = total((num, d2))
        denom += modulus(d2)
    return modulus(num) / denom


def gaudin_residual_scan(n: int, draws: int, seed: int = 0) -> list[dict]:
    """Random-draw verification of the Gaudin eigenfunctions.

    Per draw: random distinct momenta in (-3, 3) and coupling in (0.1, 10),
    one `gaudin_wavefunction` state, its contact-condition defects on every
    adjacent hyperplane x_j = x_{j+1} (one wedge sum per contact), and
    its finite-difference Schroedinger residual at a random interior point.
    Deterministic for a fixed seed.  n and draws must be integers.
    """
    _check_integer(n=n, draws=draws)
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
    for draw in range(draws):
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
