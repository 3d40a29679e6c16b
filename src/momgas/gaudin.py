"""Gaudin (Bethe-ansatz) eigenfunctions of the momentum-dependent contact
gas and their checks; the ring Bethe equations are in `bethe`.

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
state per draw and passes it to both checks.  The module imports no
numpy, and the probe imports mpmath when it runs.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from collections.abc import Callable
from typing import NamedTuple

from .twobody import _check_integer, _require_finite, bc_residual, perm_sign

__all__ = [
    "MAX_PARTICLES_ENUMERATED", "BetheWavefunction",
    "gaudin_wavefunction", "eval_wavefunction",
    "schrodinger_residual", "gaudin_residual_scan",
]

# the largest N of a Gaudin state: the recursion's tables grow as 2^N, and
# the checks are verified up to this N (lifting it is ROADMAP item 4)
MAX_PARTICLES_ENUMERATED = 8


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
