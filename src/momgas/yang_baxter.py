"""Exact-arithmetic Yang operators on the group algebra of S_N.

The two-particle scattering operator of the momentum-dependent gas acts on
wedge amplitudes (functions on S_N) through the regular representation:

    Y_i(u) = (iu * 1 - (1/lam) * T_i) / (iu - 1/lam),

where T_i is the adjacent transposition of slots i, i+1 and u the momentum
difference entering the exchange.  Everything here is computed over the
Gaussian rationals (complex numbers with Fraction parts), so the three
verdicts this module produces are theorems about the stated operators, not
float statements:

  * unitarity Y_i(-u) Y_i(u) = identity holds exactly for every admissible
    (u, lam);
  * the Yang-Baxter relation
        Y_i(v) Y_{i+1}(u+v) Y_i(u) = Y_{i+1}(u) Y_i(v+u) Y_{i+1}(v)
    FAILS for this operator at generic (u, v) -- the model is not solvable
    by nesting, even though the one-dimensional boson and fermion sectors
    (where Y is the scalar 1 resp. (iu + 1/lam)/(iu - 1/lam)) are;
  * the delta-interaction operator Y^d_i(u) = (u T_i + ic) / (u - ic)
    passes the same Yang-Baxter check exactly, so the failure above is a
    property of the model and not of the machinery.

Numerators.  Each operator is N(u)/d(u) with N(u) = a 1 + b T_i and a
scalar d(u) that never vanishes: (a, b, d) = (iu, -1/lam, iu - 1/lam) for Y_i
and (ic, u, u - ic) for Y^d_i.  Unitarity is tested as N(-u) N(u) =
d(-u) d(u) 1, with no division.  Both triple products share the denominator
Delta = d(v) d(u+v) d(u), as d depends only on its argument and u + v = v + u
exactly, so the defect is (N_L - N_R)/Delta and only its surviving entries
are divided.  One nonzero constant scales every term of a product, so zero
patterns and insertion order are those of the normalised products.

Representation and conventions.  An operator is the group-algebra element
sum_R a_R R of C[S_N], stored sparsely as {R: a_R} and multiplied by
a_p b_q -> compose(p, q), where compose(p, q)(a) = p[q[a]].  The matrix of R
in the regular representation, rep(R) with entries delta_{Q', QR}, i.e.
(rep(R) v)(Q) = v(QR), is indexed by S_N ordered lexicographically in
one-line notation.  Every row of that N! x N! matrix holds the same
coefficients, and row 0 (Q = identity) holds a_R in column rank(R), so the
element is row 0 and matrix coordinates are reported as (0, rank(R)).  The
representation is faithful: zero and identity tests, the projections and
the largest entry read the same off the element as off the matrix.  A
Yang-Baxter triple product involves only T_i and T_{i+1}, so it has at most
six terms and costs the same at every N; no particle-number guard applies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .twobody import _check_integer, perm_sign

__all__ = [
    "GaussianRational", "GroupAlgebraElement", "DefectResult",
    "compose", "perm_sign", "regular_rep",
    "yang_op", "check_unitarity", "yb_defect",
    "DELTA_SIGNS", "delta_yang_op", "delta_control_defect",
    "check_delta_unitarity",
    "trivial_projection", "sign_projection",
]


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("pass int, str, or Fraction; floats would smuggle rounding "
                        "into an exact computation")
    return Fraction(value)


class GaussianRational(NamedTuple):
    """Complex number with exact rational real and imaginary parts."""
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(_fraction(value), Fraction(0))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re^2 + im^2 (the comparable stand-in for |.|)."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def compose(p, q) -> tuple[int, ...]:
    """(p o q)(a) = p[q[a]]: apply q first, then p."""
    return tuple(p[q[a]] for a in range(len(p)))


def _rank(p) -> int:
    """Lexicographic rank of p among the permutations of its length (Lehmer code)."""
    rank = 0
    for a, pa in enumerate(p):
        rank = rank * (len(p) - a) + sum(1 for pb in p[a + 1:] if pb < pa)
    return rank


def _check_n(n: int, **site) -> None:
    _check_integer(n=n, **site)
    if n < 1:
        raise ValueError(f"N = {n} is not a positive particle number")


def _check_perm(r, n: int) -> tuple[int, ...]:
    r = tuple(r)
    if sorted(r) != list(range(n)):
        raise ValueError(f"{r!r} is not a permutation of range({n})")
    return r


def _accumulate(acc: dict, r, term: GaussianRational) -> None:
    # zero sums are dropped, and a coefficient that reappears goes to the end:
    # the order max_abs_entry breaks ties by
    prev = acc.get(r)
    val = term if prev is None else prev + term
    if val.is_zero:
        acc.pop(r, None)
    else:
        acc[r] = val


class GroupAlgebraElement:
    """Element sum_R a_R R of the group algebra C[S_N] over the Gaussian
    rationals, stored as {R: a_R} with zero coefficients dropped, so
    equality is plain structural equality.

    This is row 0 of the element's regular-representation matrix, and the
    operations insert coefficients in the order the sparse row products of
    that matrix would.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = coeffs   # dict permutation -> entry, already zero-free

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        _check_n(n)
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "GroupAlgebraElement":
        _check_n(n)
        return cls(n, {tuple(range(n)): GR_ONE})

    def _check_same_n(self, other: "GroupAlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"cannot combine elements of C[S_{self.n}] and C[S_{other.n}]")

    def __matmul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_same_n(other)
        acc: dict[tuple[int, ...], GaussianRational] = {}
        for p, a in self.coeffs.items():
            for q, b in other.coeffs.items():
                _accumulate(acc, compose(p, q), a * b)
        return GroupAlgebraElement(self.n, acc)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check_same_n(other)
        acc = dict(self.coeffs)
        for r, b in other.coeffs.items():
            _accumulate(acc, r, b)
        return GroupAlgebraElement(self.n, acc)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(GaussianRational(Fraction(-1)))

    def scale(self, factor) -> "GroupAlgebraElement":
        factor = GaussianRational.of(factor)
        if factor.is_zero:
            return GroupAlgebraElement.zero(self.n)
        return GroupAlgebraElement(self.n, {r: factor * v for r, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def first_nonzero(self):
        """(row, col, entry) of the first nonzero matrix entry in row-major
        order, i.e. (0, rank(R), a_R) for the lexicographically first R in
        the support; None for zero."""
        if not self.coeffs:
            return None
        r = min(self.coeffs)
        return 0, _rank(r), self.coeffs[r]

    def max_abs_entry(self):
        """(entry, (0, rank(R))) of the coefficient with the largest exact
        squared modulus, ties going to the first in insertion order; this is
        the matrix's own row-major answer.  (zero, None) for zero."""
        best = GR_ZERO
        best_pos = None
        best_abs2 = Fraction(0)
        for r, v in self.coeffs.items():
            a2 = v.abs2()
            if a2 > best_abs2:
                best, best_pos, best_abs2 = v, (0, _rank(r)), a2
        return best, best_pos

    def __repr__(self) -> str:
        return f"GroupAlgebraElement(n={self.n}, terms={len(self.coeffs)})"


def regular_rep(r, n: int) -> GroupAlgebraElement:
    """R as a basis element of C[S_N]; its regular-representation matrix
    is (rep(R) v)(Q) = v(QR)."""
    _check_n(n)
    return GroupAlgebraElement(n, {_check_perm(r, n): GR_ONE})


def _transposition(i: int, n: int) -> tuple[int, ...]:
    # i is the 1-based site: swap slots i-1 and i of the one-line word
    if not 1 <= i <= n - 1:
        raise ValueError(f"site i = {i} outside 1..{n - 1}")
    t = list(range(n))
    t[i - 1], t[i] = t[i], t[i - 1]
    return tuple(t)


def _exchange(i: int, n: int, ab) -> GroupAlgebraElement:
    # a 1 + b T_i for ab = (a, b), identity first (max_abs_entry's tie order)
    terms = zip((tuple(range(n)), _transposition(i, n)), ab)
    return GroupAlgebraElement(n, {r: v for r, v in terms if not v.is_zero})


def _yang_parts(u, lam):
    u = _fraction(u)
    lam = _fraction(lam)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    iu = GaussianRational(Fraction(0), u)
    b = GaussianRational(-1 / lam)
    return (iu, b), iu + b   # d nonzero: u real, 1/lam != 0


def yang_op(i: int, u, lam, n: int) -> GroupAlgebraElement:
    """Y_i(u) = (iu - (1/lam) T_i) / (iu - 1/lam), exactly, for rational u and
    lam != 0.  Its scalar actions on the boson and fermion sectors
    (T_i -> +1, -1) are its trivial_projection, 1, and its sign_projection,
    (iu + 1/lam)/(iu - 1/lam)."""
    _check_n(n, i=i)
    (a, b), d = _yang_parts(u, lam)
    return _exchange(i, n, (a / d, b / d))


def _is_unitary(parts, i: int, u, n: int) -> bool:
    # Y(-u) Y(u) == identity as N(-u) N(u) == d(-u) d(u) 1, for the
    # numerator builder parts(arg) -> ((a, b), d)
    u = _fraction(u)
    _check_n(n, i=i)
    (ab_neg, d_neg), (ab, d) = parts(-u), parts(u)
    product = _exchange(i, n, ab_neg) @ _exchange(i, n, ab)
    return product == GroupAlgebraElement(n, {tuple(range(n)): d_neg * d})


def check_unitarity(i: int, u, lam, n: int) -> bool:
    """Exact truth of Y_i(-u) Y_i(u) = identity."""
    return _is_unitary(lambda arg: _yang_parts(arg, lam), i, u, n)


def trivial_projection(m: GroupAlgebraElement) -> GaussianRational:
    """Scalar action on the constant vector v(Q) = 1: sum_R a_R."""
    total = GR_ZERO
    for v in m.coeffs.values():
        total = total + v
    return total


def sign_projection(m: GroupAlgebraElement) -> GaussianRational:
    """Scalar action on v(Q) = sgn(Q): sum_R a_R sgn(R)."""
    total = GR_ZERO
    for r, v in m.coeffs.items():
        total = total + v * perm_sign(r)
    return total


class DefectResult(NamedTuple):
    """Difference of the two Yang-Baxter triple products, exactly."""
    matrix: GroupAlgebraElement
    max_entry: GaussianRational
    max_position: tuple[int, int] | None

    @property
    def is_zero(self) -> bool:
        return self.matrix.is_zero


def _triple_defect(parts, i: int, u, v, n: int, name: str) -> GroupAlgebraElement:
    # Y_i(v) Y_{i+1}(u+v) Y_i(u) - Y_{i+1}(u) Y_i(v+u) Y_{i+1}(v) = (N_L - N_R)/Delta
    # for parts(arg) -> ((a, b), d); the product order fixes the order in which
    # entries first appear, and with it max_position's tie-breaking
    _check_n(n, i=i)
    if not 1 <= i <= n - 2:
        raise ValueError(f"{name} needs sites i and i+1: i = {i} outside 1..{n - 2}")
    u = _fraction(u)
    v = _fraction(v)
    (ab_u, d_u), (ab_v, d_v), (ab_uv, d_uv) = parts(u), parts(v), parts(u + v)
    left = _exchange(i, n, ab_v) @ _exchange(i + 1, n, ab_uv) @ _exchange(i, n, ab_u)
    right = _exchange(i + 1, n, ab_u) @ _exchange(i, n, ab_uv) @ _exchange(i + 1, n, ab_v)
    delta = d_v * d_uv * d_u   # both sides' denominator: u + v == v + u exactly
    return GroupAlgebraElement(n, {r: c / delta for r, c in (left - right).coeffs.items()})


def yb_defect(i: int, u, v, lam, n: int) -> DefectResult:
    """D = Y_i(v) Y_{i+1}(u+v) Y_i(u) - Y_{i+1}(u) Y_i(v+u) Y_{i+1}(v), exact.

    Nonzero at generic (u, v): the exchange phase i/(u lam) is not additive
    in u, which is what the Yang-Baxter relation would require.
    """
    d = _triple_defect(lambda arg: _yang_parts(arg, lam), i, u, v, n, "yb_defect")
    max_entry, max_pos = d.max_abs_entry()
    return DefectResult(matrix=d, max_entry=max_entry, max_position=max_pos)


# sign convention (s_u, s_c) of the delta-interaction operator
# Y^d_i(u) = (s_u u T_i + s_c ic) / (u - ic): a fixed convention, not a search
# result, since all four sign variants pass exact unitarity and the exact
# Yang-Baxter relation, so neither check can single one out
DELTA_SIGNS = (1, 1)


def _delta_parts(u, c):
    u = _fraction(u)
    c = _fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    ic = GaussianRational(Fraction(0), c)
    return (ic, GaussianRational(u)), GaussianRational(u, -c)   # d nonzero: c != 0


def delta_yang_op(i: int, u, c, n: int) -> GroupAlgebraElement:
    """Delta-interaction exchange operator (ic + u T_i) / (u - ic), in the
    sign convention (s_u, s_c) = DELTA_SIGNS = (1, 1)."""
    _check_n(n, i=i)
    (a, b), d = _delta_parts(u, c)
    return _exchange(i, n, (a / d, b / d))


def check_delta_unitarity(i: int, u, c, n: int) -> bool:
    """Exact truth of Y^d_i(-u) Y^d_i(u) = identity."""
    return _is_unitary(lambda arg: _delta_parts(arg, c), i, u, n)


def delta_control_defect(i: int, u, v, c, n: int) -> GroupAlgebraElement:
    """Yang-Baxter defect of the delta-interaction operator: exactly the zero
    element (the solvable control for yb_defect)."""
    return _triple_defect(lambda arg: _delta_parts(arg, c), i, u, v, n, "delta control")
