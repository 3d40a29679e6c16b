"""Exact Gaussian-rational algebra: unitarity holds, Yang-Baxter fails,
the delta-interaction control passes."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from momgas.yang_baxter import (
    GR_I, GR_ONE, GR_ZERO,
    GaussianRational, GroupAlgebraElement,
    check_delta_unitarity, check_unitarity, compose,
    delta_control_defect, delta_variant, delta_yang_op, perm_sign,
    regular_rep, sign_projection, trivial_projection, yang_op, yb_defect,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


# ---------------------------------------------------------------------------
# Gaussian rationals


@given(rationals, rationals, rationals, rationals)
def test_field_addition_and_multiplication_commute(a, b, c, d):
    x = GaussianRational(a, b)
    y = GaussianRational(c, d)
    assert x + y == y + x
    assert x * y == y * x


@given(rationals, rationals, rationals, rationals, rationals, rationals)
@settings(max_examples=60)
def test_field_associativity_and_distributivity(a, b, c, d, e, f):
    x = GaussianRational(a, b)
    y = GaussianRational(c, d)
    z = GaussianRational(e, f)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(rationals, rationals)
def test_field_inverses(a, b):
    x = GaussianRational(a, b)
    assert x + (-x) == GR_ZERO
    if not x.is_zero:
        assert x / x == GR_ONE
        assert (GR_ONE / x) * x == GR_ONE
    assert x * x.conjugate() == GaussianRational(x.abs2(), Fraction(0))


def test_gaussian_rational_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)
    with pytest.raises(TypeError):
        GR_ONE + 0.5
    with pytest.raises(TypeError):
        yang_op(1, 0.5, 1, 3)


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_gaussian_rational_str():
    assert str(GaussianRational(Fraction(3, 2), Fraction(0))) == "3/2"
    assert str(GaussianRational(Fraction(0), Fraction(-2))) == "-2i"
    assert str(GaussianRational(Fraction(1), Fraction(-1, 3))) == "1 - 1/3i"
    assert str(GR_I) == "1i"


def test_mixed_arithmetic_with_ints_and_fractions():
    assert 2 + GR_I == GaussianRational(Fraction(2), Fraction(1))
    assert Fraction(1, 2) * GR_I == GaussianRational(Fraction(0), Fraction(1, 2))
    assert 1 / GR_I == -GR_I
    assert 3 - GR_ONE == GaussianRational(Fraction(2), Fraction(0))


# ---------------------------------------------------------------------------
# permutations and the group algebra C[S_N]


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[a]] for a in range(3))
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_regular_rep_is_a_homomorphism_on_s3():
    for r1 in itertools.permutations(range(3)):
        for r2 in itertools.permutations(range(3)):
            lhs = regular_rep(r1, 3) @ regular_rep(r2, 3)
            rhs = regular_rep(compose(r1, r2), 3)
            assert lhs == rhs


def test_regular_rep_identity_and_involution():
    ident = GroupAlgebraElement.identity(3)
    assert regular_rep((0, 1, 2), 3) == ident
    t = regular_rep((1, 0, 2), 3)
    assert t @ t == ident


def test_regular_rep_validates_input():
    with pytest.raises(ValueError):
        regular_rep((0, 0, 1), 3)
    with pytest.raises(ValueError):
        regular_rep((0, 1), 3)
    with pytest.raises(ValueError):
        GroupAlgebraElement.identity(0)


def test_group_algebra_basics():
    ident = GroupAlgebraElement.identity(3)
    zero = GroupAlgebraElement.zero(3)
    assert ident - ident == zero
    assert (ident + ident) == ident.scale(2)
    assert ident.scale(0) == zero
    assert zero.is_zero and not ident.is_zero
    assert ident.coeffs == {(0, 1, 2): GR_ONE}
    assert zero.first_nonzero() is None
    assert zero.max_abs_entry() == (GR_ZERO, None)
    with pytest.raises(ValueError):
        GroupAlgebraElement.identity(3) @ GroupAlgebraElement.identity(4)
    with pytest.raises(ValueError):
        GroupAlgebraElement.identity(3) + GroupAlgebraElement.identity(4)


def test_positions_are_regular_representation_coordinates():
    # row 0 of rep(R) is the identity's row, holding R's coefficient in the
    # column of R in the lexicographic order of itertools.permutations
    for n in (1, 2, 3, 4, 5):
        for col, r in enumerate(itertools.permutations(range(n))):
            element = regular_rep(r, n).scale(GR_I)
            assert element.first_nonzero() == (0, col, GR_I)
            assert element.max_abs_entry() == (GR_I, (0, col))


# ---------------------------------------------------------------------------
# Yang operators


def test_yang_op_at_zero_is_the_transposition():
    for n in (2, 3):
        for i in range(1, n):
            op = yang_op(i, 0, Fraction(3, 7), n)
            t = list(range(n))
            t[i - 1], t[i] = t[i], t[i - 1]
            assert op == regular_rep(tuple(t), n)


def test_scalar_sectors():
    # scalar action on the two one-dimensional invariant vectors: 1 on the
    # boson sector, (iu + 1/lam)/(iu - 1/lam) on the fermion sector
    op = yang_op(1, 1, 1, 3)
    assert trivial_projection(op) == GR_ONE
    assert sign_projection(op) == -GR_I
    u, inv_lam = Fraction(2, 3), Fraction(-5, 7)
    op = yang_op(2, u, 1 / inv_lam, 4)
    assert trivial_projection(op) == GR_ONE
    assert sign_projection(op) == (GR_I * u + inv_lam) / (GR_I * u - inv_lam)
    assert sign_projection(op).abs2() == 1


def test_unitarity_holds_exactly():
    assert check_unitarity(1, 1, 1, 3)
    assert check_unitarity(2, Fraction(5, 3), Fraction(-7, 2), 4)
    assert check_unitarity(1, Fraction(-2, 9), Fraction(1, 5), 2)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_unitarity_holds_for_random_rationals(seed):
    import random
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    i = rng.randint(1, n - 1)
    u = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    lam = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    if u == 0 or lam == 0:
        return
    assert check_unitarity(i, u, lam, n)


def test_yang_op_validates_input():
    with pytest.raises(ValueError):
        yang_op(1, 1, 0, 3)
    with pytest.raises(ValueError):
        yang_op(3, 1, 1, 3)
    with pytest.raises(ValueError):
        yang_op(1, 1, 1, 0)


# ---------------------------------------------------------------------------
# Yang-Baxter defect


def test_defect_nonzero_with_frozen_witness():
    defect = yb_defect(1, 1, 2, 1, 3)
    assert not defect.is_zero
    assert defect.max_entry == GaussianRational(Fraction(7, 10), Fraction(0))
    assert defect.max_position == (0, 2)
    row, col, entry = defect.witness()
    assert (row, col) == (0, 1)
    assert entry == GaussianRational(Fraction(-7, 10), Fraction(0))


def test_defect_vanishes_on_both_scalar_sectors():
    for (u, v, lam) in ((1, 2, 1), (Fraction(1, 3), Fraction(2, 5), Fraction(7, 2)),
                        (3, -1, Fraction(-4, 3))):
        defect = yb_defect(1, u, v, lam, 3)
        assert not defect.is_zero
        assert trivial_projection(defect.matrix).is_zero
        assert sign_projection(defect.matrix).is_zero


def test_defect_nonzero_even_at_degenerate_triples():
    # u + v = 0 is outside the generic-triple guarantee but still fails here
    defect = yb_defect(1, 1, -1, 1, 3)
    assert not defect.is_zero


def test_defect_nonzero_at_n4():
    defect = yb_defect(2, Fraction(1, 2), Fraction(3, 4), Fraction(5, 3), 4)
    assert not defect.is_zero
    assert trivial_projection(defect.matrix).is_zero
    assert sign_projection(defect.matrix).is_zero


def _embed(p, i, n):
    """Permutation p of the slots i-1, i, i+1 (site i, 1-based) as an element of S_n."""
    return tuple(range(i - 1)) + tuple(i - 1 + a for a in p) + tuple(range(i + 2, n))


@functools.lru_cache(maxsize=1)
def _closed_form_coefficient():
    """Derive the defect symbolically on S_3 and return its T_1 coefficient c.

    Over symbolic (u, v, lam), independently of the module's Gaussian
    rationals, D = c (T_1 - T_2) with
        c = i lam^2 (u^2 + uv + v^2) / ((lam u + i)(lam v + i)(lam (u + v) + i)).
    u^2 + uv + v^2 > 0 unless u = v = 0, so D is nonzero even at u + v = 0.
    """
    import sympy as sp
    u, v, lam = sp.symbols("u v lam", real=True)
    e, t1, t2 = (0, 1, 2), (1, 0, 2), (0, 2, 1)

    def y(t, x):
        denom = sp.I * x - 1 / lam
        return {e: sp.I * x / denom, t: -1 / (lam * denom)}

    def mul(a, b):
        out = {}
        for p, x in a.items():
            for q, z in b.items():
                r = tuple(p[q[k]] for k in range(3))
                out[r] = out.get(r, 0) + x * z
        return out

    left = mul(mul(y(t1, v), y(t2, u + v)), y(t1, u))
    right = mul(mul(y(t2, u), y(t1, v + u)), y(t2, v))
    defect = {r: sp.simplify(left.get(r, 0) - right.get(r, 0)) for r in set(left) | set(right)}
    c = (sp.I * lam ** 2 * (u ** 2 + u * v + v ** 2)
         / ((lam * u + sp.I) * (lam * v + sp.I) * (lam * (u + v) + sp.I)))
    assert sp.simplify(defect.pop(t1) - c) == 0
    assert sp.simplify(defect.pop(t2) + c) == 0
    assert all(value == 0 for value in defect.values())
    assert sp.expand_complex(c.subs({u: 1, v: 2, lam: 1})) == sp.Rational(7, 10)
    return lambda *args: sp.expand_complex(c.subs(dict(zip((u, v, lam), args))))


@given(rationals, rationals, rationals.filter(lambda x: x != 0), st.integers(3, 8))
@settings(max_examples=25, deadline=None)
def test_defect_equals_the_sympy_closed_form(u, v, lam, n):
    value = _closed_form_coefficient()(u, v, lam)
    re, im = value.as_real_imag()
    c = GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    for i in range(1, n - 1):
        coeffs = yb_defect(i, u, v, lam, n).matrix.coeffs
        t_i, t_next = _embed((1, 0, 2), i, n), _embed((0, 2, 1), i, n)
        assert coeffs == ({} if c.is_zero else {t_i: c, t_next: -c})


def test_defect_beyond_six_particles_equals_the_n3_defect():
    u, v, lam = Fraction(1, 3), Fraction(-5, 4), Fraction(7, 2)
    d3 = yb_defect(1, u, v, lam, 3)
    for n in (7, 8):
        for i in range(1, n - 1):
            defect = yb_defect(i, u, v, lam, n)
            assert defect.max_entry == d3.max_entry
            assert defect.matrix.coeffs == {_embed(p, i, n): a
                                            for p, a in d3.matrix.coeffs.items()}
            assert delta_control_defect(i, u, v, 1 / lam, n).is_zero


def test_defect_site_range():
    with pytest.raises(ValueError):
        yb_defect(2, 1, 2, 1, 3)
    with pytest.raises(ValueError):
        yb_defect(0, 1, 2, 1, 3)


# ---------------------------------------------------------------------------
# delta-interaction control


def _signed_delta_op(i, u, c, n, s_u, s_c):
    # (s_u u T_i + s_c ic) / (u - ic), built from the basis elements
    t = list(range(n))
    t[i - 1], t[i] = t[i], t[i - 1]
    num = (regular_rep(tuple(t), n).scale(s_u * u)
           + GroupAlgebraElement.identity(n).scale(GR_I * (s_c * c)))
    return num.scale(GR_ONE / (GaussianRational.of(u) - GR_I * c))


def test_delta_variant_is_plus_plus():
    assert delta_variant() == (1, 1)
    for (i, u, c, n) in ((1, 2, 1, 3), (2, Fraction(3, 7), Fraction(-2, 5), 4)):
        assert delta_yang_op(i, u, c, n) == _signed_delta_op(i, u, c, n, 1, 1)


def test_every_delta_sign_variant_passes_both_exact_checks():
    # so (1, 1) is a convention: neither exact check can single it out
    for s_u, s_c in itertools.product((1, -1), repeat=2):
        for (u, v, c, n) in ((1, 2, 1, 3), (Fraction(2, 3), Fraction(-1, 5), Fraction(9, 4), 4)):
            y = lambda site, arg: _signed_delta_op(site, Fraction(arg), c, n, s_u, s_c)
            assert y(1, -u) @ y(1, u) == GroupAlgebraElement.identity(n)
            assert (y(1, v) @ y(2, u + v) @ y(1, u)
                    - y(2, u) @ y(1, v + u) @ y(2, v)).is_zero


def test_delta_operator_at_zero_is_minus_identity():
    op = delta_yang_op(1, 0, 1, 3)
    assert op == GroupAlgebraElement.identity(3).scale(-1)


def test_delta_control_defect_is_exactly_zero():
    for (u, v, c) in ((1, 2, 1), (Fraction(2, 3), Fraction(-1, 5), Fraction(9, 4)),
                      (5, 7, -2)):
        assert delta_control_defect(1, u, v, c, 3).is_zero
    assert delta_control_defect(2, 1, 2, Fraction(1, 3), 4).is_zero


def test_delta_unitarity():
    assert check_delta_unitarity(1, 1, 1, 3)
    assert check_delta_unitarity(2, Fraction(3, 7), Fraction(-2, 5), 4)


def test_delta_operator_validates_input():
    with pytest.raises(ValueError):
        delta_yang_op(1, 1, 0, 3)
    with pytest.raises(ValueError):
        delta_control_defect(2, 1, 2, 1, 3)
    with pytest.raises(TypeError):
        delta_yang_op(1, 0.25, 1, 3)
