from __future__ import annotations

from fractions import Fraction as Frac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsmx.algebra import (
    LAM,
    NILPOTENT,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    Z,
    CohClass,
    LaurentInLambda,
    RatFun,
    TruncSeries,
    laurent_expand,
    laurent_of_ratfun,
    render_ratfun,
    series_root_pow,
    substitute_z,
)
from glsmx.errors import BadConstantTerm, DivisionByNonUnit, SubstitutionPole


# -- RatFun basics ----------------------------------------------------------


def test_ratfun_canonical_cancel():
    # lam*z / lam^2 == z / lam
    f = RatFun({(1, 1): Frac(1)}, {(2, 0): Frac(1)})
    g = RatFun({(0, 1): Frac(1)}, {(1, 0): Frac(1)})
    assert f == g


def test_ratfun_integer_clearing():
    # (1/2) / (1/3) stores with integer coefficients
    f = RatFun(Frac(1, 2)) / RatFun(Frac(1, 3))
    assert f == RatFun(Frac(3, 2))
    assert all(v.denominator == 1 for v in f.num.values())
    assert all(v.denominator == 1 for v in f.den.values())


def test_ratfun_den_sign_normalized():
    f = RatFun({(0, 0): Frac(1)}, {(1, 0): Frac(-1)})
    assert f.den[(1, 0)] > 0
    assert f.num[(0, 0)] < 0


def test_ratfun_arith():
    one_over = RF_ONE / (LAM + Z)
    assert one_over * (LAM + Z) == RF_ONE
    assert (LAM - Z) * (LAM + Z) == LAM**2 - Z**2
    assert LAM / LAM == RF_ONE
    assert (2 * LAM + 3) - (LAM + 3) == LAM


def test_ratfun_nonmonomial_cancel():
    # (lam^2 - z^2) / (lam + z) == lam - z, exercises the gcd path
    f = (LAM**2 - Z**2) / (LAM + Z)
    assert f == LAM - Z
    assert f.is_poly()


def test_ratfun_div_zero():
    with pytest.raises(DivisionByNonUnit):
        RF_ONE / RF_ZERO


def test_ratfun_z_parts():
    f = (LAM * Z**2 + 2 * Z - 3 * LAM) / LAM
    parts = f.z_parts()
    assert parts[2] == RF_ONE
    assert parts[1] == 2 / LAM
    assert parts[0] == RatFun(-3)


def test_ratfun_subs_z_scalar():
    f = RF_ONE / (LAM - Z)
    assert f.subs_z(RatFun(0)) == RF_ONE / LAM
    assert f.subs_z(LAM / 2) == 2 / LAM
    with pytest.raises(SubstitutionPole):
        f.subs_z(LAM)


def test_ratfun_homogeneous_degree():
    assert (LAM * Z).homogeneous_degree() == 2
    assert (RF_ONE / (LAM + Z)).homogeneous_degree() == -1
    assert (LAM + RF_ONE).homogeneous_degree() is None
    assert ((LAM**2 - Z**2) / LAM).homogeneous_degree() == 1


def test_render_deterministic():
    f = (LAM + Z) / (LAM * Z)
    assert render_ratfun(f) == "(lam + z)/lam*z"
    assert render_ratfun(RF_ZERO) == "0"
    assert render_ratfun(-LAM) == "-lam"


# -- CohClass ---------------------------------------------------------------


def test_cohclass_nilpotent_truncates():
    h = CohClass.hyperplane(NILPOTENT, r=2)
    assert (h * h).is_zero()
    assert not h.is_zero()


def test_cohclass_rank_one_is_scalar():
    h = CohClass.hyperplane(NILPOTENT, r=1)
    assert h.is_zero()


def test_cohclass_inverse_nilpotent():
    # frozen: 1/(lam - H) at r=2 equals (lam + H)/lam^2
    lam_c = CohClass([LAM], NILPOTENT, r=2)
    h = CohClass.hyperplane(NILPOTENT, r=2)
    inv = (lam_c - h).inverse()
    expected = CohClass([RF_ONE / LAM, RF_ONE / LAM**2], NILPOTENT, r=2)
    assert inv == expected
    assert inv * (lam_c - h) == CohClass.unit(NILPOTENT, r=2)


def test_cohclass_inverse_nilpotent_r4():
    lam_c = CohClass([LAM], NILPOTENT, r=4)
    h = CohClass.hyperplane(NILPOTENT, r=4)
    x = lam_c + 2 * h
    assert x * x.inverse() == CohClass.unit(NILPOTENT, r=4)


def test_cohclass_noninvertible():
    h = CohClass.hyperplane(NILPOTENT, r=3)
    with pytest.raises(DivisionByNonUnit):
        h.inverse()


def test_projline_relation():
    h = CohClass.hyperplane(PROJLINE)
    lam_c = CohClass([LAM], PROJLINE)
    # H^2 = lam*H
    assert h * h == lam_c * h
    # the zero and infinity point classes multiply to zero
    zero_pt = h
    inf_pt = h - lam_c
    assert (zero_pt * inf_pt).is_zero()


def test_projline_restrictions():
    h = CohClass.hyperplane(PROJLINE)
    assert h.restrict_zero() == LAM
    assert h.restrict_infinity() == RF_ZERO
    assert CohClass.unit(PROJLINE).restrict_zero() == RF_ONE


def test_projline_integration():
    h = CohClass.hyperplane(PROJLINE)
    assert h.integrate_p1() == RF_ONE
    assert CohClass.unit(PROJLINE).integrate_p1() == RF_ZERO
    # localization identity: integral = sum of restrictions / euler factors
    x = CohClass([LAM**2, 3 * LAM], PROJLINE)
    local = x.restrict_zero() / LAM + x.restrict_infinity() / (-LAM)
    assert x.integrate_p1() == local


def test_projline_inverse():
    lam_c = CohClass([LAM], PROJLINE)
    h = CohClass.hyperplane(PROJLINE)
    x = 2 * lam_c + h  # invertible: 2lam at infinity, 3lam at zero
    assert x * x.inverse() == CohClass.unit(PROJLINE)
    with pytest.raises(DivisionByNonUnit):
        (h - lam_c).inverse()  # vanishes at zero fixed point
    with pytest.raises(DivisionByNonUnit):
        h.inverse()  # vanishes at infinity


def test_substitute_z_into_cohclass_value():
    # frozen: 1/z at z := lam - H (r=2) gives (lam + H)/lam^2
    f = RF_ONE / Z
    lam_c = CohClass([LAM], NILPOTENT, r=2)
    h = CohClass.hyperplane(NILPOTENT, r=2)
    got = substitute_z(f, lam_c - h)
    assert got == CohClass([RF_ONE / LAM, RF_ONE / LAM**2], NILPOTENT, r=2)


def test_substitute_z_pole():
    with pytest.raises(SubstitutionPole):
        substitute_z(RF_ONE / Z, CohClass.hyperplane(NILPOTENT, r=2))


# -- TruncSeries ------------------------------------------------------------


def test_series_product_truncates():
    y = TruncSeries.variable_series("y", 3)
    s = (1 + y) * (1 + y)
    assert s.coeff(0) == 1 and s.coeff(1) == 2 and s.coeff(2) == 1
    assert (y * y * y * y).coeffs == {}


def test_series_geometric_inverse():
    # frozen: 1/(1 - y) = 1 + y + y^2 + y^3
    y = TruncSeries.variable_series("y", 3)
    one = TruncSeries.constant("y", 3, Frac(1))
    inv = one / (one - y)
    assert inv.coeffs == {0: Frac(1), 1: Frac(1), 2: Frac(1), 3: Frac(1)}


def test_series_div_requires_unit():
    y = TruncSeries.variable_series("y", 3)
    with pytest.raises(DivisionByNonUnit):
        y / y  # constant term zero even though the quotient exists


def test_series_ratfun_coefficients():
    y = TruncSeries.variable_series("y", 2, one=RF_ONE)
    s = TruncSeries.constant("y", 2, RF_ONE) + y * (4 / LAM**2)
    t = s / s
    assert t.coeff(0) == RF_ONE and t.coeff(1, RF_ZERO) == RF_ZERO


def test_series_root_pow_quarter():
    # frozen: (1 + 4y/lam^2)^(-1/4) = 1 - y/lam^2 + (5/2) y^2/lam^4 - (15/2) y^3/lam^6
    y = TruncSeries.variable_series("y", 3, one=RF_ONE)
    phi = TruncSeries.constant("y", 3, RF_ONE) + y * (4 / LAM**2)
    s = series_root_pow(phi, Frac(-1, 4))
    assert s.coeff(0) == RF_ONE
    assert s.coeff(1) == -1 / LAM**2
    assert s.coeff(2) == RatFun(Frac(5, 2)) / LAM**4
    assert s.coeff(3) == RatFun(Frac(-15, 2)) / LAM**6


def test_series_root_pow_sqrt():
    # frozen: (1 + 4y/lam^2)^(1/2) = 1 + 2y/lam^2 - 2y^2/lam^4 + 4y^3/lam^6
    y = TruncSeries.variable_series("y", 3, one=RF_ONE)
    phi = TruncSeries.constant("y", 3, RF_ONE) + y * (4 / LAM**2)
    s = series_root_pow(phi, Frac(1, 2))
    assert s.coeff(1) == 2 / LAM**2
    assert s.coeff(2) == -2 / LAM**4
    assert s.coeff(3) == 4 / LAM**6


def test_series_root_pow_needs_unit_constant():
    y = TruncSeries.variable_series("y", 2)
    with pytest.raises(BadConstantTerm):
        series_root_pow(y, Frac(1, 2))
    two = TruncSeries.constant("y", 2, Frac(2))
    with pytest.raises(BadConstantTerm):
        series_root_pow(two, Frac(1, 2))


@st.composite
def _frac_series(draw, order=4):
    coeffs = {
        k: Frac(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        for k in range(order + 1)
    }
    coeffs[0] = Frac(1)
    return TruncSeries("y", order, coeffs)


@given(_frac_series(), st.sampled_from([Frac(1, 2), Frac(1, 3), Frac(-1, 4), Frac(2, 5)]))
@settings(max_examples=40, deadline=None)
def test_root_pow_inverse_pair(s, a):
    prod = series_root_pow(s, a) * series_root_pow(s, -a)
    one = TruncSeries.constant("y", s.order, Frac(1))
    assert prod == one


@given(_frac_series())
@settings(max_examples=40, deadline=None)
def test_root_pow_half_squares_back(s):
    r = series_root_pow(s, Frac(1, 2))
    assert r * r == s


_poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-5, 5).map(Frac),
    min_size=1,
    max_size=3,
)


@st.composite
def _ratfuns(draw):
    num = draw(_poly_terms)
    den = draw(_poly_terms.filter(lambda p: any(v for v in p.values())))
    return RatFun(num, den)


@given(_ratfuns(), _ratfuns(), _ratfuns())
@settings(max_examples=100, deadline=None)
def test_ratfun_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(_ratfuns(), _ratfuns())
@settings(max_examples=60, deadline=None)
def test_ratfun_int_coefficients_and_readers(a, b):
    for f in (a, a * b, a + b, a * Frac(2, 3)):
        assert all(type(v) is int for v in f.num.values())
        assert all(type(v) is int for v in f.den.values())
        value = f.as_frac()
        assert value is None or type(value) is Frac
        if value is not None:
            assert RatFun(value) == f
        terms = f.laurent_terms()
        if terms is not None:
            assert all(type(v) is Frac for v in terms.values())
            rebuilt = RF_ZERO
            for (i, j), v in terms.items():
                rebuilt = rebuilt + v * LAM**i * Z**j
            assert rebuilt == f
        assert all(type(c) is Frac for c in laurent_of_ratfun(_lam_only(f), 5).coeffs)


def test_laurent_divides_exactly():
    # 1/(3 lam - 1) = lam^-1/3 + lam^-2/9 + ..., which int true division
    # would round through a float
    exp = laurent_of_ratfun(RF_ONE / (3 * LAM - 1), 4)
    assert exp.coeffs == (Frac(1, 3), Frac(1, 9), Frac(1, 27), Frac(1, 81))
    assert RatFun(Frac(2, 6)).as_frac() == Frac(1, 3)


# -- LaurentInLambda --------------------------------------------------------


def test_laurent_simple_pole():
    # frozen: 1/(lam - 1) = lam^-1 + lam^-2 + lam^-3 + ...
    f = RF_ONE / (LAM - 1)
    exp = laurent_of_ratfun(f, 5)
    assert exp.min_exponent == -1
    assert list(exp.coeffs) == [Frac(1)] * 5


def test_laurent_polynomial_part():
    # frozen: lam^2/(lam + 1) = lam - 1 + lam^-1 - lam^-2 + ...
    f = LAM**2 / (LAM + 1)
    exp = laurent_of_ratfun(f, 6)
    assert exp.coeff(1) == 1
    assert exp.coeff(0) == -1
    assert exp.coeff(-1) == 1
    assert exp.coeff(-2) == -1


def test_laurent_product_matches_ratfun_product():
    f = (LAM + 2) / (LAM - 1)
    g = LAM / (LAM + 1)
    prod = laurent_of_ratfun(f * g, 6)
    assert laurent_of_ratfun(f, 8) * laurent_of_ratfun(g, 8) == prod


def _lam_only(f):
    num = {(i, 0): v for (i, j), v in f.num.items()}
    den = {(i, 0): v for (i, j), v in f.den.items()}
    if not any(v for v in num.values()):
        num = {(0, 0): Frac(1)}
    if not any(v for v in den.values()):
        den = {(0, 0): Frac(1)}
    return RatFun(num, den)


@given(_ratfuns(), _ratfuns())
@settings(max_examples=40, deadline=None)
def test_laurent_product_property(a, b):
    fa, fb = _lam_only(a), _lam_only(b)
    w = 7
    lhs = laurent_of_ratfun(fa, w + 4) * laurent_of_ratfun(fb, w + 4)
    rhs = laurent_of_ratfun(fa * fb, w + 4)
    hi = max(lhs.min_exponent, rhs.min_exponent)
    for e in range(hi - w, hi + 1):
        assert lhs.coeff(e) == rhs.coeff(e)


def test_laurent_expand_series():
    y = TruncSeries.variable_series("y", 2, one=RF_ONE)
    s = TruncSeries.constant("y", 2, RF_ONE / (LAM - 1)) + y * (RF_ONE / LAM)
    table = laurent_expand(s, window=4)
    assert table[0].coeff(-1) == 1 and table[0].coeff(-2) == 1
    assert table[1].coeff(-1) == 1 and table[1].coeff(-2) == 0
    assert table[2].is_zero()


def test_laurent_window_equality_ignores_tail():
    a = LaurentInLambda(-1, [1, 1, 1, 1], 4)
    b = LaurentInLambda(-1, [1, 1, 1, 1, 1, 1], 6)
    assert a == b
