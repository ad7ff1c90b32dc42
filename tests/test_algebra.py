from __future__ import annotations

from fractions import Fraction as Frac
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import laurent_terms

from glsmx.algebra import (
    LAM,
    NILPOTENT,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    Z,
    CohClass,
    RatFun,
    TruncSeries,
    render_ratfun,
    series_root_pow,
)
from glsmx.errors import BadConstantTerm, DivisionByNonUnit


# -- RatFun basics ----------------------------------------------------------


def test_ratfun_canonical_cancel():
    # lam*z / lam^2 == z / lam, stored as the one term lam^-1 z
    f = RatFun({(1, 1): Frac(1)}) / RatFun({(2, 0): Frac(1)})
    g = RatFun({(0, 1): Frac(1)}) / RatFun({(1, 0): Frac(1)})
    assert f == g
    assert f.num == {(-1, 1): 1} and f.den == {(0, 0): 1}


def test_ratfun_integer_clearing():
    # (1/2) / (1/3) stores with integer coefficients
    f = RatFun(Frac(1, 2)) / RatFun(Frac(1, 3))
    assert f == RatFun(Frac(3, 2))
    assert all(v.denominator == 1 for v in f.num.values())
    assert all(v.denominator == 1 for v in f.den.values())


def _assert_canonical(f):
    # one positive int denominator, coprime to the content of the terms
    assert f.den.keys() == {(0, 0)}
    c = f.den[(0, 0)]
    assert c > 0
    content = 0
    for v in f.num.values():
        content = gcd(content, v)
    assert gcd(c, content) == 1


def test_ratfun_den_sign_normalized():
    f = RatFun({(0, 0): Frac(2)}) / RatFun({(1, 0): Frac(-6)})
    _assert_canonical(f)
    assert f.num == {(-1, 0): -1}
    assert f.den == {(0, 0): 3}


def test_ratfun_arith():
    one_over = RF_ONE / (LAM * Z)
    assert one_over * (LAM * Z) == RF_ONE
    assert (LAM - Z) * (LAM + Z) == LAM**2 - Z**2
    assert LAM / LAM == RF_ONE
    assert (2 * LAM + 3) - (LAM + 3) == LAM
    assert (LAM**2 - Z**2) / LAM == LAM - Z**2 * LAM**-1


def test_ratfun_nonmonomial_cancel():
    # lam + z is not a unit of Q[lam^+-1, z^+-1]: the quotient is refused
    # even where it would cancel to a polynomial, and even for a zero numerator
    with pytest.raises(DivisionByNonUnit):
        (LAM**2 - Z**2) / (LAM + Z)
    with pytest.raises(DivisionByNonUnit):
        RF_ZERO / (LAM + 1)
    with pytest.raises(DivisionByNonUnit):
        (LAM + Z) ** -1
    with pytest.raises(DivisionByNonUnit):
        CohClass([LAM + 1, RF_ONE], PROJLINE).inverse()


def test_ratfun_div_zero():
    with pytest.raises(DivisionByNonUnit):
        RF_ONE / RF_ZERO


def test_ratfun_z_parts():
    f = (LAM * Z**2 + 2 * Z - 3 * LAM) / LAM
    parts = f.z_parts()
    assert parts[2] == RF_ONE
    assert parts[1] == 2 / LAM
    assert parts[0] == RatFun(-3)


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
    # the pushforward to a point is the H coefficient: 1 for H, 0 for 1
    h = CohClass.hyperplane(PROJLINE)
    assert h.coeffs[1] == RF_ONE
    assert CohClass.unit(PROJLINE).coeffs[1] == RF_ZERO
    # localization identity: integral = sum of restrictions / euler factors
    x = CohClass([LAM**2, 3 * LAM], PROJLINE)
    local = x.restrict_zero() / LAM + x.restrict_infinity() / (-LAM)
    assert x.coeffs[1] == local


def test_projline_inverse():
    lam_c = CohClass([LAM], PROJLINE)
    h = CohClass.hyperplane(PROJLINE)
    x = 2 * lam_c + h  # invertible: 2lam at infinity, 3lam at zero
    assert x * x.inverse() == CohClass.unit(PROJLINE)
    with pytest.raises(DivisionByNonUnit):
        (h - lam_c).inverse()  # vanishes at zero fixed point
    with pytest.raises(DivisionByNonUnit):
        h.inverse()  # vanishes at infinity


# -- TruncSeries ------------------------------------------------------------


def _y(order):
    return TruncSeries("y", order, {1: RF_ONE})


def _const(order, value=RF_ONE):
    return TruncSeries("y", order, {0: value})


def test_series_product_truncates():
    y = _y(3)
    s = (_const(3) + y) * (_const(3) + y)
    assert s.coeff(0) == RF_ONE and s.coeff(1) == RatFun(2) and s.coeff(2) == RF_ONE
    assert (y * y * y * y).coeffs == {}


def test_series_geometric_inverse():
    # frozen: 1/(1 - y) = 1 + y + y^2 + y^3
    one = _const(3)
    inv = one / (one - _y(3))
    assert inv.coeffs == {0: RF_ONE, 1: RF_ONE, 2: RF_ONE, 3: RF_ONE}


def test_series_div_requires_unit():
    y = _y(3)
    with pytest.raises(DivisionByNonUnit):
        y / y  # constant term zero even though the quotient exists


def test_series_ratfun_coefficients():
    s = _const(2) + _y(2) * (4 / LAM**2)
    t = s / s
    assert t.coeff(0) == RF_ONE and t.coeff(1) == RF_ZERO


def test_series_root_pow_quarter():
    # frozen: (1 + 4y/lam^2)^(-1/4) = 1 - y/lam^2 + (5/2) y^2/lam^4 - (15/2) y^3/lam^6
    phi = _const(3) + _y(3) * (4 / LAM**2)
    s = series_root_pow(phi, Frac(-1, 4))
    assert s.coeff(0) == RF_ONE
    assert s.coeff(1) == -1 / LAM**2
    assert s.coeff(2) == RatFun(Frac(5, 2)) / LAM**4
    assert s.coeff(3) == RatFun(Frac(-15, 2)) / LAM**6


def test_series_root_pow_sqrt():
    # frozen: (1 + 4y/lam^2)^(1/2) = 1 + 2y/lam^2 - 2y^2/lam^4 + 4y^3/lam^6
    phi = _const(3) + _y(3) * (4 / LAM**2)
    s = series_root_pow(phi, Frac(1, 2))
    assert s.coeff(1) == 2 / LAM**2
    assert s.coeff(2) == -2 / LAM**4
    assert s.coeff(3) == 4 / LAM**6


def test_series_root_pow_needs_unit_constant():
    with pytest.raises(BadConstantTerm):
        series_root_pow(_y(2), Frac(1, 2))
    with pytest.raises(BadConstantTerm):
        series_root_pow(_const(2, RatFun(2)), Frac(1, 2))


@st.composite
def _frac_series(draw, order=4):
    # constant coefficients, so the series arithmetic is checked on the
    # rationals alone
    coeffs = {
        k: RatFun(Frac(draw(st.integers(-6, 6)), draw(st.integers(1, 4))))
        for k in range(order + 1)
    }
    coeffs[0] = RF_ONE
    return TruncSeries("y", order, coeffs)


@given(_frac_series(), st.sampled_from([Frac(1, 2), Frac(1, 3), Frac(-1, 4), Frac(2, 5)]))
@settings(max_examples=40, deadline=None)
def test_root_pow_inverse_pair(s, a):
    prod = series_root_pow(s, a) * series_root_pow(s, -a)
    assert prod == _const(s.order)


@given(_frac_series())
@settings(max_examples=40, deadline=None)
def test_root_pow_half_squares_back(s):
    r = series_root_pow(s, Frac(1, 2))
    assert r * r == s


_coeffs = st.builds(Frac, st.integers(-5, 5), st.integers(1, 3))
_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_nonzero = st.builds(
    lambda p, q: Frac(p, q), st.integers(-5, 5).filter(bool), st.integers(1, 3)
)


@st.composite
def _monomials(draw):
    return RatFun({draw(_exponents): draw(_nonzero)})


@st.composite
def _ratfuns(draw):
    num = draw(st.dictionaries(_exponents, _coeffs, min_size=1, max_size=3))
    den = {draw(st.tuples(st.integers(0, 2), st.integers(0, 2))): draw(_nonzero)}
    return RatFun(num) / RatFun(den)


@given(_ratfuns(), _ratfuns(), _ratfuns(), _monomials())
@settings(max_examples=100, deadline=None)
def test_ratfun_ring_axioms(a, b, c, m):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RF_ZERO
    assert (a / m) * m == a
    if len(b.num) == 1:
        assert (a / b) * b == a


@given(_ratfuns(), _ratfuns(), _monomials(), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_ratfun_results_have_one_den_term(a, b, m, n):
    results = [a + b, a - b, -a, a * b, a / m, m**n, a ** abs(n)]
    results += [a + 1, 2 - a, a * Frac(2, 3), a / 3, 3 / m]
    for f in results:
        _assert_canonical(f)


@given(
    st.dictionaries(_exponents, st.integers(-60, 60).filter(bool), max_size=4),
    st.integers(1, 60),
)
@settings(max_examples=100, deadline=None)
def test_reduced_is_the_constructor_normal_form(num, den):
    # the ring operations build through _reduced, the constructor through
    # Fraction clearing first: both must store the same dicts
    got = RatFun._reduced(dict(num), den)
    want = RatFun(num, den)
    assert got.num == want.num
    assert got.den == want.den
    _assert_canonical(got)


@given(_ratfuns(), st.dictionaries(_exponents, _nonzero, min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_division_by_non_monomial_raises(a, terms):
    multi = RatFun(terms)
    with pytest.raises(DivisionByNonUnit):
        a / multi
    with pytest.raises(DivisionByNonUnit):
        multi**-1


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
        terms = laurent_terms(f)
        assert all(type(v) is Frac for v in terms.values())
        rebuilt = RF_ZERO
        for (i, j), v in terms.items():
            rebuilt = rebuilt + v * LAM**i * Z**j
        assert rebuilt == f


def test_laurent_divides_exactly():
    # the int form of (lam + z/2) / (3 lam^2 z) is read out through Frac,
    # which int true division would round through a float
    f = (LAM + Z / 2) / (3 * LAM**2 * Z)
    assert laurent_terms(f) == {(-1, -1): Frac(1, 3), (-2, 0): Frac(1, 6)}
    assert all(type(v) is Frac for v in laurent_terms(f).values())
    assert RatFun(Frac(2, 6)).as_frac() == Frac(1, 3)


@given(_ratfuns(), _ratfuns(), _monomials())
@settings(max_examples=40, deadline=None)
def test_laurent_product_property(a, b, m):
    # sums, products and monomial quotients act on the Laurent terms as
    # termwise sums, convolutions and exponent shifts of plain Frac dicts
    ta, tb = laurent_terms(a), laurent_terms(b)
    total = dict(ta)
    for key, v in tb.items():
        total[key] = total.get(key, 0) + v
    assert laurent_terms(a + b) == {key: v for key, v in total.items() if v}
    conv = {}
    for (i, j), u in ta.items():
        for (k, l), v in tb.items():
            conv[(i + k, j + l)] = conv.get((i + k, j + l), 0) + u * v
    assert laurent_terms(a * b) == {key: v for key, v in conv.items() if v}
    (((ml, mz), mv),) = laurent_terms(m).items()
    shifted = {(i - ml, j - mz): v / mv for (i, j), v in ta.items()}
    assert laurent_terms(a / m) == shifted
