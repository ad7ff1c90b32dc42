"""Tests for genus-zero localization on maps to the projective line:
cotangent integrals, the fixed-graph sum against a labeled-tree oracle, the
tail series, the rewrite at a three-pointed component, and the square-root
ratio identity."""

from fractions import Fraction as Frac

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from helpers_p1 import (
    LAM as SLAM,
    brute_p1,
    psi_int_recursive,
    ratfun_to_sympy,
)
from glsmx.algebra import (
    LAM,
    NILPOTENT,
    RF_ONE,
    RF_ZERO,
    Z,
    CohClass,
    RatFun,
    TruncSeries,
    series_root_pow,
)
from glsmx.errors import BoundsExceeded, ConfigError
from glsmx.p1series import (
    comb_dressing,
    comb_three_point,
    hyperplane_class,
    idempotent_infinity,
    idempotent_zero,
    irr_ratio_check,
    p1_graph_sum,
    point_class_infinity,
    point_class_zero,
    psi_integral_genus0,
    restrict_at,
    stilde_at_zero,
    tree_series_S,
    tree_series_eps,
    unit_class,
)
from glsmx.graphs import LEVEL_INF, LEVEL_ZERO

ONE = unit_class()
HYP = hyperplane_class()
P0 = point_class_zero()
PINF = point_class_infinity()

# sympy restrictions (at zero, at infinity) matching the classes above
SYM = {
    "one": (sympy.Integer(1), sympy.Integer(1)),
    "hyp": (SLAM, sympy.Integer(0)),
    "zero_pt": (SLAM, sympy.Integer(0)),
    "inf_pt": (sympy.Integer(0), -SLAM),
}
CLS = {"one": ONE, "hyp": HYP, "zero_pt": P0, "inf_pt": PINF}


# ---------------------------------------------------------------------------
# cotangent integrals on pointed rational curves


def test_psi_integral_three_points():
    assert psi_integral_genus0((0, 0, 0)) == Frac(1)


def test_psi_integral_four_points():
    assert psi_integral_genus0((1, 0, 0, 0)) == Frac(1)


def test_psi_integral_five_points():
    assert psi_integral_genus0((1, 1, 0, 0, 0)) == Frac(2)


def test_psi_integral_wrong_dimension():
    assert psi_integral_genus0((1, 0, 0)) == Frac(0)
    assert psi_integral_genus0((0, 0, 0, 0)) == Frac(0)
    assert psi_integral_genus0((2, 2, 0, 0, 0)) == Frac(0)


def test_psi_integral_needs_three_markings():
    for bad in ((), (0,), (0, 0)):
        with pytest.raises(ConfigError):
            psi_integral_genus0(bad)


def test_psi_integral_rejects_negative_exponent():
    with pytest.raises(ConfigError):
        psi_integral_genus0((0, 0, -1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=7))
def test_psi_integral_matches_string_recursion(exps):
    assert psi_integral_genus0(tuple(exps)) == psi_int_recursive(tuple(exps))


# ---------------------------------------------------------------------------
# fixed-point classes of the line


def test_restrictions():
    assert restrict_at(P0, LEVEL_ZERO) == LAM
    assert restrict_at(P0, LEVEL_INF) == RF_ZERO
    assert restrict_at(PINF, LEVEL_ZERO) == RF_ZERO
    assert restrict_at(PINF, LEVEL_INF) == -LAM
    assert restrict_at(ONE, LEVEL_ZERO) == RF_ONE
    with pytest.raises(ConfigError):
        restrict_at(ONE, "elsewhere")


def test_hyperplane_square():
    assert HYP * HYP == HYP * LAM


def test_idempotents():
    e0 = idempotent_zero()
    einf = idempotent_infinity()
    assert e0 * e0 == e0
    assert einf * einf == einf
    assert e0 + einf == ONE
    assert (e0 * einf).is_zero()


# ---------------------------------------------------------------------------
# fixed-graph sums: exact values


def test_point_classes_pair_to_one():
    got = p1_graph_sum(2, 1, [(P0, 0), (PINF, 0)])
    assert got == RF_ONE


def test_hyperplane_pair_is_one():
    got = p1_graph_sum(2, 1, [(HYP, 0), (HYP, 0)])
    assert got == RF_ONE
    assert got.as_frac() == Frac(1)


def test_unmarked_degree_one_cover():
    assert p1_graph_sum(0, 1, []) == RF_ONE


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_two_units_vanish(delta):
    assert p1_graph_sum(2, delta, [(ONE, 0), (ONE, 0)]).is_zero()


def test_dimension_matched_descendants_are_constant():
    # unit insertions with exponents filling the dimension leave no lam
    got = p1_graph_sum(2, 1, [(ONE, 1), (ONE, 1)])
    assert got.as_frac() is not None


# ---------------------------------------------------------------------------
# fixed-graph sums against the labeled-tree oracle

ORACLE_CASES = [
    (0, 1, ()),
    (0, 2, ()),
    (1, 1, (("one", 1),)),
    (1, 1, (("hyp", 0),)),
    (1, 1, (("hyp", 1),)),
    (1, 2, (("hyp", 3),)),
    (2, 1, (("one", 1), ("one", 1))),
    (2, 1, (("hyp", 0), ("hyp", 0))),
    (2, 1, (("zero_pt", 0), ("inf_pt", 0))),
    (2, 2, (("hyp", 1), ("inf_pt", 1))),
    (3, 0, (("hyp", 0), ("hyp", 1), ("one", 0))),
    (3, 1, (("one", 0), ("hyp", 0), ("inf_pt", 0))),
    (3, 2, (("hyp", 0), ("hyp", 0), ("hyp", 0))),
    (1, 3, (("hyp", 2),)),
    (4, 1, (("one", 0), ("one", 0), ("hyp", 1), ("inf_pt", 0))),
]


@pytest.mark.parametrize(
    "n,delta,spec_ins",
    ORACLE_CASES,
    ids=[f"n{n}d{d}-" + "-".join(f"{c}{k}" for c, k in ins) for n, d, ins in ORACLE_CASES],
)
def test_graph_sum_matches_labeled_tree_oracle(n, delta, spec_ins):
    main = p1_graph_sum(n, delta, [(CLS[c], k) for c, k in spec_ins])
    oracle = brute_p1(n, delta, [SYM[c] + (k,) for c, k in spec_ins])
    assert sympy.cancel(ratfun_to_sympy(main) - oracle) == 0


# ---------------------------------------------------------------------------
# fixed-graph sums: errors


def test_graph_sum_bounds():
    with pytest.raises(BoundsExceeded):
        p1_graph_sum(6, 1, [(ONE, 0)] * 6)
    with pytest.raises(BoundsExceeded):
        p1_graph_sum(1, 4, [(ONE, 0)])


def test_graph_sum_unstable_degree_zero():
    with pytest.raises(ConfigError):
        p1_graph_sum(2, 0, [(ONE, 0), (ONE, 0)])


def test_graph_sum_insertion_mismatch():
    with pytest.raises(ConfigError):
        p1_graph_sum(2, 1, [(ONE, 0)])


def test_graph_sum_rejects_negative_exponent():
    with pytest.raises(ConfigError):
        p1_graph_sum(1, 1, [(ONE, -1)])


def test_graph_sum_rejects_wrong_state_space():
    with pytest.raises(ConfigError):
        p1_graph_sum(1, 1, [(CohClass.unit(NILPOTENT, 2), 0)])


# ---------------------------------------------------------------------------
# string, dilaton and divisor relations

RELATION_BASES = [
    (2, 1, ((HYP, 0), (PINF, 1))),
    (2, 1, ((ONE, 1), (HYP, 0))),
    (3, 1, ((HYP, 0), (ONE, 0), (PINF, 0))),
    (2, 2, ((HYP, 1), (HYP, 0))),
    (3, 2, ((ONE, 1), (HYP, 0), (HYP, 0))),
]


@pytest.mark.parametrize("n,delta,ins", RELATION_BASES)
def test_string_equation(n, delta, ins):
    lhs = p1_graph_sum(n + 1, delta, list(ins) + [(ONE, 0)])
    rhs = RF_ZERO
    for i, (alpha, k) in enumerate(ins):
        if k > 0:
            dropped = list(ins)
            dropped[i] = (alpha, k - 1)
            rhs = rhs + p1_graph_sum(n, delta, dropped)
    assert lhs == rhs


@pytest.mark.parametrize("n,delta,ins", RELATION_BASES)
def test_dilaton_equation(n, delta, ins):
    lhs = p1_graph_sum(n + 1, delta, list(ins) + [(ONE, 1)])
    assert lhs == p1_graph_sum(n, delta, list(ins)) * RatFun(n - 2)


@pytest.mark.parametrize("n,delta,ins", RELATION_BASES)
def test_divisor_equation(n, delta, ins):
    lhs = p1_graph_sum(n + 1, delta, list(ins) + [(HYP, 0)])
    rhs = p1_graph_sum(n, delta, list(ins)) * RatFun(delta)
    for i, (alpha, k) in enumerate(ins):
        if k > 0:
            contact = list(ins)
            contact[i] = (HYP * alpha, k - 1)
            rhs = rhs + p1_graph_sum(n, delta, contact)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# tail series


def test_marked_series_constant_term():
    assert tree_series_S(ONE, 2, 2).coeff(0) == RF_ONE
    assert tree_series_S(HYP, 2, 2).coeff(0) == LAM
    assert tree_series_S(PINF, 2, 2).coeff(0).is_zero()


@pytest.mark.parametrize("y_order", [0, 1, 2, 3, 4])
def test_unmarked_series_has_no_constant_term(y_order):
    assert tree_series_eps(y_order, 3).coeff(0).is_zero()


def test_marked_series_first_order():
    got = tree_series_S(ONE, 1, 3).coeff(1)
    want = RF_ZERO
    for k in range(4):
        want = want - Z ** k / LAM ** (k + 2)
    assert got == want


def test_unmarked_series_first_order():
    got = tree_series_eps(1, 3).coeff(1)
    want = RF_ZERO
    for k in range(4):
        want = want + Z ** k / LAM ** (k + 1)
    assert got == want


def test_marked_series_hyperplane_first_order_vanishes():
    # the far fixed point kills the hyperplane restriction; longer tails
    # only start at second order
    assert tree_series_S(HYP, 1, 3).coeff(1).is_zero()


def test_unmarked_series_at_cotangent_zero():
    collapsed = tree_series_eps(2, 4).series.map_coeffs(lambda c: c.subs_z(RF_ZERO))
    assert collapsed.coeff(1, RF_ZERO) == RF_ONE / LAM


def test_tail_series_coefficients_polynomial_in_z():
    ts = tree_series_S(ONE, 3, 5)
    for k in range(1, 4):
        parts = ts.coeff(k).z_parts()
        assert all(0 <= e <= 5 for e in parts)


def test_tail_series_caps():
    with pytest.raises(BoundsExceeded):
        tree_series_S(ONE, 13, 2)
    with pytest.raises(BoundsExceeded):
        tree_series_eps(2, 17)
    with pytest.raises(ConfigError):
        tree_series_eps(-1, 2)


# ---------------------------------------------------------------------------
# rewrite at a three-pointed component


def test_three_point_sum_first_order():
    got = comb_three_point(ONE, ONE, ONE, 2)
    assert got.coeff(1, RF_ZERO) == RatFun(-2) / LAM ** 3
    assert got.coeff(0, RF_ZERO) == RF_ONE / LAM


def test_dressing_first_order():
    got = comb_dressing(2)
    assert got.coeff(1, RF_ZERO) == RF_ONE / LAM ** 3
    assert got.coeff(0, RF_ZERO) == RF_ONE / LAM


def _disc(y_order):
    return TruncSeries("y", y_order, {0: RF_ONE, 1: RatFun(4) / LAM ** 2})


def test_unit_value_is_quartic_root():
    got = stilde_at_zero(ONE, 4)
    assert got == series_root_pow(_disc(4), Frac(-1, 4))


def test_unit_value_frozen_coefficients():
    got = stilde_at_zero(ONE, 3)
    assert got.coeff(0, RF_ZERO) == RF_ONE
    assert got.coeff(1, RF_ZERO) == -(RF_ONE / LAM ** 2)
    assert got.coeff(2, RF_ZERO) == RatFun(Frac(5, 2)) / LAM ** 4
    assert got.coeff(3, RF_ZERO) == RatFun(Frac(-15, 2)) / LAM ** 6


def test_hyperplane_value_closed_form():
    got = stilde_at_zero(HYP, 4)
    want = (
        series_root_pow(_disc(4), Frac(-1, 4)) + series_root_pow(_disc(4), Frac(1, 4))
    ) * (LAM * Frac(1, 2))
    assert got == want


def test_hyperplane_value_frozen_coefficients():
    got = stilde_at_zero(HYP, 3)
    assert got.coeff(0, RF_ZERO) == LAM
    assert got.coeff(1, RF_ZERO).is_zero()
    assert got.coeff(2, RF_ZERO) == RatFun(Frac(1, 2)) / LAM ** 3
    assert got.coeff(3, RF_ZERO) == RatFun(-2) / LAM ** 5


def test_hyperplane_value_product_form():
    one_series = TruncSeries("y", 4, {0: RF_ONE})
    want = stilde_at_zero(ONE, 4) * (
        (one_series + series_root_pow(_disc(4), Frac(1, 2))) * (LAM * Frac(1, 2))
    )
    assert stilde_at_zero(HYP, 4) == want


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_rewritten_value_is_linear(a, b):
    alpha = ONE * a + HYP * b
    got = stilde_at_zero(alpha, 2)
    want = stilde_at_zero(ONE, 2) * RatFun(a) + stilde_at_zero(HYP, 2) * RatFun(b)
    assert got == want


def test_stilde_cap():
    with pytest.raises(BoundsExceeded):
        stilde_at_zero(ONE, 13)


# ---------------------------------------------------------------------------
# the square-root ratio identity


def test_ratio_report():
    rep = irr_ratio_check(3)
    assert rep["y_order"] == 3
    assert rep["coefficients"][0].is_zero()
    assert rep["coefficients"][2] == RatFun(2) / LAM ** 4
    assert rep["lambda_multiples"] == {1: Frac(-1), 2: Frac(2), 3: Frac(-5)}


def test_ratio_multiples_against_sympy_expansion():
    u = sympy.Symbol("u")
    expr = (1 - sympy.sqrt(1 + 4 * u)) / (1 + sympy.sqrt(1 + 4 * u))
    expansion = sympy.series(expr, u, 0, 5).removeO()
    rep = irr_ratio_check(4)
    for k in range(1, 5):
        c = expansion.coeff(u, k)
        assert rep["lambda_multiples"][k] == Frac(int(sympy.numer(c)), int(sympy.denom(c)))
