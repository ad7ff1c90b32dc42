"""Unstable J-coefficients, mirror-transform tables, and edge/node factors,
checked against closed-form and Cech-style sympy oracles plus frozen values
worked out by hand on the quintic models."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction as Frac

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_jfun import (
    cech_table,
    closed_j_coefficient,
    coh_to_sympy,
    lam_coefficient,
    same_weight_multiset,
    z_plus_part,
)
from helpers_p1 import LAM as SLAM
from helpers_p1 import ZSYM as SZ
from helpers_p1 import ratfun_to_sympy

from glsmx import jfun
from glsmx.algebra import LAM, NILPOTENT, RF_ONE, Z, CohClass, RatFun
from glsmx.errors import (
    BoundsExceeded,
    ConfigError,
    DegreeViolation,
    IdentityFailed,
    InconsistentOrbData,
    OnWall,
    OutOfUnstableRange,
)
from glsmx.graphs import LEVEL_INF, LEVEL_ZERO
from glsmx.jfun import (
    PSI,
    bundle_weights,
    edge_contribution,
    i_function,
    j_sector,
    jwc_check,
    lambda_level,
    mu_table,
    node_contribution,
    positive_z_part,
    state_hyperplane,
    state_rank,
    state_unit,
    unstable_J_coefficient,
)
from glsmx.model import (
    GEOMETRIC,
    LG,
    GlsmModel,
    OrbiBundleData,
    euler_char,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
    line_bundle_degree,
    p_bundle_degree,
)
from glsmx.p1series import _edge_factor

QUINTIC_LG = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
QUINTIC_GEOM = GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC)
MIXED_LG = GlsmModel((1, 1, 2, 2), 2, 4, LG)
SMALL_GEOM = GlsmModel((1, 1), 2, 2, GEOMETRIC)
POINT_GEOM = GlsmModel((1,), 1, 1, GEOMETRIC)

ALL_MODELS = [QUINTIC_LG, QUINTIC_GEOM, MIXED_LG, SMALL_GEOM]

# epsilon deep inside the chamber where every beta <= 6 is unstable
EPS_WIDE = Frac(2, 13)


def oracle(model, beta, twisted=False):
    return closed_j_coefficient(
        model.weights, model.N, model.d, model.phase, beta, twisted
    )


def assert_same(value, expr):
    diff = sympy.cancel(sympy.together(coh_to_sympy(value) - expr))
    assert diff == 0, diff


# --- weight tables ---------------------------------------------------------


def test_weight_table_degree_three():
    t, w0 = LAM, 3 * Z - LAM
    table = bundle_weights(3, 0, 0, t, w0)
    assert table.h0_weights == (w0, w0 - t, w0 - 2 * t, w0 - 3 * t)
    assert table.h1_weights == ()
    assert table.euler_char == 4


def test_weight_table_degree_minus_one():
    table = bundle_weights(-1, 0, 0, LAM, Z)
    assert table.h0_weights == ()
    assert table.h1_weights == ()
    assert table.euler_char == 0


def test_weight_table_degree_minus_two():
    t, w0 = LAM, Z
    table = bundle_weights(-2, 0, 0, t, w0)
    assert table.h0_weights == ()
    assert table.h1_weights == (w0 + t,)
    assert table.euler_char == -1


def test_weight_table_orbifold_shifts():
    # rational degree 7/5 with age 2/5 at infinity pushes forward to degree 1
    table = bundle_weights(Frac(7, 5), 0, Frac(2, 5), LAM, RF_ONE)
    assert len(table.h0_weights) == 2
    assert table.h1_weights == ()


def test_weight_table_rejects_inconsistent_data():
    with pytest.raises(InconsistentOrbData):
        bundle_weights(Frac(1, 2), 0, 0, LAM, RF_ONE)
    with pytest.raises(InconsistentOrbData):
        bundle_weights(1, Frac(3, 2), 0, LAM, RF_ONE)
    with pytest.raises(InconsistentOrbData):
        bundle_weights(1, 0, -Frac(1, 5), LAM, RF_ONE)


_AGES = st.fractions(min_value=0, max_value=Frac(5, 6), max_denominator=6)
_TANGENTS = st.sampled_from(
    [LAM, Z, LAM + Z, LAM * Frac(1, 2), 2 * LAM - Z, LAM - 3 * Z]
)
_FIBERS = st.sampled_from(
    [RatFun(0), RF_ONE, LAM, -Z, LAM * Frac(2, 3) + Z, 5 * Z - 2 * LAM]
)


@settings(max_examples=200, deadline=None)
@given(deg=st.integers(-6, 6), age0=_AGES, age_inf=_AGES, t=_TANGENTS, w0=_FIBERS)
def test_weight_table_random_against_cech(deg, age0, age_inf, t, w0):
    rational = deg + age0 + age_inf
    table = bundle_weights(rational, age0, age_inf, t, w0)
    assert table.euler_char == euler_char(OrbiBundleData(0, rational, (age0, age_inf)))
    h0, h1 = cech_table(rational, age0, age_inf, ratfun_to_sympy(t), ratfun_to_sympy(w0))
    assert same_weight_multiset([ratfun_to_sympy(w) for w in table.h0_weights], h0)
    assert same_weight_multiset([ratfun_to_sympy(w) for w in table.h1_weights], h1)


# --- unstable J-coefficients -----------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS)
def test_leading_coefficient_is_z(model):
    value = unstable_J_coefficient(model, 0, EPS_WIDE, False)
    assert value == Z * state_unit(model)
    assert j_sector(model, 0) == graph_multiplicities(model, 0)[1]


QUINTIC_LG_FROZEN = {
    0: Z,
    1: RF_ONE,
    2: RF_ONE / (2 * Z),
    3: RF_ONE / (6 * Z**2),
    4: RatFun(0),
    5: Z * Frac(-1, 375000),
    6: RatFun(Frac(-2, 140625)),
}

QUINTIC_LG_SECTORS = {
    0: Frac(1, 5),
    1: Frac(2, 5),
    2: Frac(3, 5),
    3: Frac(4, 5),
    4: Frac(0),
    5: Frac(1, 5),
    6: Frac(2, 5),
}


@pytest.mark.parametrize("beta", sorted(QUINTIC_LG_FROZEN))
def test_quintic_lg_frozen_values(beta):
    value = unstable_J_coefficient(QUINTIC_LG, beta, EPS_WIDE, False)
    assert value == CohClass([QUINTIC_LG_FROZEN[beta]], NILPOTENT, 1)
    assert j_sector(QUINTIC_LG, beta) == QUINTIC_LG_SECTORS[beta]


QUINTIC_LG_TWISTED_FROZEN = {
    1: LAM,
    2: (LAM**2 - LAM * Z) / (2 * Z),
    3: (LAM**3 - 3 * LAM**2 * Z + 2 * LAM * Z**2) / (6 * Z**2),
}


@pytest.mark.parametrize("beta", sorted(QUINTIC_LG_TWISTED_FROZEN))
def test_quintic_lg_twisted_frozen_values(beta):
    value = unstable_J_coefficient(QUINTIC_LG, beta, EPS_WIDE, True)
    assert value == CohClass([QUINTIC_LG_TWISTED_FROZEN[beta]], NILPOTENT, 1)


def test_broad_sectors_vanish():
    assert unstable_J_coefficient(QUINTIC_LG, 4, EPS_WIDE, False).is_zero()
    assert unstable_J_coefficient(QUINTIC_LG, 4, EPS_WIDE, True).is_zero()
    for beta in (1, 3):
        assert unstable_J_coefficient(MIXED_LG, beta, EPS_WIDE, False).is_zero()


DUAL_PATH_CASES = [
    (QUINTIC_LG, range(7)),
    (QUINTIC_GEOM, range(4)),
    (MIXED_LG, range(5)),
    (SMALL_GEOM, range(3)),
]


@pytest.mark.parametrize("model,betas", DUAL_PATH_CASES)
@pytest.mark.parametrize("twisted", [False, True])
def test_dual_path_against_closed_form(model, betas, twisted):
    for beta in betas:
        value = unstable_J_coefficient(model, beta, None, twisted)
        assert_same(value, oracle(model, beta, twisted))


def test_geometric_hypergeometric_shape():
    # the auxiliary-field obstruction flips the sign of each of the d*beta
    # numerator factors relative to the classical positive normalization
    value = unstable_J_coefficient(QUINTIC_GEOM, 1, EPS_WIDE, False)
    classical = SZ
    for m in range(1, 6):
        classical *= 5 * SLAM_H + m * SZ
    for b in range(1, 2):
        classical /= (SLAM_H + b * SZ) ** 5
    classical = sympy.series(classical, SLAM_H, 0, 5).removeO()
    assert_same(value, sympy.expand((-1) ** 5 * classical))


SLAM_H = sympy.Symbol("H")


def test_unstable_range_enforced():
    with pytest.raises(OutOfUnstableRange):
        unstable_J_coefficient(QUINTIC_LG, 3, Frac(2, 5), False)  # 3 > 5/2
    with pytest.raises(OutOfUnstableRange):
        unstable_J_coefficient(QUINTIC_LG, -1, EPS_WIDE, False)
    with pytest.raises(ConfigError):
        unstable_J_coefficient(QUINTIC_LG, 1, Frac(-1, 2), False)
    assert unstable_J_coefficient(QUINTIC_LG, 2, Frac(2, 5), False) is not None


@pytest.mark.parametrize("twisted", [False, True])
def test_warm_cache_keeps_every_check(twisted):
    # beta = 2 is unstable for 2/5 and stable for 2/3; 1/2 is a wall
    warm = unstable_J_coefficient(QUINTIC_GEOM, 2, Frac(2, 5), twisted)
    assert unstable_J_coefficient(QUINTIC_GEOM, 2, None, twisted) is warm
    with pytest.raises(OutOfUnstableRange):
        unstable_J_coefficient(QUINTIC_GEOM, 2, Frac(2, 3), twisted)
    with pytest.raises(ConfigError):
        unstable_J_coefficient(QUINTIC_GEOM, 2, Frac(-2, 5), twisted)
    with pytest.raises(ConfigError):
        unstable_J_coefficient(QUINTIC_GEOM, 2, 0, twisted)
    with pytest.raises(OnWall):
        unstable_J_coefficient(QUINTIC_GEOM, 2, Frac(1, 2), twisted)
    with pytest.raises(OutOfUnstableRange):
        unstable_J_coefficient(QUINTIC_GEOM, -1, None, twisted)
    # the cached plus part behind the mirror-map tables is gated the same way
    mu_table(QUINTIC_GEOM, Frac(2, 5), twisted)
    with pytest.raises(OnWall):
        mu_table(QUINTIC_GEOM, Frac(1, 2), twisted)
    with pytest.raises(OnWall):
        edge_contribution(QUINTIC_GEOM, 3, 2, Frac(1, 2), twisted)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("twisted", [False, True])
def test_cached_coefficients_equal_cold_recompute(model, twisted):
    betas = range(jfun.Q_CAP + 1)
    warm = [unstable_J_coefficient(model, b, None, twisted) for b in betas]
    warm_plus = mu_table(model, Frac(2, 2 * jfun.Q_CAP + 1), twisted).entries
    assert all(unstable_J_coefficient(model, b, None, twisted) is warm[b] for b in betas)
    jfun._ladder.cache_clear()
    jfun._ladder_plus.cache_clear()
    cold = [unstable_J_coefficient(model, b, None, twisted) for b in betas]
    assert all(cold[b] is not warm[b] and cold[b] == warm[b] for b in betas)
    cold_plus = [positive_z_part(c) for c in cold]
    cold_plus[0] = cold_plus[0] - state_unit(model) * Z
    assert [value for _, value in warm_plus] == cold_plus


def test_coefficient_cache_ignores_model_epsilon():
    # the coefficient never reads the model's own epsilon, so models that
    # differ only there share cache entries
    jfun._ladder.cache_clear()
    jfun._ladder_plus.cache_clear()
    for eps in (None, Frac(2, 7), Frac(2, 5)):
        mu_table(replace(QUINTIC_GEOM, epsilon=eps), Frac(2, 7))
    assert jfun._ladder.cache_info().misses == 4
    assert jfun._ladder_plus.cache_info().misses == 4


def _expected_degree(model, beta, twisted):
    """Homogeneity degree via Euler-characteristic bookkeeping only."""
    m1 = graph_multiplicities(model, beta)[0]
    deg_l = line_bundle_degree(model, 0, 1, beta)
    total = 1
    for w in model.weights:
        if model.phase == LG:
            chi = euler_char(OrbiBundleData(0, w * deg_l, (frac_bracket(w * m1),)))
            total -= chi
        else:
            chi = euler_char(OrbiBundleData(0, w * deg_l))
            total -= chi - 1
    chi_p = euler_char(
        OrbiBundleData(
            0, p_bundle_degree(model, 0, 1, beta), (frac_bracket(-model.d * m1),)
        )
    )
    total -= model.N * (chi_p - 1) if model.phase == LG else model.N * chi_p
    return total + (beta if twisted else 0)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("twisted", [False, True])
def test_coefficients_are_homogeneous(model, twisted):
    for beta in range(5):
        value = unstable_J_coefficient(model, beta, None, twisted)
        degrees = set()
        for k, f in enumerate(value.coeffs):
            if f.is_zero():
                continue
            d = f.homogeneous_degree()
            assert d is not None, (model.phase, beta, k)
            degrees.add(d + k)
        if value.is_zero():
            continue
        assert degrees == {_expected_degree(model, beta, twisted)}


# --- I-function and mu-tables ----------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS)
def test_i_function_leading_positive_part(model):
    series = i_function(model, 4)
    assert positive_z_part(series.coefficient(0)) == Z * state_unit(model)
    assert series.model.phase == model.phase
    assert series.twisted is False


def test_i_function_collects_unstable_coefficients():
    series = i_function(QUINTIC_LG, 6)
    for beta in range(7):
        assert series.coefficient(beta) == unstable_J_coefficient(
            QUINTIC_LG, beta, None, False
        )
        assert series.sector(beta) == QUINTIC_LG_SECTORS[beta]


@pytest.mark.parametrize("twisted", [False, True])
def test_i_function_twisted_flag(twisted):
    series = i_function(QUINTIC_LG, 4, twisted)
    assert series.twisted is twisted
    for beta in range(5):
        assert series.coefficient(beta) == unstable_J_coefficient(
            QUINTIC_LG, beta, None, twisted
        )


def test_i_function_caps():
    with pytest.raises(BoundsExceeded):
        i_function(QUINTIC_LG, jfun.Q_CAP + 1)
    with pytest.raises(ConfigError):
        i_function(QUINTIC_LG, -1)


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("twisted", [False, True])
def test_mu_zero_vanishes(model, twisted):
    table = mu_table(model, Frac(2, 5), twisted)
    assert table.entry(0).is_zero()


def test_mu_quintic_lg_untwisted():
    table = mu_table(QUINTIC_LG, Frac(2, 5), False)
    assert table.beta_max == 2
    assert table.entry(1) == state_unit(QUINTIC_LG)
    assert table.entry(2).is_zero()
    assert table.entry(3).is_zero()  # beyond the unstable range
    assert 3 not in table.betas()
    assert table.sector(1) == Frac(2, 5)


def test_mu_quintic_lg_twisted():
    table = mu_table(QUINTIC_LG, Frac(2, 7), True)
    assert table.beta_max == 3
    unit = state_unit(QUINTIC_LG)
    assert table.entry(1) == LAM * unit
    assert table.entry(2) == LAM * Frac(-1, 2) * unit
    assert table.entry(3) == LAM * Frac(1, 3) * unit


def test_mu_bounds():
    with pytest.raises(ConfigError):
        mu_table(QUINTIC_LG, Frac(0), False)
    with pytest.raises(BoundsExceeded):
        mu_table(QUINTIC_LG, Frac(1, 100), False)


@pytest.mark.parametrize("model", [QUINTIC_GEOM, SMALL_GEOM, QUINTIC_LG])
@pytest.mark.parametrize("twisted", [False, True])
def test_mu_matches_oracle_plus_part(model, twisted):
    table = mu_table(model, Frac(2, 5), twisted)
    for beta in (1, 2):
        expected = z_plus_part(oracle(model, beta, twisted))
        diff = sympy.cancel(sympy.together(coh_to_sympy(table.entry(beta)) - expected))
        assert diff == 0, (model.phase, beta, twisted)


@pytest.mark.parametrize("model", [QUINTIC_LG, QUINTIC_GEOM])
def test_mu_top_lambda_recovers_untwisted(model):
    eps = Frac(2, 7)
    twisted = mu_table(model, eps, True)
    plain = mu_table(model, eps, False)
    for beta in range(1, 4):
        top = lam_coefficient(coh_to_sympy(twisted.entry(beta)), beta)
        diff = sympy.cancel(sympy.together(top - coh_to_sympy(plain.entry(beta))))
        assert diff == 0, (model.phase, beta)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_plus_part_equals_i_truncation(model):
    eps = Frac(2, 5)
    series = i_function(model, 4)
    for beta in range(3):  # unstable range for eps = 2/5
        direct = positive_z_part(unstable_J_coefficient(model, beta, eps, False))
        assert direct == positive_z_part(series.coefficient(beta))


# --- edge contributions -----------------------------------------------------


def test_edge_unit_quintic_lg():
    value = edge_contribution(QUINTIC_LG, 1, 0, EPS_WIDE, False)
    assert value == CohClass([LAM**-2 * Frac(-1, 5)], NILPOTENT, 1)


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_edge_matches_p1_module_on_point_target(delta):
    value = edge_contribution(POINT_GEOM, delta, 0, EPS_WIDE, False)
    assert value.coeffs[0] == _edge_factor(delta)
    assert all(c.is_zero() for c in value.coeffs[1:])


def test_edge_denominator_from_weight_enumeration():
    # moving sections of O(2[0] + 2[infty]) on the double cover, H -> 0
    table = bundle_weights(4, 0, 0, LAM * Frac(1, 2), LAM)
    moving = RF_ONE
    for w in table.h0_weights:
        if not w.is_zero():
            moving = moving * w
    value = edge_contribution(POINT_GEOM, 2, 0, EPS_WIDE, False)
    assert value.coeffs[0] * moving == RF_ONE


@pytest.mark.parametrize(
    "model,delta,beta",
    [(QUINTIC_LG, 2, 1), (QUINTIC_LG, 3, 2), (MIXED_LG, 3, 2)],
)
def test_edge_twist_numerator(model, delta, beta):
    plain = edge_contribution(model, delta, beta, EPS_WIDE, False)
    twisted = edge_contribution(model, delta, beta, EPS_WIDE, True)
    lam0 = lambda_level(model, LEVEL_ZERO)
    gain = state_unit(model)
    for b in range(beta):
        gain = gain * (lam0 - lam0 * Frac(b, delta))
    assert twisted == plain * gain


def test_edge_oracle_mixed_lg():
    # delta=1, beta=0 on a rank-2 state space: -1/(4*(lam-H)^2)
    value = edge_contribution(MIXED_LG, 1, 0, EPS_WIDE, False)
    H = sympy.Symbol("H")
    expected = sympy.series(
        -sympy.Rational(1, 4) / (SLAM - H) ** 2, H, 0, 2
    ).removeO()
    assert_same(value, sympy.expand(expected))


def test_edge_unstable_vertex_factor():
    base = edge_contribution(QUINTIC_LG, 2, 0, EPS_WIDE, False)
    dressed = edge_contribution(
        QUINTIC_LG, 2, 0, EPS_WIDE, False, unstable_vertex=LEVEL_INF
    )
    assert dressed == base * (lambda_level(QUINTIC_LG, LEVEL_INF) * Frac(1, 2))


def test_edge_degree_checks():
    with pytest.raises(DegreeViolation):
        edge_contribution(QUINTIC_LG, 1, 1, EPS_WIDE, False)
    with pytest.raises(DegreeViolation):
        edge_contribution(QUINTIC_LG, 2, 2, EPS_WIDE, False)
    with pytest.raises(ConfigError):
        edge_contribution(QUINTIC_LG, 0, 0, EPS_WIDE, False)
    with pytest.raises(OutOfUnstableRange):
        edge_contribution(QUINTIC_LG, 5, 4, Frac(2, 5), False)


# --- node contributions -----------------------------------------------------


def test_node_factor_lg_zero_side():
    normal, smoothing = node_contribution(QUINTIC_LG, Frac(1, 5), LEVEL_ZERO, 2)
    assert normal == lambda_level(QUINTIC_LG, LEVEL_ZERO)
    assert smoothing.d_m == 5
    assert smoothing.edge_term == normal * Frac(1, 2)
    assert smoothing.vertex_term is None
    assert "psi" in repr(smoothing)
    with pytest.raises(ConfigError):
        smoothing.explicit()


def test_node_factor_infinity_side():
    normal, smoothing = node_contribution(MIXED_LG, Frac(0), LEVEL_INF, 1)
    assert normal == CohClass([-LAM, RF_ONE], NILPOTENT, 2)
    assert smoothing.d_m == 1
    assert smoothing.edge_term == normal


def test_node_factor_edge_to_edge():
    other = lambda_level(QUINTIC_LG, LEVEL_ZERO) * Frac(1, 3)
    normal, smoothing = node_contribution(
        QUINTIC_LG, Frac(2, 5), LEVEL_ZERO, 2, vertex_side_psi=other
    )
    assert smoothing.vertex_term == other
    total = smoothing.edge_term + other  # (lam)/2 + (lam)/3 at H = 0
    assert smoothing.explicit() == 5 * total.inverse()
    assert smoothing.explicit() == CohClass([RF_ONE / LAM * 6], NILPOTENT, 1)


# --- wall-crossing bookkeeping ----------------------------------------------


@pytest.mark.parametrize("model", [QUINTIC_LG, QUINTIC_GEOM])
def test_jwc_equal_chambers(model):
    report = jwc_check(model, Frac(2, 3), Frac(2, 3), 3)
    assert report["passed"] is True
    assert report["gained"] == []
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("model", [QUINTIC_LG, QUINTIC_GEOM])
def test_jwc_adjacent_chambers(model):
    report = jwc_check(model, Frac(2, 3), Frac(2, 5), 3)
    assert report["passed"] is True
    assert report["gained"] == [2]


@pytest.mark.parametrize("model", [QUINTIC_LG, QUINTIC_GEOM])
def test_jwc_wider_chamber_gap(model):
    report = jwc_check(model, Frac(2, 3), Frac(2, 7), 3)
    assert report["passed"] is True
    assert report["gained"] == [2, 3]


def test_jwc_detects_corruption(monkeypatch):
    real = jfun.mu_table

    def crooked(model, epsilon, twisted=False):
        table = real(model, epsilon, twisted)
        if epsilon == Frac(2, 5) and not twisted:
            entries = tuple(
                (b, c + state_unit(model) if b == 1 else c)
                for b, c in table.entries
            )
            return jfun.MuTable(table.model, table.epsilon, table.twisted, entries)
        return table

    monkeypatch.setattr(jfun, "mu_table", crooked)
    with pytest.raises(IdentityFailed):
        jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 5), 3)
    report = jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 5), 3, strict=False)
    assert report["passed"] is False
    assert any(c["status"] == "fail" and c["first_failure"] for c in report["checks"])


def test_jwc_caps():
    with pytest.raises(BoundsExceeded):
        jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 5), jfun.Q_CAP + 1)


def test_chamber_entry_points_reject_walls():
    with pytest.raises(OnWall):
        mu_table(QUINTIC_LG, Frac(1, 2))
    with pytest.raises(OnWall):
        jwc_check(QUINTIC_LG, Frac(2, 3), Frac(1, 3), 4, strict=False)
    with pytest.raises(OnWall):
        edge_contribution(QUINTIC_LG, 2, 1, Frac(1, 2), False)


# --- state-space helpers ----------------------------------------------------


def test_state_rank_by_phase():
    assert state_rank(QUINTIC_LG) == 1
    assert state_rank(QUINTIC_GEOM) == 5
    assert state_rank(MIXED_LG) == 2
    assert state_rank(SMALL_GEOM) == 2


def test_lambda_level_shapes():
    lam0 = lambda_level(MIXED_LG, LEVEL_ZERO)
    lam_inf = lambda_level(MIXED_LG, LEVEL_INF)
    assert lam0 == CohClass([LAM, -RF_ONE], NILPOTENT, 2)
    assert lam_inf == -lam0
    assert (lam0 + lam_inf).is_zero()
    assert lambda_level(QUINTIC_LG, LEVEL_ZERO) == CohClass([LAM], NILPOTENT, 1)
    with pytest.raises(ConfigError):
        lambda_level(MIXED_LG, "somewhere")
