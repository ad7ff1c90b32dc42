"""Unstable J-coefficients, mirror-transform tables, and edge/node factors,
checked against closed-form and Cech-style sympy oracles plus frozen values
worked out by hand on the quintic models."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as Frac

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import homogeneous_degree
from helpers_jfun import (
    bundle_weights,
    cech_table,
    closed_edge_factor,
    closed_j_coefficient,
    coh_to_sympy,
    fraction_coefficient_table,
    fraction_ladder,
    fraction_lam_string,
    lam_coefficient,
    line_bundle_degree,
    p_bundle_degree,
    same_weight_multiset,
    z_plus_part,
)
from helpers_model import OrbiBundleData, euler_char
from helpers_p1 import LAM as SLAM
from helpers_p1 import ZSYM as SZ
from helpers_p1 import ratfun_to_sympy

from glsmx import cli, jfun
from glsmx.algebra import LAM, NILPOTENT, RF_ONE, Z, CohClass, RatFun
from glsmx.errors import (
    BoundsExceeded,
    ConfigError,
    DegreeViolation,
    InconsistentOrbData,
    OnWall,
    OutOfUnstableRange,
)
from glsmx.graphs import LEVEL_INF, LEVEL_ZERO
from glsmx.jfun import (
    edge_contribution,
    i_function,
    j_sector,
    jwc_check,
    lambda_level,
    mu_table,
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
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
)
from glsmx.p1series import _edge_coefficient

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
    assert len(table.h0_weights) - len(table.h1_weights) == 4


def test_weight_table_degree_minus_one():
    table = bundle_weights(-1, 0, 0, LAM, Z)
    assert table.h0_weights == ()
    assert table.h1_weights == ()
    assert len(table.h0_weights) - len(table.h1_weights) == 0


def test_weight_table_degree_minus_two():
    t, w0 = LAM, Z
    table = bundle_weights(-2, 0, 0, t, w0)
    assert table.h0_weights == ()
    assert table.h1_weights == (w0 + t,)
    assert len(table.h0_weights) - len(table.h1_weights) == -1


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
    chi = len(table.h0_weights) - len(table.h1_weights)
    assert chi == euler_char(OrbiBundleData(0, rational, (age0, age_inf)))
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


def _random_models(rounds, seed):
    """Seeded models with weights dividing d and N <= 3: each round has one
    for every d <= 12, the phases alternating from round to round.  An LG
    weight below d, when d > 1, keeps some sectors narrow: a weight equal to
    d fixes its coordinate in every sector, so every coefficient vanishes."""
    rng = random.Random(seed)
    models = []
    for i in range(rounds):
        phase = (LG, GEOMETRIC)[i % 2]
        for d in range(1, 13):
            top = d if phase == LG and d > 1 else d + 1
            divisors = [w for w in range(1, top) if d % w == 0]
            weights = tuple(sorted(rng.choice(divisors) for _ in range(rng.randint(1, 5))))
            models.append(GlsmModel(weights, rng.randint(1, 3), d, phase))
    return models


# the quintic, P(1,1,1,1,2)[6], P(1,1,1,1,4)[8], P(1,1,1,2,5)[10], P^5[3,3]
# and P^7[2,2,2,2]: the models whose genus-zero invariants are published
_NAMED_CY_DATA = (
    ((1,) * 5, 1, 5),
    ((1, 1, 1, 1, 2), 1, 6),
    ((1, 1, 1, 1, 4), 1, 8),
    ((1, 1, 1, 2, 5), 1, 10),
    ((1,) * 6, 2, 3),
    ((1,) * 8, 4, 2),
)

LADDER_ORACLE_SETS = {
    "acceptance": (ALL_MODELS, jfun.Q_CAP),
    "named_cy": (
        [GlsmModel(w, n, d, phase) for w, n, d in _NAMED_CY_DATA for phase in (LG, GEOMETRIC)],
        12,
    ),
    "random": (_random_models(3, 0), 8),
}


@pytest.mark.parametrize("name", sorted(LADDER_ORACLE_SETS))
def test_int_ladder_matches_the_fraction_ladder(name):
    # the int ladder reproduces the step-by-step Frac ladder exactly, past
    # Q_CAP on the named models since the uncached body has no degree gate
    models, q_max = LADDER_ORACLE_SETS[name]
    for model in models:
        for beta in range(q_max + 1):
            for twisted in (False, True):
                got = jfun._ladder.__wrapped__(model, beta, twisted)
                want = fraction_ladder(model, beta, twisted)
                assert got == want, (model, beta, twisted)
                assert repr(got) == repr(want), (model, beta, twisted)


def _rendered_values():
    """The {beta: CohClass} tables the reports render: I-functions of the
    acceptance and named models through Q_CAP, one mirror-map table per
    chamber bound, and edge factors up to delta 4, each both twists."""
    named = LADDER_ORACLE_SETS["named_cy"][0]
    for model in ALL_MODELS + named:
        for twisted in (False, True):
            yield i_function(model, jfun.Q_CAP, twisted)
    for model in ALL_MODELS:
        for twisted in (False, True):
            for bound in range(1, jfun.Q_CAP + 1):
                yield mu_table(model, Frac(2, 2 * bound + 1), twisted)
            for delta in range(1, 5):
                for beta in range(delta):
                    for vertex in (None, LEVEL_ZERO, LEVEL_INF):
                        value = edge_contribution(model, delta, beta, None, twisted, vertex)
                        yield {beta: value}


def test_int_renderer_matches_the_fraction_renderer():
    # the report tables render on the int numerators over one denominator;
    # the Frac-per-term renderer they replaced must give the same strings
    # in the same order
    tables = 0
    for values in _rendered_values():
        got = cli._coefficient_table(values)
        assert list(got.items()) == list(fraction_coefficient_table(values).items())
        for value in values.values():
            for f in value.coeffs:
                for part in f.z_parts().values():
                    assert cli._lam_string(part) == fraction_lam_string(part)
        tables += 1
    assert tables == 32 + 64 + 240


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
def test_cached_coefficients_equal_cold_recompute(model, twisted, cold_caches):
    betas = range(jfun.Q_CAP + 1)
    warm = [unstable_J_coefficient(model, b, None, twisted) for b in betas]
    warm_plus = mu_table(model, Frac(2, 2 * jfun.Q_CAP + 1), twisted)
    assert all(unstable_J_coefficient(model, b, None, twisted) is warm[b] for b in betas)
    cold_caches()
    cold = [unstable_J_coefficient(model, b, None, twisted) for b in betas]
    assert all(cold[b] is not warm[b] and cold[b] == warm[b] for b in betas)
    cold_plus = [positive_z_part(c) for c in cold]
    cold_plus[0] = cold_plus[0] - state_unit(model) * Z
    assert list(warm_plus.values()) == cold_plus


def test_coefficient_cache_ignores_model_epsilon(cold_caches):
    # the coefficient never reads the model's own epsilon, so models that
    # differ only there share cache entries
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
            d = homogeneous_degree(f)
            assert d is not None, (model.phase, beta, k)
            degrees.add(d + k)
        if value.is_zero():
            continue
        assert degrees == {_expected_degree(model, beta, twisted)}


# --- I-function and mu-tables ----------------------------------------------


@pytest.mark.parametrize("model", ALL_MODELS)
def test_i_function_leading_positive_part(model):
    coefficients = i_function(model, 4)
    assert sorted(coefficients) == [0, 1, 2, 3, 4]
    assert positive_z_part(coefficients[0]) == Z * state_unit(model)


def test_i_function_collects_unstable_coefficients():
    coefficients = i_function(QUINTIC_LG, 6)
    for beta in range(7):
        assert coefficients[beta] == unstable_J_coefficient(
            QUINTIC_LG, beta, None, False
        )
        assert j_sector(QUINTIC_LG, beta) == QUINTIC_LG_SECTORS[beta]


@pytest.mark.parametrize("twisted", [False, True])
def test_i_function_twisted_flag(twisted):
    coefficients = i_function(QUINTIC_LG, 4, twisted)
    for beta in range(5):
        assert coefficients[beta] == unstable_J_coefficient(
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
    assert table[0].is_zero()


def test_mu_quintic_lg_untwisted():
    table = mu_table(QUINTIC_LG, Frac(2, 5), False)
    assert max(table) == 2
    assert table[1] == state_unit(QUINTIC_LG)
    assert table[2].is_zero()
    assert 3 not in table  # beyond the unstable range
    assert list(table) == [0, 1, 2]
    assert j_sector(QUINTIC_LG, 1) == Frac(2, 5)


def test_mu_quintic_lg_twisted():
    table = mu_table(QUINTIC_LG, Frac(2, 7), True)
    assert max(table) == 3
    unit = state_unit(QUINTIC_LG)
    assert table[1] == LAM * unit
    assert table[2] == LAM * Frac(-1, 2) * unit
    assert table[3] == LAM * Frac(1, 3) * unit


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
        diff = sympy.cancel(sympy.together(coh_to_sympy(table[beta]) - expected))
        assert diff == 0, (model.phase, beta, twisted)


@pytest.mark.parametrize("model", [QUINTIC_LG, QUINTIC_GEOM])
def test_mu_top_lambda_recovers_untwisted(model):
    eps = Frac(2, 7)
    twisted = mu_table(model, eps, True)
    plain = mu_table(model, eps, False)
    for beta in range(1, 4):
        top = lam_coefficient(coh_to_sympy(twisted[beta]), beta)
        diff = sympy.cancel(sympy.together(top - coh_to_sympy(plain[beta])))
        assert diff == 0, (model.phase, beta)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_plus_part_equals_i_truncation(model):
    eps = Frac(2, 5)
    coefficients = i_function(model, 4)
    for beta in range(3):  # unstable range for eps = 2/5
        direct = positive_z_part(unstable_J_coefficient(model, beta, eps, False))
        assert direct == positive_z_part(coefficients[beta])


# --- edge contributions -----------------------------------------------------


def test_edge_unit_quintic_lg():
    value = edge_contribution(QUINTIC_LG, 1, 0, EPS_WIDE, False)
    assert value == CohClass([LAM**-2 * Frac(-1, 5)], NILPOTENT, 1)


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_edge_matches_p1_module_on_point_target(delta):
    value = edge_contribution(POINT_GEOM, delta, 0, EPS_WIDE, False)
    assert value.coeffs[0] == RatFun(_edge_coefficient(delta)) / LAM ** (2 * delta)
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


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.phase}{m.weights}")
@pytest.mark.parametrize("delta", [1, 2, 3, 4])
def test_edge_against_closed_form(model, delta):
    for beta in range(delta):
        for twisted in (False, True):
            for vertex in (None, LEVEL_ZERO, LEVEL_INF):
                value = edge_contribution(model, delta, beta, None, twisted, vertex)
                expected = closed_edge_factor(
                    model.weights, model.N, model.d, model.phase,
                    delta, beta, twisted, vertex,
                )
                assert_same(value, expected)


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
            return {b: c + state_unit(model) if b == 1 else c for b, c in table.items()}
        return table

    monkeypatch.setattr(jfun, "mu_table", crooked)
    report = jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 5), 3)
    assert report["passed"] is False
    assert any(c["status"] == "fail" and c["first_failure"] for c in report["checks"])


def _z_filter(keep):
    """positive_z_part with the z powers it keeps chosen by keep."""

    def filtered(value):
        kept = [
            RatFun({k: v for k, v in f.num.items() if keep(k[1])}, f.den[(0, 0)])
            for f in value.coeffs
        ]
        return CohClass(kept, value.relation, value.r)

    return filtered


@pytest.mark.parametrize(
    "keep, where",
    [(lambda n: True, "epsilon=2/7 beta=2"), (lambda n: n > 0, "epsilon=2/3 beta=1")],
    ids=["every_z_power", "z_positive_only"],
)
def test_jwc_sees_a_broken_z_filter(monkeypatch, cold_caches, keep, where):
    # the chamber tables are built through positive_z_part, and the check
    # filters the I-coefficients itself, so a broken filter moves a table
    # away from its own degree's coefficient
    monkeypatch.setattr(jfun, "positive_z_part", _z_filter(keep))
    report = jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 7), 4)
    check = report["checks"][0]
    assert check["name"] == "plus_part_vs_i_untwisted"
    assert check["status"] == "fail"
    assert check["first_failure"] == where
    assert report["passed"] is False


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize(
    "epsilons", [(Frac(2, 3), Frac(2, 3)), (Frac(2, 3), Frac(2, 7)), (Frac(2, 9), Frac(2, 5))]
)
def test_jwc_report_holds_the_four_checks(model, epsilons):
    # perfbench fails every jwc report whose checks are not exactly these
    report = jwc_check(model, *epsilons, 4)
    assert [c["name"] for c in report["checks"]] == [
        "plus_part_vs_i_untwisted",
        "mu_wall_crossing_untwisted",
        "plus_part_vs_i_twisted",
        "mu_wall_crossing_twisted",
    ]
    assert report["passed"] is True


def test_jwc_caps():
    with pytest.raises(BoundsExceeded):
        jwc_check(QUINTIC_LG, Frac(2, 3), Frac(2, 5), jfun.Q_CAP + 1)


def test_coefficient_and_edge_cap_the_degree():
    # the same cap as the series, table and comparison entry points
    beta = jfun.Q_CAP + 1
    for twisted in (False, True):
        with pytest.raises(BoundsExceeded):
            unstable_J_coefficient(QUINTIC_GEOM, beta, None, twisted)
        with pytest.raises(BoundsExceeded):
            edge_contribution(QUINTIC_GEOM, beta + 1, beta, None, twisted)
    assert not unstable_J_coefficient(QUINTIC_GEOM, jfun.Q_CAP).is_zero()


def test_chamber_entry_points_reject_walls():
    with pytest.raises(OnWall):
        mu_table(QUINTIC_LG, Frac(1, 2))
    with pytest.raises(OnWall):
        jwc_check(QUINTIC_LG, Frac(2, 3), Frac(1, 3), 4)
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
