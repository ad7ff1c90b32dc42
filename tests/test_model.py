from __future__ import annotations

from fractions import Fraction as Frac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_jfun import line_bundle_degree, p_bundle_degree
from helpers_model import OrbiBundleData, check_compatibility, euler_char

from glsmx.errors import ConfigError, OnWall
from glsmx.model import (
    GEOMETRIC,
    LG,
    GlsmModel,
    bundle_degree_numerator,
    choose_delta,
    compat_residue,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
    list_sectors,
    solve_last_multiplicity,
)


def quintic_lg(eps=Frac(2, 3)):
    return GlsmModel(weights=(1, 1, 1, 1, 1), N=1, d=5, phase=LG, epsilon=eps)


def quintic_geom(eps=Frac(2, 3)):
    return GlsmModel(weights=(1, 1, 1, 1, 1), N=1, d=5, phase=GEOMETRIC, epsilon=eps)


# -- model validation ---------------------------------------------------------


def test_model_rejects_nondividing_weight():
    with pytest.raises(ConfigError):
        GlsmModel(weights=(1, 3), N=1, d=4, phase=LG)


def test_model_rejects_wall_epsilon():
    with pytest.raises(OnWall):
        quintic_lg(eps=Frac(1, 3))


def test_model_infinity_chamber():
    m = quintic_lg(eps=None)
    assert m.epsilon is None


def test_unit_sector_mult_by_phase():
    assert quintic_lg().unit_sector_mult == Frac(1, 5)
    assert quintic_geom().unit_sector_mult == 0


# -- frac_bracket -------------------------------------------------------------


def test_frac_bracket():
    assert frac_bracket(Frac(-4, 5)) == Frac(1, 5)
    assert frac_bracket(-2) == 0
    assert frac_bracket(Frac(7, 3)) == Frac(1, 3)


@given(st.fractions(max_denominator=60))
def test_frac_bracket_is_mod_one(a):
    b = frac_bracket(a)
    assert 0 <= b < 1
    assert (a - b).denominator == 1


@given(
    st.one_of(
        st.integers(-40, 40),
        st.fractions(min_value=-9, max_value=9, max_denominator=60),
        st.fractions(min_value=-9, max_value=9, max_denominator=60).map(str),
    )
)
def test_frac_bracket_matches_floor_reference(a):
    # ints, strings, negative values and values of 1 or more all come back
    # as a Fraction equal to a - floor(a)
    exact = Frac(a)
    b = frac_bracket(a)
    assert type(b) is Frac
    assert b == exact - (exact.numerator // exact.denominator)


@given(st.integers(1, 59).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Frac(p, q))))
def test_frac_bracket_keeps_a_reduced_fraction(a):
    assert frac_bracket(a) is a


# -- sectors ------------------------------------------------------------------


def test_quintic_sectors():
    sectors = list_sectors(quintic_lg())
    assert len(sectors) == 5
    narrow = {s.mult for s in sectors if s.narrow}
    assert narrow == {Frac(1, 5), Frac(2, 5), Frac(3, 5), Frac(4, 5)}
    zero = sectors[0]
    assert not zero.narrow
    assert zero.fixed_coords == frozenset({1, 2, 3, 4, 5})


def test_mixed_weight_sectors():
    m = GlsmModel(weights=(1, 1, 2, 2), N=1, d=4, phase=LG, epsilon=Frac(2, 3))
    sectors = {s.mult: s for s in list_sectors(m)}
    assert not sectors[Frac(1, 2)].narrow
    assert sectors[Frac(1, 2)].fixed_coords == frozenset({3, 4})
    assert {s for s, v in sectors.items() if v.narrow} == {Frac(1, 4), Frac(3, 4)}


def test_isotropy_order_at_zero():
    assert isotropy_order(6, 0) == 1
    assert isotropy_order(6, Frac(1, 2)) == 2
    assert isotropy_order(5, Frac(2, 5)) == 5


@given(st.integers(1, 12), st.integers(0, 11))
def test_isotropy_order_symmetric(d, k):
    m = Frac(k % d, d)
    assert isotropy_order(d, m) == isotropy_order(d, frac_bracket(-m))


# -- compatibility ------------------------------------------------------------


def test_compatibility_lg_example():
    m = quintic_lg()
    assert check_compatibility(m, 0, 2, (Frac(1, 5), Frac(1, 5), Frac(2, 5)))
    assert not check_compatibility(m, 0, 2, (Frac(1, 5), Frac(1, 5), Frac(1, 5)))


def test_solve_last_lg():
    m = quintic_lg()
    assert solve_last_multiplicity(m, 1, 0, ()) == Frac(1, 5)


def test_compatibility_geometric():
    m = quintic_geom()
    assert check_compatibility(m, 0, Frac(7, 5), (Frac(1, 5), Frac(1, 5)))
    assert not check_compatibility(m, 0, Frac(7, 5), (Frac(1, 5),))


@given(
    st.integers(0, 2),
    st.integers(0, 6),
    st.lists(st.integers(0, 4), max_size=4),
)
def test_append_unit_mult_preserves_compatibility(g, beta, ks):
    for m in (quintic_lg(), quintic_geom()):
        mults = tuple(Frac(k, 5) for k in ks)
        before = check_compatibility(m, g, beta, mults)
        after = check_compatibility(m, g, beta, mults + (m.unit_sector_mult,))
        assert before == after


@given(st.integers(0, 2), st.integers(0, 6), st.lists(st.integers(0, 4), max_size=3))
def test_solve_last_actually_solves(g, beta, ks):
    for m in (quintic_lg(), quintic_geom()):
        mults = tuple(Frac(k, 5) for k in ks)
        last = solve_last_multiplicity(m, g, beta, mults)
        assert check_compatibility(m, g, beta, mults + (last,))


RESIDUE_MODELS = (
    GlsmModel((1, 1, 1, 1, 1), 1, 5, LG),
    GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC),
    GlsmModel((1, 1, 2, 2), 2, 4, LG),
    GlsmModel((1, 1), 2, 2, GEOMETRIC),
)


@given(
    st.sampled_from(RESIDUE_MODELS),
    st.integers(0, 2),
    st.integers(0, 6),
    st.lists(st.integers(-6, 12), max_size=4),
)
def test_compat_residue_matches_fraction_path(model, g, beta, ks):
    # numerators are drawn outside 0..d-1 too: only k mod d may matter
    d = model.d
    mults = tuple(Frac(k, d) for k in ks)
    target = compat_residue(model, g, len(ks), beta)
    assert 0 <= target < d
    assert ((sum(ks) - target) % d == 0) == check_compatibility(model, g, beta, mults)
    last = (compat_residue(model, g, len(ks) + 1, beta) - sum(ks)) % d
    assert last == d * solve_last_multiplicity(model, g, beta, mults)


# -- graph multiplicities -----------------------------------------------------


def test_graph_multiplicities_quintic():
    m = quintic_lg()
    assert graph_multiplicities(m, 3) == (Frac(1, 5), Frac(4, 5))
    assert graph_multiplicities(m, 4) == (0, 0)
    assert graph_multiplicities(m, 9) == (0, 0)


@given(st.integers(0, 30))
def test_graph_multiplicities_balanced(beta):
    m = quintic_lg()
    a, b = graph_multiplicities(m, beta)
    assert (a + b).denominator == 1


def _bracketed_multiplicities(model, beta):
    # graph_multiplicities as it read before it moved to int residues
    if model.phase == GEOMETRIC:
        return Frac(0), Frac(0)
    marked = frac_bracket(Frac(-beta - 1, model.d))
    basepoint = frac_bracket(Frac(beta + 1, model.d))
    return marked, basepoint


@pytest.mark.parametrize("phase", [LG, GEOMETRIC])
def test_graph_multiplicities_match_the_bracket_form(phase):
    for d in range(1, 13):
        model = GlsmModel((1,), 1, d, phase)
        for beta in range(3 * d + 1):
            got = graph_multiplicities(model, beta)
            assert got == _bracketed_multiplicities(model, beta), (d, beta)
            assert all(type(m) is Frac for m in got)
            assert (got[0] + got[1]).denominator == 1


# -- euler characteristic (the test oracle in helpers_model) ------------------


def test_euler_char_frozen():
    assert euler_char(OrbiBundleData(1, Frac(0))) == 0
    assert euler_char(OrbiBundleData(0, Frac(-1))) == 0
    assert euler_char(OrbiBundleData(0, Frac(7, 5), (Frac(1, 5), Frac(1, 5)))) == 2


def test_euler_char_nonintegral():
    with pytest.raises(ValueError):
        euler_char(OrbiBundleData(0, Frac(7, 5), (Frac(1, 5),)))


def _chi_genus0_oracle(coarse):
    # explicit cohomology dimensions on the projective line
    h0 = max(0, coarse + 1)
    h1 = max(0, -coarse - 1)
    return h0 - h1


@given(st.integers(-8, 8), st.lists(st.integers(0, 4), max_size=3))
def test_euler_char_genus0_matches_dimension_count(coarse, ks):
    ages = tuple(Frac(k, 5) for k in ks)
    data = OrbiBundleData(0, coarse + sum(ages, Frac(0)), ages)
    assert euler_char(data) == _chi_genus0_oracle(coarse)


# -- bundle degrees -----------------------------------------------------------


def test_p_bundle_degree_integrality():
    # the auxiliary bundle always has integral rational degree minus ages
    m = quintic_lg()
    for beta in range(6):
        mults = (solve_last_multiplicity(m, 0, beta, (Frac(1, 5),)), Frac(1, 5))
        deg = p_bundle_degree(m, 0, len(mults), beta)
        ages = tuple(frac_bracket(-m.d * x) for x in mults)
        assert (deg - sum(ages, Frac(0))).denominator == 1


def test_line_bundle_degree_phases():
    assert line_bundle_degree(quintic_lg(), 1, 1, 0) == Frac(1, 5)
    assert line_bundle_degree(quintic_geom(), 0, 0, 3) == 3
    assert p_bundle_degree(quintic_geom(), 0, 1, 1) == -6
    # the int numerator that validate reads is d times the Frac degree
    for model in (quintic_lg(), quintic_geom()):
        for genus in range(3):
            for n in range(5):
                for beta in range(7):
                    numerator = bundle_degree_numerator(model, genus, n, beta)
                    assert Frac(numerator, model.d) == line_bundle_degree(model, genus, n, beta)


# -- choose_delta -------------------------------------------------------------


def test_choose_delta_frozen():
    assert choose_delta(Frac(2, 5)) == Frac(1, 10)
    assert choose_delta(Frac(3, 7)) == Frac(1, 14)
    assert choose_delta(2) == Frac(1, 2)
    with pytest.raises(OnWall):
        choose_delta(Frac(1, 3))


def _delta_scan_ok(eps, delta):
    # every k with k*eps within 1 of the wall keeps its sign after the shift
    k_hi = int(2 / eps) + 2
    for k in range(-k_hi, k_hi + 1):
        lhs = k * eps - 1
        if not abs(lhs) <= 1:
            continue
        if (lhs > 0) != (lhs + delta > 0):
            return False
    return True


@given(st.fractions(min_value=Frac(1, 40), max_value=4, max_denominator=40))
@settings(max_examples=100)
def test_choose_delta_scan(eps):
    if (1 / eps).denominator == 1:
        return
    assert _delta_scan_ok(eps, choose_delta(eps))
