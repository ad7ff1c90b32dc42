"""Tests for genus-zero localization on maps to the projective line:
cotangent integrals, the fixed-graph sum against a labeled-tree oracle, the
tail series, the rewrite at a three-pointed component against the
three-point-sum oracle, and the square-root ratio identity."""

import ast
import hashlib
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction as Frac
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import _CACHES, as_frac, homogeneous_degree, laurent_terms
from helpers_p1 import (
    LAM as SLAM,
    POINT_MODEL,
    brute_p1,
    budget_tail,
    idempotent_infinity,
    idempotent_zero,
    psi_int_recursive,
    ratfun_to_sympy,
    restrict_at,
    rewritten_values,
    series_div,
    series_root_pow,
    series_sub,
    stationary_invariant,
    three_point_sum,
    vertex_weight,
    walk_graph_sum,
    weak_compositions,
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
)
import glsmx
from glsmx import jfun, p1series
from glsmx.errors import BoundsExceeded, ConfigError
from glsmx.p1series import (
    Y_ORDER_CAP,
    Z_ORDER_CAP,
    _branch,
    _placements,
    _root_row,
    _vertex_weight,
    hyperplane_class,
    irr_ratio_check,
    p1_graph_sum,
    point_class_infinity,
    point_class_zero,
    psi_integral_genus0,
    stilde_at_zero,
    tree_series_S,
    tree_series_eps,
    unit_class,
)
from glsmx.graphs import LEVEL_INF, LEVEL_ZERO, _census, aut_degree, canonical_key

ONE = unit_class()
HYP = hyperplane_class()
P0 = point_class_zero()
PINF = point_class_infinity()

# 2 - lam + (3 + 1/lam) H: restrictions that are not monomials in lam
MIX = ONE * (RatFun(2) - LAM) + HYP * (RatFun(3) + RF_ONE / LAM)

# sympy restrictions (at zero, at infinity) matching the classes above
SYM = {
    "one": (sympy.Integer(1), sympy.Integer(1)),
    "hyp": (SLAM, sympy.Integer(0)),
    "zero_pt": (SLAM, sympy.Integer(0)),
    "inf_pt": (sympy.Integer(0), -SLAM),
    "mix": (3 + 2 * SLAM, 2 - SLAM),
}
CLS = {"one": ONE, "hyp": HYP, "zero_pt": P0, "inf_pt": PINF, "mix": MIX}


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
    assert as_frac(got) == Frac(1)


def test_unmarked_degree_one_cover():
    assert p1_graph_sum(0, 1, []) == RF_ONE


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_two_units_vanish(delta):
    assert p1_graph_sum(2, delta, [(ONE, 0), (ONE, 0)]).is_zero()


def test_dimension_matched_descendants_are_constant():
    # unit insertions with exponents filling the dimension leave no lam
    got = p1_graph_sum(2, 1, [(ONE, 1), (ONE, 1)])
    assert as_frac(got) is not None


# ---------------------------------------------------------------------------
# fixed loci of maps to the line, up to isomorphism

# classes of n-pointed, covering-degree-delta fixed trees
POINT_CLASS_COUNTS = {
    (0, 1): 1,
    (0, 2): 3,
    (1, 1): 2,
    (1, 2): 6,
    (2, 1): 4,
    (2, 2): 14,
    (3, 0): 2,
    (3, 1): 8,
    (3, 2): 36,
    (3, 3): 156,
    (4, 0): 2,
    (4, 1): 16,
    (4, 2): 98,
    (4, 3): 536,
    (0, 4): 16,
    (0, 5): 37,
}


@pytest.mark.parametrize("n,delta", sorted(POINT_CLASS_COUNTS))
def test_fixed_locus_class_counts(n, delta):
    graphs = [graph for graph, _ in _census(POINT_MODEL, 0, n, 0, delta)]
    assert len(graphs) == POINT_CLASS_COUNTS[(n, delta)]
    assert len({canonical_key(g) for g in graphs}) == len(graphs)


CAPPED_SHAPES = [
    (n, delta)
    for n in range(p1series.N_CAP + 1)
    for delta in range(p1series.DELTA_CAP + 1)
    if delta or n >= 3
]


@pytest.mark.parametrize("n,delta", CAPPED_SHAPES + [(0, 4), (0, 5)])
def test_census_ties_are_the_automorphism_order(n, delta):
    # the census on its own: its tie count is |Aut| on the point model,
    # whose trees have no parallel edges
    census = _census(POINT_MODEL, 0, n, 0, delta)
    assert census
    for graph, ties in census:
        assert ties == aut_degree(POINT_MODEL, graph)[0]


@pytest.mark.parametrize("n,delta", CAPPED_SHAPES)
def test_marked_trees_are_the_marking_maps_of_unmarked_trees(n, delta):
    # orbit counting on the census on its own: Aut T permutes the maps from
    # the labelled markings to the vertices of an unmarked tree T, with the
    # marked trees as orbits, so sum 1/|Aut| over the marked trees is sum
    # |V(T)|^n/|Aut T| over the unmarked ones; at degree zero those are the
    # one-vertex trees at the two fixed points
    marked = sum(Frac(1, ties) for _, ties in _census(POINT_MODEL, 0, n, 0, delta))
    unmarked = _census(POINT_MODEL, 0, 0, 0, delta)
    maps = sum(Frac(len(graph.vertices) ** n, ties) for graph, ties in unmarked) if delta else 2
    assert marked == maps
    if (n, delta) == (5, 3):
        assert marked == Frac(5650, 3)


def test_vertex_factor_is_the_composition_sum():
    # the closed weight of a contracted component, times the flag degrees
    # its edges carry, against its cotangent integrals summed over the
    # compositions of the budget, one term per composition, with the
    # recursive integrals of the oracle
    for sign, f, nk in product((1, -1), range(4), range(5)):
        if f + nk < 3:
            continue
        for degs, ks in product(
            combinations_with_replacement((1, 2, 3), f), product(range(4), repeat=nk)
        ):
            budget = f + nk - 3 - sum(ks)
            want = Frac(0)
            for bs in weak_compositions(budget, f):
                term = psi_int_recursive(bs + ks)
                for d, b in zip(degs, bs):
                    term *= (sign * d) ** (b + 1)
                want += term
            got = _vertex_weight(sign, f, sum(degs), ks) * prod(degs)
            assert got == want * sign ** (f + 1)


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
    (5, 1, (("hyp", 0), ("hyp", 0), ("hyp", 1), ("inf_pt", 1), ("one", 0))),
    (5, 2, (("hyp", 1), ("hyp", 0), ("inf_pt", 1), ("one", 0), ("hyp", 2))),
    (3, 3, (("mix", 2), ("hyp", 1), ("hyp", 1))),
    (4, 2, (("mix", 1), ("hyp", 1), ("hyp", 0), ("inf_pt", 1))),
    (4, 3, (("mix", 1), ("hyp", 1), ("mix", 1), ("inf_pt", 1))),
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


@pytest.mark.parametrize("n,delta", CAPPED_SHAPES)
def test_graph_sum_matches_the_per_tree_walk(n, delta):
    # the placement tables against every tree walked afresh, at every shape
    # the caps admit; sums that cancel to zero count too
    rng = random.Random(f"walk:{n}:{delta}")
    for _ in range(4):
        ins = [(CLS[rng.choice(sorted(CLS))], rng.randint(0, 2)) for _ in range(n)]
        assert p1_graph_sum(n, delta, ins) == walk_graph_sum(n, delta, ins)


# every stationary genus-zero shape within the caps: point insertions whose
# cotangent exponents fill the dimension, sum(ks) = 2*delta - 2
STATIONARY_SHAPES = [
    (ks, delta)
    for delta in range(1, p1series.DELTA_CAP + 1)
    for n in range(1, p1series.N_CAP + 1)
    for ks in combinations_with_replacement(range(2 * delta - 1), n)
    if sum(ks) == 2 * delta - 2
]


def test_stationary_oracle_pins():
    # the Hurwitz-side oracle against published values: the one-point
    # invariants 1/(d!)^2 of the J-function of the line, and multi-point
    # ones from the GW/Hurwitz correspondence, some beyond the caps
    for d in range(1, 6):
        assert stationary_invariant((2 * d - 2,), d) == Frac(1, factorial(d) ** 2)
    pins = {
        ((0, 0, 0), 1): 1,
        ((0, 2), 2): Frac(1, 2),
        ((1, 1), 2): Frac(1, 2),
        ((2, 2), 3): Frac(1, 3),
        ((0, 1, 3), 3): Frac(1, 2),
        ((3, 5), 5): Frac(1, 120),
        ((0, 0, 0, 0, 8), 5): Frac(25, 576),
    }
    for (ks, d), value in pins.items():
        assert stationary_invariant(ks, d) == value, (ks, d)


def test_graph_sums_match_the_stationary_invariants():
    # localization against the GW/Hurwitz correspondence, which shares no
    # code with glsmx: at every stationary shape the sum stands at lam^0 and
    # does not depend on the equivariant lift of the point class, so the
    # zero point at every marking and a lift mixing both fixed points give
    # the same number
    assert len(STATIONARY_SHAPES) == 32
    for ks, delta in STATIONARY_SHAPES:
        want = RatFun(stationary_invariant(ks, delta))
        mixed = [(P0 if i % 2 else PINF, k) for i, k in enumerate(ks)]
        assert p1_graph_sum(len(ks), delta, [(P0, k) for k in ks]) == want, (ks, delta)
        assert p1_graph_sum(len(ks), delta, mixed) == want, (ks, delta)


# the stationary shapes one degree past DELTA_CAP, sum(ks) = 6 at delta = 4
STATIONARY_SHAPES_PAST_THE_CAP = [
    ks
    for n in range(1, p1series.N_CAP + 1)
    for ks in combinations_with_replacement(range(7), n)
    if sum(ks) == 6
]


def _placement_sum(delta, insertions):
    # the graph sum read from its placement table, which p1_graph_sum's
    # DELTA_CAP does not bound
    pairs = sorted(insertions, key=lambda pair: pair[1])
    total = RF_ZERO
    for levels, value in _placements(len(pairs), delta, tuple(k for _, k in pairs)):
        for (alpha, _), level in zip(pairs, levels):
            value = value * restrict_at(alpha, level)
        total = total + value
    return total


def test_placements_past_the_cap_match_the_stationary_invariants():
    # the rooted recursion at delta = 4 against the GW/Hurwitz
    # correspondence, with both lifts of the point class
    assert len(STATIONARY_SHAPES_PAST_THE_CAP) == 31
    for ks in STATIONARY_SHAPES_PAST_THE_CAP:
        want = RatFun(stationary_invariant(ks, 4))
        mixed = [(P0 if i % 2 else PINF, k) for i, k in enumerate(ks)]
        assert _placement_sum(4, [(P0, k) for k in ks]) == want, ks
        assert _placement_sum(4, mixed) == want, ks


def test_graph_sums_share_the_table_of_their_sorted_exponents(cold_caches):
    # the sum is symmetric in the markings, so every order of the same
    # cotangent exponents reads one placement table
    classes = [HYP, PINF, MIX]
    for exps in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
        ins = list(zip(classes, exps))
        assert p1_graph_sum(3, 2, ins) == walk_graph_sum(3, 2, ins)
    assert p1series._placements.cache_info().misses == 1


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
# the insertions' restriction rows


def _laurent(z_low):
    """Laurent polynomials in lam, times z^z_low to z^3, with small rational
    coefficients."""
    return st.lists(
        st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=z_low, max_value=3),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=1, max_value=4),
        ),
        max_size=3,
    ).map(lambda terms: RatFun({(e, j): Frac(n, d) for e, j, n, d in terms}))


@st.composite
def _line_classes(draw, z_low=0):
    """A class c0 + c1*H on the line with mixed lam and z terms; when drawn,
    c1 also holds -c0/lam, so that c0's terms cancel at zero."""
    c0, c1 = draw(_laurent(z_low)), draw(_laurent(z_low))
    if draw(st.booleans()):
        c1 = c1 - c0 / LAM
    return ONE * c0 + HYP * c1


def _line_class(c0, c1):
    return ONE * RatFun(c0) + HYP * RatFun(c1)


@settings(max_examples=60, deadline=None)
@given(_line_classes(z_low=-2))
# every term cancels at zero
@example(_line_class({(1, 0): 2, (0, 1): Frac(1, 3)}, {(0, 0): -2, (-1, 1): Frac(-1, 3)}))
# a negative z power that cancels at zero but not at infinity
@example(_line_class({(2, -1): 1}, {(1, -1): -1}))
# a negative z power at zero alone
@example(_line_class({(0, 0): 1}, {(0, -2): Frac(1, 2)}))
def test_restriction_rows_are_the_kernel_restrictions(alpha):
    # the int rows against restrict_zero and restrict_infinity: ints over a
    # positive den, no entry that cancelled; a negative z power at either
    # fixed point is refused, with one message, by the two tail readers,
    # which cut at a z order, and summed by the graph sums, which do not
    at = (alpha.restrict_zero(), alpha.restrict_infinity())
    den, zero, inf = p1series._restriction_rows(alpha)
    assert type(den) is int and den > 0
    for row, want in zip((zero, inf), at):
        assert all(type(c) is int and c for c in row.values())
        assert RatFun(row, den) == want
    if any(j < 0 for f in at for _, j in f.num):
        for read in (lambda a: tree_series_S(a, 2, 3), lambda a: stilde_at_zero(a, 2)):
            with pytest.raises(ConfigError, match="^insertions must not hold negative powers of z$"):
                read(alpha)
    assert p1_graph_sum(1, 1, [(alpha, 0)]) == _placement_sum(1, [(alpha, 0)])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_graph_sum_is_the_sum_of_placement_products(data):
    # the int-row products against the RatFun products of the same
    # placement table, at any shape the caps admit, negative z powers too
    n = data.draw(st.integers(min_value=0, max_value=p1series.N_CAP))
    delta = data.draw(st.integers(min_value=0 if n >= 3 else 1, max_value=p1series.DELTA_CAP))
    ins = [(data.draw(_line_classes(z_low=-2)), data.draw(st.integers(0, 3))) for _ in range(n)]
    assert p1_graph_sum(n, delta, ins) == _placement_sum(delta, ins)


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


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("marked", [False, True])
def test_far_weight_matches_vertex_oracle(sign, marked):
    # the incoming edge of degree a and side branches of degrees <= 3, with
    # the marking (restriction r, no cotangent power) on the vertex or not,
    # where it weighs as one more flag; the edges carry the flag degrees,
    # and the weight stands at lam^(2-f)
    r = sympy.Symbol("r")
    t = sign * SLAM
    marks = [(r, 0)] if marked else []
    # a vertex with the marking has at least the incoming edge besides it
    for f in range(1 + marked, 7):
        for a in (1, 2, 3):
            for degs in combinations_with_replacement((1, 2, 3), f - 1 - marked):
                c = a * _vertex_weight(sign, f, a + sum(degs), ()) * prod(degs)
                got = sympy.Rational(c.numerator, c.denominator) * SLAM ** (2 - f)
                want = vertex_weight(t, [t / d for d in (a,) + degs], marks)
                assert sympy.cancel(got * (r if marked else 1) - want) == 0, (f, a, degs)


@pytest.mark.parametrize("level", [LEVEL_ZERO, LEVEL_INF])
@pytest.mark.parametrize("mark", [None, (1, 0), (0, 1)])
def test_tail_coefficients_match_the_budget_recursion(level, mark, cold_caches):
    # each degree-keyed coefficient, a branch over the degree of its near
    # flag and back at its lam power, against the budget-keyed tables on the
    # kernel, at every degree up to 8; the marking has cotangent exponent 0
    # and weighs its restriction at its fixed point
    at = None if mark is None else (RatFun(mark[0]), RatFun(mark[1]))
    marks = 0 if mark is None else 1
    for a in range(1, 9):
        table = budget_tail(level, a, 8, at)
        for degree in range(1, 9):
            den, branch = _branch((0,) * marks, level, a, degree, marks)
            if mark is None:
                c = branch.get(0, 0)
            else:
                c = mark[0] * branch.get(1, 0) + mark[1] * branch.get(0, 0)
            got = RatFun({(1 - marks - 2 * degree, 0): Frac(c, a * den)})
            assert got == table.get(degree, RF_ZERO), (a, degree)


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
    assert tree_series_eps(2, 4).coeff(1).z_parts()[0] == RF_ONE / LAM


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


def _root_series(y_order, k=1):
    # tau^k from the cached rows, its y^D value put back at lam^(k - 2D)
    return TruncSeries("y", y_order, {
        d: RatFun({(k - 2 * d, 0): _root_row(d)[k]})
        for d in range(y_order + 1)
        if k in _root_row(d)
    })


def _unmarked_parts(y_order):
    # the unmarked transform E on RatFuns with every lam power kept, one
    # series E_k per t^k: the z^k part of the unmarked series over k!
    eps = tree_series_eps(y_order, y_order).series
    return [
        TruncSeries("y", y_order, {
            d: c.z_parts().get(k, RF_ZERO) * Frac(1, factorial(k)) for d, c in eps.coeffs.items()
        })
        for k in range(y_order + 1)
    ]


def test_lagrange_root_is_the_signed_catalan_series(cold_caches):
    # at lam = 1 the root of tau = E(tau) is sum_D (-1)^(D-1) C_(D-1)/D y^D,
    # with C the Catalan numbers
    y = Y_ORDER_CAP
    want = {d: Frac((-1) ** (d - 1) * comb(2 * d - 2, d - 1), d * d) for d in range(1, y + 1)}
    assert [want[d] for d in range(1, 8)] == [
        1, Frac(-1, 2), Frac(2, 3), Frac(-5, 4), Frac(14, 5), -7, Frac(132, 7)
    ]
    # the row at y^D holds tau^k for k = 1, ..., D; the row at y^0 holds 1
    assert _root_row(0) == {0: 1}
    for d in range(1, y + 1):
        assert sorted(_root_row(d)) == list(range(1, d + 1))
        assert _root_row(d)[1] == want[d]
    # with tau at lam^(1 - 2D), tau^k stands at lam^(k - 2D) and starts at
    # y^k, and tau solves the fixed-point equation with every lam power of
    # the unmarked series kept
    tau = _root_series(y)
    power = TruncSeries("y", y, {0: RF_ONE})
    at_root = TruncSeries("y", y)
    for k, part in enumerate(_unmarked_parts(y)):
        assert _root_series(y, k) == power, k
        assert min(power.coeffs) == k
        at_root = at_root + part * power
        power = power * tau
    assert at_root == tau


def test_three_point_sum_first_order():
    # the oracle's triple-unit sum, pinned by hand at first order; over the
    # dressing it is the cube of the unit's value, u(tau)^3
    got = three_point_sum((ONE, ONE, ONE), 2)
    assert got.coeff(1, RF_ZERO) == RatFun(-2) / LAM ** 3
    assert got.coeff(0, RF_ZERO) == RF_ONE / LAM
    for y in range(7):
        unit = stilde_at_zero(ONE, y)
        triple = series_div(three_point_sum((ONE, ONE, ONE), y), three_point_sum((), y))
        assert triple == unit * unit * unit


def test_dressing_first_order():
    # the oracle's dressing, pinned by hand at first order, is
    # 1/(1 - E'(tau)) over lam, for the unmarked transform E at the root
    got = three_point_sum((), 2)
    assert got.coeff(1, RF_ZERO) == RF_ONE / LAM ** 3
    assert got.coeff(0, RF_ZERO) == RF_ONE / LAM
    for y in range(7):
        one = TruncSeries("y", y, {0: RF_ONE})
        slope = TruncSeries("y", y)
        for k, part in enumerate(_unmarked_parts(y)):
            if k:
                slope = slope + part * _root_series(y, k - 1) * RatFun(k)
        assert three_point_sum((), y) == series_div(one, series_sub(one, slope)) * (RF_ONE / LAM)


def test_rewritten_values_match_the_three_point_oracle(cold_caches):
    # the idempotents, the unit and the hyperplane at every order through
    # the cap, each order built cold on the way up; the oracle's
    # coefficients do not depend on its order, so one run at the cap,
    # truncated, serves every order
    classes = (idempotent_zero(), idempotent_infinity(), ONE, HYP)
    want = rewritten_values(classes, Y_ORDER_CAP)
    cold_caches()
    for y in range(Y_ORDER_CAP + 1):
        for alpha, series in zip(classes, want):
            assert stilde_at_zero(alpha, y) == TruncSeries("y", y, series.coeffs), (alpha, y)


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


# Laurent polynomials in lam with small rational coefficients
_LAM_COEFF = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=3,
).map(lambda terms: RatFun({(e, 0): Frac(n, d) for e, n, d in terms}))


@settings(max_examples=8, deadline=None)
@given(_LAM_COEFF, _LAM_COEFF)
def test_rewritten_value_is_linear(a, b):
    alpha = ONE * a + HYP * b
    got = stilde_at_zero(alpha, 2)
    want = stilde_at_zero(ONE, 2) * a + stilde_at_zero(HYP, 2) * b
    assert got == want


def _binomial(p, k):
    out = Frac(1)
    for i in range(k):
        out = out * (p - i) / (i + 1)
    return out


@settings(max_examples=10, deadline=None)
@given(_LAM_COEFF, _LAM_COEFF, st.integers(min_value=0, max_value=6))
def test_rewritten_value_matches_closed_form(c0, c1, y_order):
    # c0 disc^(-1/4) + c1 (lam/2)(disc^(-1/4) + disc^(1/4)), disc = 1 + 4y/lam^2,
    # expanded here by the binomial series on Fractions
    coeffs = {}
    for k in range(y_order + 1):
        scale = RatFun(4**k) / LAM ** (2 * k)
        minus, plus = _binomial(Frac(-1, 4), k), _binomial(Frac(1, 4), k)
        coeffs[k] = c0 * scale * minus + c1 * LAM * scale * ((minus + plus) / 2)
    want = TruncSeries("y", y_order, coeffs)
    assert stilde_at_zero(ONE * c0 + HYP * c1, y_order) == want


def test_rewritten_value_of_a_z_dependent_insertion():
    # z in a restriction shifts the cotangent transform, so such a value is
    # not the combination of the idempotent values at shift 0; the oracle is
    # the three-point sum with two units, normalised as the definition says.
    # Powers of z up to 3 give the transform t-powers past the lower orders;
    # the last insertion's powers pass every order here, so its transform
    # starts past the root's reach and its value is 0
    alphas = (
        ONE * (Z + RatFun(2)) + HYP * (RatFun(Frac(1, 3)) / LAM + Z * Z),
        ONE * Z ** 3 + HYP * Z,
        HYP * (Z * Z - LAM * Z) + ONE * (Z ** 3 - RF_ONE / LAM),
        PINF * (Z * Z) + P0 * (RatFun(2) * Z),
        ONE * Z ** 7 + HYP * (LAM * Z ** 9),
    )
    for y in range(2, 7):
        got = tuple(stilde_at_zero(alpha, y) for alpha in alphas)
        assert got == rewritten_values(alphas, y), y
        assert got[-1] == TruncSeries("y", y), y


# insertions whose restrictions hold positive powers of z
_Z_INSERTIONS = (
    ONE * (RF_ONE + Z),
    HYP * Z ** 3 + PINF * Z,
    MIX * Z + P0 * (Z * Z - LAM),
)


def test_z_dependent_tail_series_is_cut_at_its_z_order():
    # a z in the insertion raises the idempotents' z powers, and those past
    # z_order are dropped: the series at z_order is the one at z_order + 2
    # less its higher powers.  For the unit times 1 + z at y = 2, z order 1,
    # the y^1 coefficient has no z^2 term, whose full value is
    # -1/lam^3 - 1/lam^4
    for alpha in _Z_INSERTIONS:
        for y in range(4):
            for z in range(5):
                got = tree_series_S(alpha, y, z)
                higher = tree_series_S(alpha, y, z + 2).series
                want = TruncSeries("y", y, {
                    d: sum((part * Z**k for k, part in c.z_parts().items() if k <= z), RF_ZERO)
                    for d, c in higher.coeffs.items()
                })
                assert (got.z_order, got.series) == (z, want), (alpha, y, z)
    assert sorted(tree_series_S(_Z_INSERTIONS[0], 2, 1).coeff(1).z_parts()) == [0, 1]
    high = tree_series_S(_Z_INSERTIONS[0], 2, 3).coeff(1).z_parts()[2]
    assert high == -(RF_ONE / LAM ** 3) - RF_ONE / LAM ** 4


def test_negative_z_powers_are_refused():
    # a tail series is read up to a z order, which a negative power would
    # cut short: the unit over z at y^1 has a z^1 term only past z order 1
    for alpha in (ONE * (RF_ONE / Z), HYP * (Z + RF_ONE / Z), ONE + PINF * (LAM / Z ** 2)):
        with pytest.raises(ConfigError, match="negative powers of z"):
            tree_series_S(alpha, 2, 1)
        with pytest.raises(ConfigError, match="negative powers of z"):
            stilde_at_zero(alpha, 2)


def _direct_tail_series(alpha, y_order, z_order):
    # the budget-keyed tail sums run on the insertion itself, not on the
    # idempotents; a z in the insertion raises the z powers of the
    # smoothing, and those past z_order are cut off here
    at = (alpha.restrict_zero(), alpha.restrict_infinity())
    coeffs = {0: alpha.restrict_zero()}
    for a in range(1, y_order + 1):
        smoothing = RF_ZERO
        for k in range(z_order + 1):
            smoothing = smoothing + RatFun(Frac(a) ** (k + 1)) * Z**k / LAM ** (k + 1)
        for deg, val in budget_tail(LEVEL_ZERO, a, y_order, at).items():
            coeffs[deg] = coeffs.get(deg, RF_ZERO) + LAM * smoothing * val
    return TruncSeries("y", y_order, {
        deg: RatFun({key: v for key, v in laurent_terms(c).items() if key[1] <= z_order})
        for deg, c in coeffs.items()
    })


# Laurent polynomials in lam with small rational coefficients, times z^0
# to z^3
_LAM_Z_COEFF = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=3,
).map(lambda terms: RatFun({(e, j): Frac(n, d) for e, j, n, d in terms}))


@settings(max_examples=10, deadline=None)
@given(
    _LAM_Z_COEFF,
    _LAM_Z_COEFF,
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=5),
)
# lam-dependent coefficients over denominators 3, 4 and 6
@example(RatFun({(1, 0): Frac(2, 3), (-1, 0): Frac(-5, 4)}), RatFun({(2, 0): Frac(1, 6)}), 4, 3)
# z-dependent coefficients, one of them past the z order
@example(RatFun({(0, 2): Frac(3, 2), (1, 0): 1}), RatFun({(-1, 1): Frac(-1, 3)}), 3, 1)
@example(RatFun({(1, 3): Frac(1, 4)}), RatFun({(-2, 1): 5, (0, 0): Frac(2, 5)}), 4, 5)
# terms that meet the same rows: lam + z at both fixed points, and
# -lam*z/2 + 3z^2 more at zero, two pairs of keys with one i + m each
@example(RatFun({(1, 0): 1, (0, 1): 1}), RatFun({(0, 1): Frac(-1, 2), (-1, 2): 3}), 3, 4)
def test_tail_series_matches_direct_tail_sums(c0, c1, y_order, z_order):
    alpha = ONE * c0 + HYP * c1
    got = tree_series_S(alpha, y_order, z_order)
    assert got.z_order == z_order
    assert got.series == _direct_tail_series(alpha, y_order, z_order)


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


def test_ratio_multiples_are_signed_catalan_numbers():
    # (1 - sqrt(1 + 4u))/(1 + sqrt(1 + 4u)) = sum_k (-1)^k C_k u^k, with
    # C_k = binom(2k, k)/(k + 1) the Catalan numbers
    multiples = irr_ratio_check(12)["lambda_multiples"]
    for k in range(1, 13):
        assert multiples[k] == (-1) ** k * comb(2 * k, k) // (k + 1)
    assert (multiples[11], multiples[12]) == (-58786, 208012)


def test_ratio_coefficients_match_the_square_root_series():
    # (1 - sqrt(disc))/(1 + sqrt(disc)) by the generic series root and
    # division of the test helpers, which the Catalan recurrence does not use
    for y in range(Y_ORDER_CAP + 1):
        one = TruncSeries("y", y, {0: RF_ONE})
        root = series_root_pow(_disc(y), Frac(1, 2))
        want = series_div(series_sub(one, root), one + root)
        got = irr_ratio_check(y)["coefficients"]
        assert [got[k] for k in range(y + 1)] == [want.coeff(k) for k in range(y + 1)], y


def test_ratio_multiples_against_sympy_expansion():
    u = sympy.Symbol("u")
    expr = (1 - sympy.sqrt(1 + 4 * u)) / (1 + sympy.sqrt(1 + 4 * u))
    expansion = sympy.series(expr, u, 0, 5).removeO()
    rep = irr_ratio_check(4)
    for k in range(1, 5):
        c = expansion.coeff(u, k)
        assert rep["lambda_multiples"][k] == Frac(int(sympy.numer(c)), int(sympy.denom(c)))


# ---------------------------------------------------------------------------
# lam powers and orders


def _assert_homogeneous(series, lead):
    # lam^(lead - 2k) at y^k, so every term of the coefficient has total
    # degree lead - 2k in (lam, z); zero coefficients are not stored
    assert series.coeffs
    for k, c in series.coeffs.items():
        assert homogeneous_degree(c) == lead - 2 * k, k


def test_every_emitted_coefficient_is_homogeneous(cold_caches):
    # the lam-free kernel puts back lam^(1 - marks - 2D - k) at z^k y^D, so
    # every coefficient it emits is homogeneous in (lam, z) through y = 12;
    # an idempotent's value at shift m stands at lam^(m - 2D) at y^D, so a
    # z^m in an insertion keeps the degree
    y = p1series.Y_ORDER_CAP
    for alpha in (idempotent_zero(), idempotent_infinity(), ONE):
        _assert_homogeneous(tree_series_S(alpha, y, Z_ORDER_CAP).series, 0)
        _assert_homogeneous(stilde_at_zero(alpha, y), 0)
    _assert_homogeneous(tree_series_eps(y, Z_ORDER_CAP).series, 1)
    _assert_homogeneous(stilde_at_zero(HYP, y), 1)
    _assert_homogeneous(stilde_at_zero(ONE * Z + HYP, y), 1)
    _assert_homogeneous(stilde_at_zero(ONE * (Z ** 3) + HYP * (Z * Z), y), 3)


def test_p1_readers_do_no_ratfun_arithmetic(monkeypatch):
    # the insertions are read as int rows, so warm tail series, rewritten
    # values and graph sums add, subtract and multiply no RatFun: each
    # builds its RatFuns once, from ints
    classes = (MIX, ONE * (LAM + Z) + HYP * (Z * Z), PINF * Z + HYP)
    ins = [(MIX, 1), (PINF, 0), (ONE * (LAM + Z), 0)]

    def serve():
        return (
            [tree_series_S(alpha, 5, 6) for alpha in classes],
            [stilde_at_zero(alpha, 5) for alpha in classes],
            [p1_graph_sum(3, 2, ins), p1_graph_sum(0, 3, [])],
        )

    warm = serve()

    def refuse(*args):
        raise AssertionError("RatFun arithmetic on a p1 read path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatFun, name, refuse)
    got = serve()
    monkeypatch.undo()
    assert got == warm


def test_lower_orders_add_no_tail_coefficients(cold_caches, monkeypatch):
    # every tail coefficient, marked row, root row and rewritten value is
    # keyed by its exact degree, so once order 6 is built the lower orders
    # read it: no cache misses, counted; rising to order 8 then builds
    # degrees 7 and 8 alone: the three tails, the marked rows, the root row
    # and the two rewritten values of each.  The insertions hold no z, so every rewritten value built is at
    # shift 0
    caches = (
        p1series._hanging,
        p1series._branch,
        p1series._tail_terms,
        p1series._marked_rows,
        p1series._root_row,
        p1series._rewritten,
    )

    def misses():
        return [f.cache_info().misses for f in caches]

    rewritten = p1series._rewritten
    shifts = []

    def recording(mark, degree, shift):
        before = rewritten.cache_info().misses
        out = rewritten(mark, degree, shift)
        if rewritten.cache_info().misses > before:
            shifts.append(shift)
        return out

    monkeypatch.setattr(p1series, "_rewritten", recording)

    def serve(y):
        irr_ratio_check(y)
        stilde_at_zero(HYP, y)
        tree_series_S(MIX, y, y)
        tree_series_eps(y, y)

    serve(6)
    built = misses()
    for y in range(2, 6):
        serve(y)
    assert misses() == built
    serve(8)
    assert [after - before for after, before in zip(misses(), built)][2:] == [6, 2, 2, 4]
    assert len(shifts) == 2 * 9 and set(shifts) == {0}


def test_int_tables_are_in_normal_form(cold_caches, monkeypatch):
    # every table the rooted-tree and tail caches hand out, over a spread of
    # graph sums, tails and rewrites: ints over a positive denominator that
    # is coprime to their content, with no zero entry; a wrapper sees each
    # cached value, since the recursion looks the caches up by name
    seen = []

    def recording(name):
        cache = getattr(p1series, name)

        def wrapper(*args):
            out = cache(*args)
            tables = out.values() if name == "_hanging" else [out]
            seen.extend((name, args, den, dict(nums)) for den, nums in tables)
            return out

        monkeypatch.setattr(p1series, name, wrapper)

    for name in ("_vertex", "_hanging", "_branch", "_tail_terms"):
        recording(name)
    classes = (ONE, HYP, P0, PINF, MIX)
    for n in range(1, p1series.N_CAP + 1):
        for delta in range(p1series.DELTA_CAP + 1):
            if delta or n >= 3:
                for ks in combinations_with_replacement(range(3), n):
                    p1_graph_sum(n, delta, [(classes[i % 5], k) for i, k in enumerate(ks)])
    for delta in range(1, p1series.DELTA_CAP + 1):
        p1_graph_sum(0, delta, [])
    for y in range(9):
        tree_series_S(MIX, y, y)
        tree_series_eps(y, y + 1)
        stilde_at_zero(HYP, y)
        stilde_at_zero(ONE * Z + HYP, y)
        irr_ratio_check(y)
    assert {name for name, *_ in seen} == {"_vertex", "_hanging", "_branch", "_tail_terms"}
    for name, args, den, nums in seen:
        assert type(den) is int and den > 0, (name, args)
        assert all(type(c) is int and c for c in nums.values()), (name, args)
        assert gcd(den, *nums.values()) == 1, (name, args)


# the shapes within the caps, with cotangent exponents up to 3; the
# placement tables of the Fraction recursion hash, in its order, as below.
# On three shapes the order differs: there the Fraction tables kept an entry
# that cancelled to zero, which placed its mask early, and the int tables
# drop it.  Sorted, those three hash the same too
_PLACEMENT_SHAPES = [
    (n, delta, exps)
    for n in range(p1series.N_CAP + 1)
    for delta in range(p1series.DELTA_CAP + 1)
    if delta or n >= 3
    for exps in combinations_with_replacement(range(4), n)
] + [(5, 5, (0,) * 5)]
_REORDERED = {(5, 2, (0, 0, 0, 1, 1)), (5, 3, (0, 0, 0, 1, 3)), (5, 3, (0, 0, 1, 1, 3))}
_PLACEMENTS_SHA256 = "9359e53b58ae0ec0d0425ae9f79ef21a0a6a3a37e11cd8caad20d884884a99d1"
_SORTED_PLACEMENTS_SHA256 = "fcbbbeaed199f2f068bf556d16425126e06aa6b340fe6e996cfe99e18582ece5"


def test_placement_tables_keep_the_fraction_recursion_values(cold_caches):
    exact, flat = hashlib.sha256(), hashlib.sha256()
    for shape in _PLACEMENT_SHAPES:
        table = _placements(*shape)
        if shape not in _REORDERED:
            exact.update(repr((shape, table)).encode())
        flat.update(repr((shape, sorted(table, key=lambda pair: pair[0]))).encode())
    assert (exact.hexdigest(), flat.hexdigest()) == (_PLACEMENTS_SHA256, _SORTED_PLACEMENTS_SHA256)


def test_lower_order_rewrite_is_the_truncated_higher_one(cold_caches):
    # rising orders each build their new degrees; a falling order reads the
    # degrees built, so it is the truncated higher one, at every shift
    classes = (idempotent_zero(), idempotent_infinity(), ONE * (Z ** 3) + HYP * (Z * Z))
    rising = {y: [stilde_at_zero(alpha, y) for alpha in classes] for y in range(2, 7)}
    cold_caches()
    for alpha in classes:
        stilde_at_zero(alpha, 6)
    for y in range(2, 6):
        assert [stilde_at_zero(alpha, y) for alpha in classes] == rising[y]


# ---------------------------------------------------------------------------
# the layers p1series reads


def _package_imports(module):
    """(module, name) for every name a module's source imports from glsmx,
    name None where it imports a whole module."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            found.update(
                (alias.name, None) for alias in node.names if alias.name.startswith("glsmx")
            )
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, ("glsmx" if node.level else None, node.module)))
            if source.split(".")[0] != "glsmx":
                continue
            for alias in node.names:
                if source == "glsmx":
                    found.add((f"glsmx.{alias.name}", None))
                else:
                    found.add((source, alias.name))
    return found


def test_p1series_reads_only_the_fixed_points_from_the_graph_layer():
    # the graph sums and the tails build their trees by their own rooted
    # recursion, so the census and its model stay an independent oracle
    imports = _package_imports(p1series)
    assert {name for source, name in imports if source == "glsmx.graphs"} == {
        "LEVEL_ZERO",
        "LEVEL_INF",
    }
    assert not {name for source, name in imports if source == "glsmx.model"}


# ---------------------------------------------------------------------------
# the process-wide caches

def _package_modules():
    names = [m.name for m in pkgutil.iter_modules(glsmx.__path__)]
    return [importlib.import_module(f"glsmx.{name}") for name in names]


def test_every_cache_is_cleared_by_the_fixture():
    # every module-level callable of the package with a cache_clear, the
    # caches of the report inputs included, whose wrappers carry the
    # __module__ of the function they wrap (Fraction's, GlsmModel's)
    found = {
        value
        for module in _package_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }
    assert found == set(_CACHES)


def _decorated_caches(module):
    # the module-level names that functools.lru_cache wraps, as
    # decorators or as calls, read from the source rather than from the
    # objects' attributes
    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        return ast.unparse(node) in {"functools.lru_cache", "functools.cache"}

    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if is_cache(node.value.func):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_decorated_cache_is_in_the_fixture_list():
    # a cache missing from conftest._CACHES would carry a value built under
    # a patched factor from one cold_caches test into the next
    found = {name: module for module in _package_modules() for name in _decorated_caches(module)}
    assert {"_ladder", "_placements", "_root_row", "_rewritten", "_marked_rows"} <= found.keys()
    assert {"_glsm_model", "_read_frac", "_vertex", "_edge"} <= found.keys()
    assert {"_levelled_structures", "_vertex_profiles", "_shared_vertex", "_shared_edge"} <= found.keys()
    missing = sorted(name for name, module in found.items() if getattr(module, name) not in _CACHES)
    assert not missing
