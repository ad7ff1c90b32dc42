"""Tests for decorated dual graphs and fixed-locus graphs: validation,
stability, tail contraction, enumeration against a brute-force oracle,
automorphism factors, and the partial order."""

from fractions import Fraction as Frac
import functools
import gc
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers_graphs import brute_aut_count, brute_loc_graphs, fraction_degree_factor
from helpers_p1 import POINT_MODEL
from glsmx import cli, criteria
from glsmx import graphs as G
from glsmx.errors import (
    BoundsExceeded,
    ConfigError,
    NotInfinityStable,
)
from glsmx.model import GEOMETRIC, LG, GlsmModel, isotropy_order

QUINTIC = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
QUINTIC_25 = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 5))
QUINTIC_23 = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 3))
QUINTIC_GEO_25 = GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC, Frac(2, 5))
MIXED_27 = GlsmModel((1, 1, 2, 2), 2, 4, LG, Frac(2, 7))
MIXED = GlsmModel((1, 1, 2, 2), 2, 4, LG)
GEO_11 = GlsmModel((1, 1), 2, 2, GEOMETRIC)


# ---------------------------------------------------------------------------
# validation


# the graphs of the validate tests below, one valid and the rest each
# breaking one rule, with the model each is checked under
_VALIDATE_CASES = {
    "single vertex with leg": (
        QUINTIC,
        G.DualGraph((G.Vertex(1, 0, ((1, Frac(1, 5)),)),), ()),
    ),
    "edge condition": (
        QUINTIC,
        G.DualGraph(
            (G.Vertex(1, 0), G.Vertex(1, 0)),
            (G.Edge((0, 1), (Frac(1, 5), Frac(3, 5))),),
        ),
    ),
    "vertex defect": (
        QUINTIC,
        G.DualGraph((G.Vertex(1, 0, ((1, Frac(2, 5)),)),), ()),
    ),
    # both ends at the same level, and a missing covering degree
    "levels and delta": (
        QUINTIC_25,
        G.LocGraph(
            (
                G.Vertex(1, 0, (), 0, G.LEVEL_ZERO),
                G.Vertex(1, 0, (), 0, G.LEVEL_ZERO),
            ),
            (G.Edge((0, 1), (Frac(0), Frac(0))),),
        ),
    ),
    "endpoint out of range": (
        QUINTIC,
        G.DualGraph(
            (G.Vertex(1, 0, ((1, Frac(1, 5)),)),),
            (G.Edge((0, 3), (Frac(0), Frac(0))),),
        ),
    ),
    "disconnected": (QUINTIC, G.DualGraph((G.Vertex(1, 0), G.Vertex(2, 0)), ())),
    "duplicate labels": (
        QUINTIC,
        G.DualGraph((G.Vertex(2, 0, ((1, Frac(0)), (1, Frac(0)))),), ()),
    ),
}


def test_validate_single_vertex_with_leg():
    assert G.validate(*_VALIDATE_CASES["single vertex with leg"]) == []


def test_validate_edge_condition_violation():
    out = G.validate(*_VALIDATE_CASES["edge condition"])
    assert any("not integral" in v and "edge 0" in v for v in out)


def test_extra_edge_adds_to_total_genus():
    g = G.DualGraph(
        (G.Vertex(0, 0, ((1, Frac(2, 5)),)), G.Vertex(0, 0, ((2, Frac(2, 5)),))),
        (
            G.Edge((0, 1), (Frac(1, 5), Frac(4, 5))),
            G.Edge((0, 1), (Frac(2, 5), Frac(3, 5))),
        ),
    )
    assert G.first_betti(g) == 1
    assert G.total_genus(g) == 1


def test_validate_catches_vertex_defect():
    out = G.validate(*_VALIDATE_CASES["vertex defect"])
    assert any("defect" in v for v in out)


def test_validate_loc_graph_levels_and_delta():
    out = G.validate(*_VALIDATE_CASES["levels and delta"])
    assert any("both ends at level" in v for v in out)
    assert any("covering degree" in v for v in out)


def test_validate_reports_endpoint_out_of_range():
    out = G.validate(*_VALIDATE_CASES["endpoint out of range"])
    assert "edge 0: endpoint out of range" in out


def test_graph_from_obj_rejects_out_of_range_indices():
    obj = G.graph_to_obj(
        G.DualGraph((G.Vertex(1, 1), G.Vertex(1, 1)), (G.Edge((0, 1)),), 0)
    )
    with pytest.raises(ValueError):
        G.graph_from_obj(dict(obj, edges=[{"ends": [0, 2], "mults": ["0", "0"]}]))
    with pytest.raises(ValueError):
        G.graph_from_obj(dict(obj, v_bullet=2))
    assert G.graph_to_obj(G.graph_from_obj(obj)) == obj


def test_validate_disconnected():
    out = G.validate(*_VALIDATE_CASES["disconnected"])
    assert any("not connected" in v for v in out)


def test_validate_duplicate_labels():
    out = G.validate(*_VALIDATE_CASES["duplicate labels"])
    assert any("duplicate" in v for v in out)


def _defect_reference(model, graph, vi):
    # gauge-bundle degree minus every multiplicity at the vertex, on
    # Fractions: legs, 1/d per extra leg in LG, and its sides of the edges
    # with both ends in range (both sides of a loop)
    v = graph.vertices[vi]
    nv = len(graph.vertices)
    mults = [m for _, m in v.legs]
    mults += [Frac(1, model.d) if model.phase == LG else Frac(0)] * v.extra_legs
    for e in graph.edges:
        if all(0 <= x < nv for x in e.ends):
            mults += [m for end, m in zip(e.ends, e.mults) if end == vi]
    n = len(mults)
    if model.phase == LG:
        degree = Frac(2 * v.genus - 2 + n - v.degree, model.d)
    else:
        degree = Frac(v.degree)
    return degree - sum(mults)


def _validate_reference(model, graph):
    """validate on Fractions: a vertex's defect is _defect_reference, and
    an edge's basepoint order is read off the roles of its ends, with the
    half-edges counted by half_edges_at."""
    out = []
    is_loc = isinstance(graph, G.LocGraph)
    nv = len(graph.vertices)
    ends_ok = True

    def basepoint_order(e):
        for vi in e.ends:
            v = graph.vertices[vi]
            he = len(G.half_edges_at(graph, vi))
            role = G._vertex_role(
                v.genus, v.degree, v.level, he, len(v.legs), v.extra_legs, model.epsilon
            )
            if role == "basepoint":
                return v.degree
        return 0

    for ei, e in enumerate(graph.edges):
        if not all(0 <= x < nv for x in e.ends):
            out.append(f"edge {ei}: endpoint out of range")
            ends_ok = False
            continue
        if (e.mults[0] + e.mults[1]).denominator != 1:
            out.append(f"edge {ei}: multiplicities {e.mults[0]} + {e.mults[1]} not integral")
        if is_loc:
            if e.delta is None or e.delta < 1:
                out.append(f"edge {ei}: covering degree must be at least 1")
            a, b = e.ends
            if graph.vertices[a].level == graph.vertices[b].level:
                out.append(f"edge {ei}: both ends at level {graph.vertices[a].level}")
            elif e.delta is not None:
                bp = basepoint_order(e)
                if bp and e.delta <= bp:
                    out.append(
                        f"edge {ei}: covering degree {e.delta} not above basepoint order {bp}"
                    )
    for vi, v in enumerate(graph.vertices):
        if is_loc and v.level not in (G.LEVEL_ZERO, G.LEVEL_INF):
            out.append(f"vertex {vi}: missing level")
        if v.genus < 0 or v.degree < 0 or v.extra_legs < 0:
            out.append(f"vertex {vi}: negative decoration")
            continue
        defect = _defect_reference(model, graph, vi)
        if defect.denominator != 1:
            out.append(f"vertex {vi}: multiplicity defect {defect} not integral")
    if not is_loc and graph.v_bullet is not None:
        if not 0 <= graph.v_bullet < nv:
            out.append("distinguished vertex out of range")
        else:
            vb = graph.vertices[graph.v_bullet]
            if vb.extra_legs:
                out.append("distinguished vertex carries extra legs")
            if vb.degree <= 0:
                out.append("distinguished vertex needs positive degree")
    if nv and ends_ok and G._components(graph) != 1:
        out.append("graph not connected")
    labels = sorted(label for v in graph.vertices for label, _ in v.legs)
    if len(labels) != len(set(labels)):
        out.append("duplicate marking labels")
    return out


@pytest.mark.parametrize("case", sorted(_VALIDATE_CASES))
def test_validate_matches_the_fraction_reference_on_the_cases(case):
    model, graph = _VALIDATE_CASES[case]
    assert G.validate(model, graph) == _validate_reference(model, graph)


@st.composite
def _validate_input(draw):
    """A model and a small graph, valid or not: multiplicities on the 1/d
    grid or off it (thirds and tenths), extra legs, loops, repeated labels,
    negative decorations, levels (missing ones too), covering degrees and
    basepoints, out-of-range ends and distinguished vertices.  Some legs
    are solved so that their vertex's defect is integral."""
    model = draw(
        st.sampled_from([QUINTIC, QUINTIC_25, QUINTIC_23, QUINTIC_GEO_25, MIXED_27, GEO_11])
    )
    loc = draw(st.booleans())
    pool = [Frac(k, model.d) for k in range(model.d)] + [Frac(1, 3), Frac(2, 3), Frac(1, 10)]
    small = st.sampled_from([0, 0, 0, 1, 2])
    # a broken decoration or a missing level in about one draw of eight
    genera = st.sampled_from([0, 0, 0, 1, 1, 1, 2, -1])
    degrees = st.sampled_from([0, 0, 1, 1, 1, 2, 3, -1])
    extras = st.sampled_from([0, 0, 0, 0, 0, 1, 2, -1])
    levels = [G.LEVEL_ZERO] * 4 + [G.LEVEL_INF] * 3 + [None] if loc else [None]
    nv = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 4, 0]))
    vertices = []
    for vi in range(nv):
        legs = tuple(
            (draw(st.integers(1, 4)), draw(st.sampled_from(pool))) for _ in range(draw(small))
        )
        vertices.append(
            G.Vertex(
                draw(genera), draw(degrees), legs, draw(extras), draw(st.sampled_from(levels))
            )
        )
    # ends across the levels first, any pair in range next, and out of
    # range in a few draws; the sides of most edges sum to an integer
    pairs = [(a, b) for a in range(nv) for b in range(nv)]
    across = [(a, b) for a, b in pairs if vertices[a].level != vertices[b].level]
    ends = st.sampled_from(across * 6 + pairs * 2 + [(-1, 0), (0, nv)])
    edges = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.sampled_from(pool))
        other = draw(st.sampled_from([-m, -m, -m, *pool]))
        delta = draw(st.sampled_from([1, 1, 1, 2, 2, 3, None, 0])) if loc else None
        edges.append(G.Edge(draw(ends), (m, other), delta))
    edges = tuple(edges)

    def build(vertices):
        if loc:
            return G.LocGraph(tuple(vertices), edges)
        return G.DualGraph(tuple(vertices), edges, bullet)

    bullet = draw(st.one_of(st.none(), st.integers(0, nv), st.integers(-1, nv)))
    for vi, v in enumerate(vertices):
        if v.legs and draw(st.integers(0, 3)):
            # with the last leg at 0, the defect is what that leg must carry
            label = v.legs[-1][0]
            legs = v.legs[:-1] + ((label, 0),)
            vertices[vi] = G.Vertex(v.genus, v.degree, legs, v.extra_legs, v.level)
            last = _defect_reference(model, build(vertices), vi)
            legs = v.legs[:-1] + ((label, last),)
            vertices[vi] = G.Vertex(v.genus, v.degree, legs, v.extra_legs, v.level)
    return model, build(vertices)


@functools.cache
def _census_sample():
    """(model, graph) pairs of valid fixed-locus graphs, basepoints of
    degree 1 to 3 among them."""
    quintic_27 = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 7))
    keys = [
        (QUINTIC_25, (0, 1, 2, 2)),
        (QUINTIC_25, (1, 1, 1, 1)),
        (quintic_27, (0, 0, 3, 2)),
        (quintic_27, (0, 1, 2, 3)),
        (QUINTIC_GEO_25, (0, 1, 2, 2)),
        (MIXED_27, (0, 1, 1, 2)),
    ]
    return [(model, lam) for model, key in keys for lam in G.enumerate_loc_graphs(model, *key)]


@st.composite
def _mutated_census_graph(draw):
    """A census graph, valid, or with one decoration changed: a covering
    degree, a multiplicity (on the grid or off it), an extra leg or a
    level."""
    model, graph = draw(st.sampled_from(_census_sample()))
    vertices, edges = list(graph.vertices), list(graph.edges)
    change = draw(st.sampled_from(["none", "delta", "mult", "leg", "extra", "level"]))
    pool = [Frac(k, model.d) for k in range(model.d)] + [Frac(1, 3), Frac(1, 10)]
    if change in ("delta", "mult"):
        ei = draw(st.integers(0, len(edges) - 1))
        e = edges[ei]
        if change == "delta":
            edges[ei] = G.Edge(e.ends, e.mults, draw(st.sampled_from([1, 2, 0, None])))
        else:
            side = draw(st.integers(0, 1))
            mults = list(e.mults)
            mults[side] = draw(st.sampled_from(pool))
            edges[ei] = G.Edge(e.ends, tuple(mults), e.delta)
    elif change != "none":
        vi = draw(st.integers(0, len(vertices) - 1))
        v = vertices[vi]
        legs, extra, level = v.legs, v.extra_legs, v.level
        if change == "leg":
            legs = legs + ((len(vertices) + 5, draw(st.sampled_from(pool))),)
        elif change == "extra":
            extra += 1
        else:
            level = draw(st.sampled_from([None, G.LEVEL_ZERO, G.LEVEL_INF]))
        vertices[vi] = G.Vertex(v.genus, v.degree, legs, extra, level)
    return model, G.LocGraph(tuple(vertices), tuple(edges))


def test_validate_matches_the_fraction_reference_on_census_graphs():
    # every census graph of the sample with each covering degree in turn
    # set low, so basepoints meet edges that do not cover them
    messages = set()
    for model, lam in _census_sample():
        for ei, e in enumerate(lam.edges):
            # the census stores the level-zero side first; turned over, a
            # basepoint sits on the second side
            for ends, mults in ((e.ends, e.mults), (e.ends[::-1], e.mults[::-1])):
                for delta in (None, 0, 1, 2, 3):
                    edges = lam.edges[:ei] + (G.Edge(ends, mults, delta),) + lam.edges[ei + 1:]
                    graph = G.LocGraph(lam.vertices, edges)
                    out = G.validate(model, graph)
                    assert out == _validate_reference(model, graph)
                    messages.update((ends == e.ends, m) for m in out)
    for first in (True, False):
        assert (first, "edge 0: covering degree 1 not above basepoint order 1") in messages
        assert (first, "edge 0: covering degree 2 not above basepoint order 2") in messages


def test_validate_counts_the_half_edges_of_an_edge_out_of_range():
    # vertex 0 would be a degree-1 basepoint on edge 0, but the edge with an
    # end out of range gives it a second half-edge, so it has no role and
    # edge 0 carries no basepoint order
    model = QUINTIC_25
    vertices = (
        G.Vertex(0, 1, (), 0, G.LEVEL_ZERO),
        G.Vertex(1, 0, ((1, Frac(0)),), 0, G.LEVEL_INF),
    )
    edge = G.Edge((0, 1), (Frac(3, 5), Frac(2, 5)), 1)
    alone = G.LocGraph(vertices, (edge,))
    assert G.validate(model, alone) == [
        "edge 0: covering degree 1 not above basepoint order 1"
    ]
    graph = G.LocGraph(vertices, (edge, G.Edge((0, 2), (Frac(0), Frac(0)), 1)))
    out = G.validate(model, graph)
    assert out == ["edge 1: endpoint out of range"]
    assert out == _validate_reference(model, graph)


@given(st.one_of(_validate_input(), _mutated_census_graph()))
@settings(deadline=None, max_examples=400)
def test_validate_matches_the_fraction_reference(drawn):
    model, graph = drawn
    assert G.validate(model, graph) == _validate_reference(model, graph)


# ---------------------------------------------------------------------------
# component stability


def test_stability_order_bound_beats_ampleness():
    # degree passes the ampleness test at epsilon=2 but the basepoint does not
    assert G.epsilon_stable(0, 1, 1, 2, basepoint_orders=()) is True
    assert G.epsilon_stable(0, 1, 1, 2, basepoint_orders=(1,)) is False


def test_stability_small_epsilon_tail():
    assert G.epsilon_stable(0, 1, 1, Frac(1, 3)) is False
    assert G.epsilon_stable(0, 1, 2, Frac(1, 3)) is True


def test_stability_high_genus():
    for eps in (None, Frac(1, 3), 2, Frac(7, 2)):
        assert G.epsilon_stable(2, 0, 0, eps) is True


def test_stability_infinity_chamber():
    assert G.epsilon_stable(0, 1, 1, None) is True
    assert G.epsilon_stable(0, 0, 2, None) is False
    assert G.epsilon_stable(0, 1, 1, None, basepoint_orders=(1,)) is False


def test_stability_light_marking():
    # one marking of weight 1/2 on a three-pointed rational component
    assert G.epsilon_stable(
        0, 0, 3, Frac(2, 3), light_delta=Frac(1, 2), light_markings=1
    ) is True
    assert G.epsilon_stable(
        0, 0, 2, Frac(2, 3), light_delta=Frac(1, 2), light_markings=1
    ) is False
    with pytest.raises(ConfigError):
        G.epsilon_stable(0, 0, 2, Frac(2, 3), light_markings=1)


def _stable_reference(genus, degree, special, epsilon, orders, light_delta, light):
    # the rule on Fractions: every basepoint order at most 1/epsilon, and
    # epsilon * degree + 2g - 2 + weight positive
    weight = Frac(special)
    if light:
        weight += light * (Frac(light_delta) - 1)
    if epsilon is None:
        return not any(o > 0 for o in orders) and (degree > 0 or 2 * genus - 2 + weight > 0)
    epsilon = Frac(epsilon)
    if any(o > 1 / epsilon for o in orders):
        return False
    return epsilon * degree + 2 * genus - 2 + weight > 0


_POSITIVE = st.fractions(min_value=Frac(1, 12), max_value=4, max_denominator=12)


@given(
    st.integers(0, 3),
    st.one_of(st.integers(0, 5), st.fractions(min_value=0, max_value=5, max_denominator=6)),
    st.integers(0, 5),
    st.one_of(st.none(), _POSITIVE, _POSITIVE.map(str), st.integers(1, 3)),
    st.lists(st.integers(0, 12), max_size=3),
    _POSITIVE,
    st.integers(0, 3),
)
@settings(max_examples=300)
def test_stability_matches_fraction_reference(
    genus, degree, special, epsilon, orders, light_delta, light
):
    got = G.epsilon_stable(genus, degree, special, epsilon, tuple(orders), light_delta, light)
    assert got == _stable_reference(
        genus, degree, special, epsilon, orders, light_delta, light
    )


@pytest.mark.parametrize("epsilon", [0, Frac(-1, 3), "-2/5"])
def test_stability_refuses_a_non_positive_parameter(epsilon):
    with pytest.raises(ConfigError, match="must be positive"):
        G.epsilon_stable(1, 1, 1, epsilon)


# ---------------------------------------------------------------------------
# contraction


def _tail_on_anchor():
    # anchor of genus 2 and degree 1 with one unstable rational tail
    anchor = G.Vertex(2, 1)
    tail = G.Vertex(0, 1)
    edge = G.Edge((0, 1), (Frac(2, 5), Frac(3, 5)))
    return G.DualGraph((anchor, tail), (edge,))


def test_contract_single_pass():
    g = _tail_on_anchor()
    assert G.validate(QUINTIC, g) == []
    out, basepoints = G.contract_c(QUINTIC, g, Frac(1, 4))
    assert len(out.vertices) == 1
    assert out.vertices[0] == G.Vertex(2, 1)
    assert basepoints == ((0, 1, Frac(0)),)
    assert G.first_unstable_vertex(out, basepoints, Frac(1, 4)) is None


def _two_tail_chain():
    main = G.Vertex(2, 0)
    inner = G.Vertex(0, 1)
    outer = G.Vertex(0, 1)
    e_main = G.Edge((0, 1), (Frac(3, 5), Frac(2, 5)))
    e_out = G.Edge((1, 2), (Frac(2, 5), Frac(3, 5)))
    return G.DualGraph((main, inner, outer), (e_main, e_out))


def test_contract_cascades_two_passes():
    g = _two_tail_chain()
    assert G.validate(QUINTIC, g) == []
    out, basepoints = G.contract_c(QUINTIC, g, Frac(1, 4))
    assert len(out.vertices) == 1
    assert basepoints == ((0, 2, Frac(0)),)
    # conservation: surviving degree plus orders equals the input degree
    total = G.total_degree(out) + sum(order for _, order, _ in basepoints)
    assert total == G.total_degree(g)


def test_contract_identity_for_large_epsilon():
    g = _tail_on_anchor()
    for eps in (2, None):
        assert G.contract_c(QUINTIC, g, eps) == (g, ())


def test_contract_rejects_unstable_input():
    bad = G.DualGraph(
        (G.Vertex(2, 0), G.Vertex(0, 0)),
        (G.Edge((0, 1), (Frac(3, 5), Frac(2, 5))),),
    )
    with pytest.raises(NotInfinityStable):
        G.contract_c(QUINTIC, bad, Frac(1, 4))


@given(
    degrees=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    eps=st.sampled_from([None, Frac(1, 4), Frac(2, 5), Frac(2, 3), Frac(3, 2)]),
)
@settings(deadline=None, max_examples=60)
def test_contract_chain_properties(degrees, eps):
    # a genus-2 anchor followed by a chain of rational tails; edge i joins
    # vertex i to vertex i+1 and the multiplicities are solved from the far
    # end inward
    model = QUINTIC
    d = model.d
    k = len(degrees)
    out_side = [None] * k
    in_side = [None] * k
    out_side[k - 1] = Frac(-degrees[-1] - 1, d) % 1
    for i in range(k - 1, 0, -1):
        in_side[i] = (-out_side[i]) % 1
        out_side[i - 1] = (Frac(-degrees[i - 1], d) - in_side[i]) % 1
    in_side[0] = (-out_side[0]) % 1
    anchor_leg = (Frac(4, d) - in_side[0]) % 1
    vertices = [G.Vertex(2, 0, ((1, anchor_leg),))]
    vertices += [G.Vertex(0, b) for b in degrees]
    edges = [
        G.Edge((i, i + 1), (in_side[i], out_side[i])) for i in range(k)
    ]
    graph = G.DualGraph(tuple(vertices), tuple(edges))
    assert G.validate(model, graph) == []
    out, basepoints = G.contract_c(model, graph, eps)
    conserved = G.total_degree(out) + sum(order for _, order, _ in basepoints)
    assert conserved == G.total_degree(graph)
    assert G.first_unstable_vertex(out, basepoints, eps) is None
    hosted = {}
    for host, order, _ in basepoints:
        hosted.setdefault(host, []).append(order)
    for vi, v in enumerate(out.vertices):
        # component degree includes the basepoints sitting on it
        assert G.epsilon_stable(
            v.genus,
            v.degree + sum(hosted.get(vi, ())),
            G.vertex_valence(out, vi),
            eps,
            hosted.get(vi, ()),
        )
    if eps is None:
        assert (out, basepoints) == (graph, ())


# ---------------------------------------------------------------------------
# enumeration


def _check_outputs(model, out, g, n, beta, delta):
    for lam in out:
        assert G.validate(model, lam) == []
        assert G.total_genus(lam) == g
        assert sorted(label for v in lam.vertices for label, _ in v.legs) == list(range(1, n + 1))
        assert G.total_degree(lam) == beta
        assert sum(e.delta for e in lam.edges) == delta
        for e in lam.edges:
            assert (e.mults[0] + e.mults[1]).denominator == 1
            assert isotropy_order(model.d, e.mults[0]) == isotropy_order(
                model.d, e.mults[1]
            )


def test_enumerate_single_marking_two_graphs():
    out = G.enumerate_loc_graphs(QUINTIC_25, 0, 1, 0, 1)
    assert len(out) == 2
    _check_outputs(QUINTIC_25, out, 0, 1, 0, 1)
    carrier_levels = set()
    for lam in out:
        [carrier] = [v for v in lam.vertices if v.legs]
        [(label, mult)] = carrier.legs
        carrier_levels.add(carrier.level)
        assert mult == Frac(4, 5)
    assert carrier_levels == {G.LEVEL_ZERO, G.LEVEL_INF}


def test_enumerate_unstable_isolated_vertex_excluded():
    # degree 3 exceeds both 1/eps and the stability bound at level zero,
    # so only the level-infinity configuration survives
    out = G.enumerate_loc_graphs(QUINTIC_25, 0, 0, 3, 0)
    assert len(out) == 1
    assert out[0].vertices[0].level == G.LEVEL_INF


def test_enumerate_remark_basepoint_bound():
    out = G.enumerate_loc_graphs(QUINTIC_25, 0, 1, 2, 1)
    _check_outputs(QUINTIC_25, out, 0, 1, 2, 1)
    for lam in out:
        for vi, v in enumerate(lam.vertices):
            he = len(G.half_edges_at(lam, vi))
            role = G._vertex_role(
                v.genus, v.degree, v.level, he, len(v.legs), v.extra_legs, Frac(2, 5)
            )
            assert role is not None
            # no edge may carry a basepoint order at or above its covering
            # degree, which at delta=1 rules basepoints out entirely
            assert role != "basepoint"
    assert len(out) == 4


@pytest.mark.parametrize(
    "model,lg,g,n,beta,delta",
    [
        (QUINTIC_25, True, 0, 1, 0, 1),
        (QUINTIC_25, True, 0, 0, 3, 0),
        (QUINTIC_25, True, 1, 1, 0, 0),
        (QUINTIC_25, True, 0, 1, 2, 1),
        (QUINTIC_25, True, 1, 0, 1, 1),
        (QUINTIC_25, True, 0, 2, 0, 2),
        (QUINTIC_23, True, 0, 0, 2, 1),
        (QUINTIC_GEO_25, False, 0, 1, 0, 1),
        (QUINTIC_GEO_25, False, 0, 0, 2, 2),
        # d = 4 and d = 2, in a finite and in the infinity chamber
        (MIXED_27, True, 0, 2, 1, 1),
        (MIXED_27, True, 0, 0, 2, 2),
        (MIXED_27, True, 0, 1, 1, 2),
        (MIXED, True, 0, 2, 1, 1),
        (MIXED, True, 0, 0, 2, 2),
        (MIXED, True, 0, 1, 1, 2),
        (GEO_11, False, 0, 2, 1, 1),
        (GEO_11, False, 0, 0, 2, 2),
        (GEO_11, False, 0, 1, 1, 2),
    ],
)
def test_enumerate_matches_brute_force(model, lg, g, n, beta, delta):
    out = G.enumerate_loc_graphs(model, g, n, beta, delta)
    _check_outputs(model, out, g, n, beta, delta)
    oracle = brute_loc_graphs(model.d, lg, model.epsilon, g, n, beta, delta)
    assert len(out) == len(oracle)


@pytest.mark.parametrize(
    "edges, swaps",
    [
        (((0, 1),), True),
        (((0, 1), (0, 1)), True),
        (((0, 1), (1, 2)), False),
        (((0, 1), (1, 2), (2, 3)), True),
        (((0, 1), (0, 2), (0, 3)), False),
        (((0, 1), (1, 2), (2, 3), (0, 3)), True),
        # sides of two, but the doubled end edge pins each side
        (((0, 1), (0, 1), (1, 2), (2, 3)), False),
    ],
    ids=["edge", "double-edge", "3-path", "4-path", "star", "4-cycle", "pinned-4-path"],
)
def test_sides_swap_table(edges, swaps):
    # a structure has one levelled class when some relabelling keeping it
    # exchanges its sides, and two otherwise
    nv = 1 + max(max(e) for e in edges)

    def bare_key(structure):
        return G._least_form((0,) * nv, [(a, b, 0, 0, 0) for a, b in structure])[0]

    classes = [
        levels
        for structure, levels, _ in G._levelled_structures(nv, len(edges))
        if bare_key(structure) == bare_key(edges)
    ]
    assert len(classes) == (1 if swaps else 2)


def test_a_lone_vertex_keeps_both_levels(monkeypatch):
    # a single vertex has no relabelling, so its level-infinity assignment
    # is no repeat; dropping every level-infinity assignment loses classes
    key = (1, 1, 0, 0)
    oracle = brute_loc_graphs(QUINTIC_25.d, True, QUINTIC_25.epsilon, *key)
    assert len(G.enumerate_loc_graphs(QUINTIC_25, *key)) == len(oracle)
    levelled = G._levelled_structures

    def zero_level_only(nv, ne):
        for structure, levels, fixers in levelled(nv, ne):
            if levels[0] == G.LEVEL_ZERO:
                yield structure, levels, fixers

    monkeypatch.setattr(G, "_levelled_structures", zero_level_only)
    assert len(G.enumerate_loc_graphs(QUINTIC_25, *key)) < len(oracle)


def test_unmarked_census_builds_relabellings_only_for_fixers(monkeypatch):
    # each levelled class builds a relabelling only for the permutations
    # that keep it, not all nv! - 1 for every labelled structure
    fixers = 0
    levelled = G._levelled_structures

    def counted(nv, ne):
        nonlocal fixers
        for structure, levels, kept in levelled(nv, ne):
            fixers += len(kept)
            yield structure, levels, kept

    monkeypatch.setattr(G, "_levelled_structures", counted)
    assert len(G._census(POINT_MODEL, 0, 0, 0, 5)) == 37
    assert fixers == 317


def _relabellings(structure, levels):
    """(perm, places) for every vertex permutation perm, old to new, that
    keeps the edge multiset and the levels, and every way places of laying
    its image edges on the structure's positions: edge i goes to position
    places[i], which holds the same pair."""
    nv, ne = len(levels), len(structure)
    out = []
    for perm in itertools.permutations(range(nv)):
        if any(levels[perm[v]] != levels[v] for v in range(nv)):
            continue
        moved = [tuple(sorted((perm[a], perm[b]))) for a, b in structure]
        for places in itertools.permutations(range(ne)):
            if all(structure[j] == pair for j, pair in zip(places, moved)):
                out.append((perm, places))
    return out


def _orbit(relabellings, prefix):
    """Every labelled prefix of the same decorated levelled structure."""
    deltas, genera, degrees, leg_dist = prefix
    return {
        (
            tuple(dd for _, dd in sorted(zip(places, deltas))),
            tuple(genus for _, genus in sorted(zip(perm, genera))),
            tuple(degree for _, degree in sorted(zip(perm, degrees))),
            tuple(perm[vi] for vi in leg_dist),
        )
        for perm, places in relabellings
    }


def test_kept_prefixes_are_exactly_the_orbit_minima():
    # the census keeps a prefix iff it is the least labelled form of its
    # decorated levelled structure, so it meets every class and repeats
    # none that a relabelling shows.  Parallel edges are interchangeable,
    # so a prefix whose deltas are out of order within a run of parallel
    # edges repeats its sorted one, even where no vertex permutation moves
    # the run.  Four edges reach the structures where a relabelling moves
    # or keeps a run of parallel edges
    checked = {True: 0, False: 0}
    for nv in range(1, 5):
        for ne in range(0 if nv == 1 else 1, 5):
            for structure, levels, fixers in G._levelled_structures(nv, ne):
                relabellings = _relabellings(structure, levels)
                for prefix in itertools.product(
                    itertools.product((1, 2), repeat=ne),
                    itertools.product((0, 1), repeat=nv),
                    [tuple(int(v == w) for v in range(nv)) for w in range(nv)],
                    itertools.product(range(nv), repeat=1 if nv > 3 else 2),
                ):
                    least = prefix == min(_orbit(relabellings, prefix))
                    assert G._is_least_prefix(prefix, fixers) == least, (structure, levels, prefix)
                    checked[least] += 1
    assert checked == {True: 25760, False: 24932}


def _labelled_loop(model, g, n, beta, delta):
    """The census with no pruning: every labelled structure, both level
    assignments and every prefix, in the enumerator's loop order."""
    found, profiles = {}, {}
    for ne in range(1, delta + 1) if delta else (0,):
        for nv in range(max(1, ne + 1 - g), ne + 2):
            genus_budget = g - (ne - nv + 1)
            if genus_budget < 0:
                continue
            for structure in G._connected_structures(nv, ne):
                side = G._bipartition(nv, structure)
                if side is None:
                    continue
                for flip in (0, 1):
                    levels = tuple(
                        G.LEVEL_ZERO if s == flip else G.LEVEL_INF for s in side
                    )
                    for deltas, genera, degrees, leg_dist in itertools.product(
                        G._compositions(delta, ne, 1),
                        G._compositions(genus_budget, nv),
                        G._compositions(beta, nv),
                        itertools.product(range(nv), repeat=n),
                    ):
                        G._emit_candidates(
                            model,
                            structure,
                            levels,
                            deltas,
                            genera,
                            degrees,
                            leg_dist,
                            found,
                            profiles,
                        )
    return [found[k][0] for k in sorted(found)]


_SMALL_KEYS = [
    (g, n, beta, delta)
    for g in (0, 1)
    for n in (0, 1, 2)
    for beta in (0, 1, 2)
    for delta in (0, 1, 2)
] + [(0, 1, 2, 3)]


@pytest.mark.parametrize(
    "model",
    [
        QUINTIC_25,
        GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 7)),
        QUINTIC_GEO_25,
        MIXED_27,
        GEO_11,
    ],
    ids=["quintic-lg-2/5", "quintic-lg-2/7", "quintic-geo-2/5", "1122-lg-2/7", "11-geo"],
)
def test_enumerate_equals_the_labelled_loop(model):
    # skipping relabelled prefixes keeps every class and its first
    # representative, labels and order included
    for key in _SMALL_KEYS:
        assert [g for g, _ in G._census(model, *key)] == _labelled_loop(model, *key), key


def test_point_model_census_equals_the_labelled_loop():
    keys = [(0, n, 0, delta) for n in range(5) for delta in range(4)]
    keys += [(0, 0, 0, 4), (0, 0, 0, 5), (0, 1, 0, 4), (0, 2, 0, 4)]
    for key in keys:
        got = [g for g, _ in G._census(POINT_MODEL, *key)]
        assert got == _labelled_loop(POINT_MODEL, *key), key


# levelled structures the residue solve must cover: trees (a path, a star,
# a longer path), a double edge and a 4-cycle, where a solved edge closes a
# cycle and an edge can be last at both its ends
_RESIDUE_STRUCTURES = [
    ((0, 1),),
    ((0, 1), (1, 2)),
    ((0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 2), (2, 3)),
    ((0, 1), (0, 1)),
    ((0, 1), (0, 1), (1, 2)),
    ((0, 1), (1, 2), (2, 3), (0, 3)),
]


@st.composite
def _residue_scan(draw):
    structure = draw(st.sampled_from(_RESIDUE_STRUCTURES))
    nv = 1 + max(max(e) for e in structure)
    sides = G._bipartition(nv, structure)
    flip = draw(st.integers(0, 1))
    oriented = [(a, b) if sides[a] == flip else (b, a) for a, b in structure]
    d = draw(st.integers(1, 5))
    legless = draw(st.lists(st.booleans(), min_size=nv, max_size=nv))
    targets = draw(st.lists(st.integers(-2 * d, 2 * d), min_size=nv, max_size=nv))
    return d, oriented, legless, targets


@given(_residue_scan())
@settings(deadline=None, max_examples=200)
def test_edge_residues_solve_the_closing_edges(drawn):
    # the solved scan passes the congruence test on exactly the tuples of
    # the full product that pass it, in the same order, and scans d to the
    # number of edges that close no legless vertex
    d, oriented, legless, targets = drawn

    def congruent(ks):
        free = list(targets)
        for (zero, inf), k in zip(oriented, ks):
            free[zero] -= k
            free[inf] += k
        return all(free[vi] % d == 0 for vi, bare in enumerate(legless) if bare)

    solved = [tuple(ks) for ks, _ in G._edge_residues(d, oriented, legless, targets)]
    full = itertools.product(range(d), repeat=len(oriented))
    assert [ks for ks in solved if congruent(ks)] == [ks for ks in full if congruent(ks)]
    closing = {
        max(ei for ei, ends in enumerate(oriented) if vi in ends)
        for vi, bare in enumerate(legless)
        if bare
    }
    assert len(solved) == d ** (len(oriented) - len(closing))


@pytest.mark.parametrize(
    "key", [(0, 0, 3, 2), (0, 1, 2, 2), (0, 2, 2, 2), (1, 1, 2, 2), (1, 2, 2, 1)]
)
def test_enumerate_never_runs_validate(monkeypatch, key):
    # on these keys the basepoint rule prunes structures; the census decides
    # it on its own, so validate stays an independent check of its output
    from glsmx.criteria import _CENSUS

    def refuse(model, graph):
        raise AssertionError("the census called validate")

    monkeypatch.setattr(G, "validate", refuse)
    assert len(G.enumerate_loc_graphs(QUINTIC_25, *key)) == _CENSUS[key]


def test_warm_census_equals_the_cold_one(monkeypatch, cold_caches):
    # the census keeps its levelled structures, vertex profiles and graph
    # parts for the life of the process.  Every frozen key run from empty
    # caches, then in one warm pass in the reverse order, each key just
    # after the same key on another model (whose residue targets differ),
    # gives the same graphs, ties and graphs report bytes; and each kept
    # structure table is the one a fresh walk of its shape gives
    shapes = set()
    levelled = G._levelled_structures

    def recorded(nv, ne):
        shapes.add((nv, ne))
        return levelled(nv, ne)

    monkeypatch.setattr(G, "_levelled_structures", recorded)
    model = {"weights": [1] * 5, "N": 1, "d": 5, "phase": LG, "epsilon": "2/5"}

    def census_and_report(key):
        sizes = dict(zip(("genus", "markings", "degree", "edge_degree"), key))
        report = cli.run("graphs", {"model": model, "graphs": sizes})
        return G._census(QUINTIC_25, *key), json.dumps(report, indent=2)

    keys = sorted(criteria._CENSUS)
    cold = {}
    for key in keys:
        cold_caches()
        cold[key] = census_and_report(key)
    cold_caches()
    warm = {}
    for key in reversed(keys):
        G._census(QUINTIC_GEO_25, *key)
        warm[key] = census_and_report(key)
    assert warm == cold
    assert [len(census) for census, _ in cold.values()] == [criteria._CENSUS[k] for k in keys]
    assert shapes == {(1, 1), (2, 1), (2, 2), (3, 2)}
    for nv, ne in shapes:
        assert levelled(nv, ne) == levelled.__wrapped__(nv, ne)


def test_enumerate_bounds_and_errors():
    with pytest.raises(BoundsExceeded):
        G.enumerate_loc_graphs(QUINTIC_25, 3, 0, 0, 0)
    with pytest.raises(BoundsExceeded):
        G.enumerate_loc_graphs(QUINTIC_25, 0, 0, 7, 0)
    with pytest.raises(ConfigError):
        G.enumerate_loc_graphs(QUINTIC_25, 0, -1, 0, 0)


# ---------------------------------------------------------------------------
# automorphisms and the covering-degree factor


def test_aut_degree_single_nontrivial_node():
    lam = G.LocGraph(
        (
            G.Vertex(1, 0, (), 0, G.LEVEL_ZERO),
            G.Vertex(1, 1, (), 0, G.LEVEL_INF),
        ),
        (G.Edge((0, 1), (Frac(1, 5), Frac(0)), 1),),
    )
    assert G.aut_degree(QUINTIC, lam) == (1, Frac(1, 5))
    dual = G.DualGraph(
        (G.Vertex(1, 0), G.Vertex(2, 1)),
        (G.Edge((0, 1), (Frac(1, 5), Frac(0))),),
    )
    assert G.aut_degree(QUINTIC, dual) == (1, Frac(1, 5))


def test_aut_degree_parallel_edges():
    lam = G.LocGraph(
        (
            G.Vertex(1, 0, (), 0, G.LEVEL_ZERO),
            G.Vertex(1, 0, (), 0, G.LEVEL_INF),
        ),
        (
            G.Edge((0, 1), (Frac(0), Frac(0)), 1),
            G.Edge((0, 1), (Frac(0), Frac(0)), 1),
        ),
    )
    assert G.aut_degree(QUINTIC, lam) == (2, Frac(2))


def test_aut_degree_isolated_vertex_with_legs():
    g = G.DualGraph(
        (G.Vertex(1, 0, ((1, Frac(1, 5)), (2, Frac(1, 5)))),), ()
    )
    assert G.aut_degree(QUINTIC, g) == (1, Frac(1))


def test_aut_degree_identical_vertices_and_edges():
    g = G.DualGraph(
        (G.Vertex(1, 0), G.Vertex(1, 0)),
        (
            G.Edge((0, 1), (Frac(0), Frac(0))),
            G.Edge((0, 1), (Frac(0), Frac(0))),
        ),
    )
    aut, factor = G.aut_degree(QUINTIC, g)
    assert aut == 4 and factor == Frac(4)


def test_aut_degree_symmetric_loop():
    sym = G.DualGraph(
        (G.Vertex(1, 1),), (G.Edge((0, 0), (Frac(0), Frac(0))),)
    )
    asym = G.DualGraph(
        (G.Vertex(1, 1),), (G.Edge((0, 0), (Frac(1, 5), Frac(4, 5))),)
    )
    assert G.aut_degree(QUINTIC, sym)[0] == 2
    assert G.aut_degree(QUINTIC, asym)[0] == 1


def test_aut_degree_pointlike_vertex_counts_once():
    # an unlegged two-valent genus-0 degree-0 vertex contributes a single
    # half-edge to the covering-degree product
    lam = G.LocGraph(
        (
            G.Vertex(1, 0, (), 0, G.LEVEL_ZERO),
            G.Vertex(0, 0, (), 0, G.LEVEL_INF),
            G.Vertex(1, 1, ((1, Frac(2, 5)),), 0, G.LEVEL_ZERO),
        ),
        (
            G.Edge((0, 1), (Frac(1, 5), Frac(4, 5)), 1),
            G.Edge((1, 2), (Frac(1, 5), Frac(4, 5)), 2),
        ),
    )
    assert G.validate(QUINTIC_25, lam) == []
    aut, factor = G.aut_degree(QUINTIC, lam)
    assert aut == 1
    # stable ends contribute 5 and 5, the node in the middle once more
    assert factor == Frac(1, 125)


def test_aut_degree_matches_the_fraction_route():
    # aut_degree multiplies the isotropy orders as ints into one Fraction;
    # the oracle divides a Fraction once per picked half-edge, reading each
    # order off Fraction arithmetic.  Every census graph of the acceptance
    # criterion, and the dual graphs of the partial-order tests: the figure
    # top and its predecessors, and every graph on the descending chains of
    # the small and the 2214-chain tops
    census = [
        graph
        for key in sorted(criteria._CENSUS)
        for graph in G.enumerate_loc_graphs(QUINTIC_25, *key)
    ]
    duals = {
        id(graph): graph
        for top in (_small_top(), _two_genus_one_top())
        for chain in G.descending_chains(QUINTIC, top, 16)
        for graph in chain
    }
    duals = list(duals.values()) + [
        _fig_top(),
        _fig_pred_chain_bullet_mid(),
        _fig_pred_chain_bullet_far(),
        _fig_pred_loop(),
        _fig_pred_loop_and_split(),
    ]
    assert len(census) == sum(criteria._CENSUS.values())
    for graph in census + duals:
        aut, factor = G.aut_degree(QUINTIC, graph)
        mults = [graph.edges[ei].mults[side] for ei, side in G._degree_half_edges(graph)]
        assert factor == fraction_degree_factor(QUINTIC.d, aut, mults), graph
    assert len(duals) == 857


def test_aut_bounds():
    vs = tuple(G.Vertex(1, 0) for _ in range(13))
    es = tuple(G.Edge((i, i + 1), (Frac(0), Frac(0))) for i in range(12))
    with pytest.raises(BoundsExceeded):
        G.aut_degree(QUINTIC, G.DualGraph(vs, es))


def _leaves_on_a_centre(n):
    # a distinguished degree-1 centre with one leg and n alike genus-1
    # degree-0 leaves, each joined to it by the same edge
    return G.DualGraph(
        (G.Vertex(1, 1, ((1, Frac(1, 5)),)),) + (G.Vertex(1, 0),) * n,
        tuple(G.Edge((0, i), (Frac(2, 5), Frac(3, 5))) for i in range(1, n + 1)),
        0,
    )


@pytest.mark.parametrize("n", [2, 6, 11])
def test_twin_leaves_are_searched_in_one_order(monkeypatch, n):
    # the leaves are twins, so the least form search tries one order of
    # them, not n!, and counts the n! orders that order stands for
    tried = []
    block_orders = G._block_orders

    def counted(block, edges, bullet):
        orders, ways = block_orders(block, edges, bullet)
        orders = list(orders)
        tried.append((len(block), len(orders), ways))
        return orders, ways

    monkeypatch.setattr(G, "_block_orders", counted)
    graph = _leaves_on_a_centre(n)
    assert G.aut_degree(QUINTIC, graph)[0] == math.factorial(n)
    assert tried == [(n, 1, math.factorial(n))]
    assert G.graph_leq(QUINTIC, graph, graph)
    if n <= 6:
        assert _brute_aut(graph) == math.factorial(n)


def test_twin_classes_leave_the_bullet_and_linked_vertices_apart():
    # the distinguished leaf is no twin of the other two; a vertex linked
    # to an alike one sees it as a neighbour, so the two are no twins
    leaves = _leaves_on_a_centre(3)
    graph = G.DualGraph(leaves.vertices, leaves.edges, 1)
    edges = G._int_form(graph, 5)[1]
    orders, ways = G._block_orders([1, 2, 3], edges, 1)
    assert sorted(orders) == [(1, 2, 3), (2, 1, 3), (2, 3, 1)] and ways == 2
    path = [(0, 1, 0, 0, 0), (1, 2, 0, 0, 0)]
    orders, ways = G._block_orders([0, 2], path, None)
    assert list(orders) == [(0, 2)] and ways == 2
    orders, ways = G._block_orders([0, 1], [(0, 1, 0, 0, 0)], None)
    assert sorted(orders) == [(0, 1), (1, 0)] and ways == 1


def test_arrangements_are_the_distinct_orders_of_the_classes():
    classes = [[0, 3], [1], [2, 4, 5]]
    got = list(G._arrangements(classes))
    keep = [
        order
        for order in itertools.permutations(range(6))
        if all(sorted(c, key=order.index) == c for c in classes)
    ]
    assert sorted(got) == sorted(keep) and len(set(got)) == len(got)
    assert len(got) == math.factorial(6) // (2 * 6)


def test_isomorphic_under_relabeling():
    a = G.DualGraph(
        (G.Vertex(1, 0, ((1, Frac(3, 5)),)), G.Vertex(2, 2)),
        (G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )
    b = G.DualGraph(
        (G.Vertex(2, 2), G.Vertex(1, 0, ((1, Frac(3, 5)),))),
        (G.Edge((1, 0), (Frac(4, 5), Frac(1, 5))),),
        0,
    )
    assert G.isomorphic(a, b)
    assert G.canonical_key(a) == G.canonical_key(b)
    assert G.aut_degree(QUINTIC, a) == G.aut_degree(QUINTIC, b)


# property checks of the canonical key and the automorphism count on random
# small graphs: loops and parallel edges included, multiplicities on the
# 1/10 grid so halves and fifths mix
_D10 = GlsmModel((1,), 1, 10, LG)
_GRID = [Frac(0), Frac(1, 2), Frac(1, 5), Frac(3, 10), Frac(4, 5)]


@st.composite
def _random_graph(draw, loc):
    # decorations and multiplicities come from small pools, so vertices and
    # edges often look alike and automorphisms are common
    nv = draw(st.integers(1, 4))
    shapes = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 0 if loc else 1)),
            min_size=1,
            max_size=2,
        )
    )
    pool = draw(st.lists(st.sampled_from(_GRID), min_size=1, max_size=3))
    levels = [
        draw(st.sampled_from([G.LEVEL_ZERO, G.LEVEL_INF])) if loc else None
        for _ in range(nv)
    ]
    legs = [[] for _ in range(nv)]
    for label in range(1, draw(st.integers(0, 2)) + 1):
        legs[draw(st.integers(0, nv - 1))].append((label, draw(st.sampled_from(pool))))
    vertices = []
    for vi in range(nv):
        genus, degree, extra = draw(st.sampled_from(shapes))
        vertices.append(G.Vertex(genus, degree, tuple(legs[vi]), extra, levels[vi]))
    vertices = tuple(vertices)
    # fixed-locus edges join the two levels; dual graphs may have loops
    pairs = [
        (a, b)
        for a in range(nv)
        for b in range(a if not loc else a + 1, nv)
        if not loc or levels[a] != levels[b]
    ]
    edges = ()
    if pairs:
        edges = tuple(
            G.Edge(
                draw(st.sampled_from(pairs)),
                (draw(st.sampled_from(pool)), draw(st.sampled_from(pool))),
                draw(st.integers(1, 2)) if loc else None,
            )
            for _ in range(draw(st.integers(0, 5)))
        )
    if loc:
        return G.LocGraph(vertices, edges)
    bullet = draw(st.one_of(st.none(), st.integers(0, nv - 1)))
    return G.DualGraph(vertices, edges, bullet)


@st.composite
def _relabelled(draw, graph):
    """The graph with its vertices permuted, its edges reordered and some
    edges turned over."""
    nv, ne = len(graph.vertices), len(graph.edges)
    perm = draw(st.permutations(range(nv)))  # old vertex i becomes perm[i]
    vertices = [None] * nv
    for old, new in enumerate(perm):
        vertices[new] = graph.vertices[old]
    edges = []
    for ei in draw(st.permutations(range(ne))):
        e = graph.edges[ei]
        ends, mults = (perm[e.ends[0]], perm[e.ends[1]]), e.mults
        if draw(st.booleans()):
            ends, mults = ends[::-1], mults[::-1]
        edges.append(G.Edge(ends, mults, e.delta))
    if isinstance(graph, G.LocGraph):
        return G.LocGraph(tuple(vertices), tuple(edges))
    bullet = None if graph.v_bullet is None else perm[graph.v_bullet]
    return G.DualGraph(tuple(vertices), tuple(edges), bullet)


def _factor_is_invariant(graph):
    # aut_degree counts one half-edge at a pointlike two-valent vertex of a
    # fixed-locus graph; which one depends on labels unless both sides carry
    # the same isotropy, as they do on every valid graph
    if isinstance(graph, G.DualGraph):
        return True
    for vi, v in enumerate(graph.vertices):
        he = G.half_edges_at(graph, vi)
        if v.genus == 0 and v.degree == 0 and not v.legs and len(he) == 2:
            sides = [graph.edges[ei].mults[s] for ei, s in he]
            if isotropy_order(10, sides[0]) != isotropy_order(10, sides[1]):
                return False
    return True


def _brute_aut(graph):
    verts = [(v.genus, v.degree, tuple(sorted(v.legs)), v.extra_legs, v.level)
             for v in graph.vertices]
    edges = [(e.ends[0], e.ends[1], e.mults[0], e.mults[1], e.delta)
             for e in graph.edges]
    return brute_aut_count(verts, edges, getattr(graph, "v_bullet", None))


@given(data=st.data(), loc=st.booleans())
@settings(deadline=None, max_examples=150)
def test_key_and_aut_invariant_under_relabelling(data, loc):
    graph = data.draw(_random_graph(loc))
    other = data.draw(_relabelled(graph))
    assert G.canonical_key(other) == G.canonical_key(graph)
    assert G.isomorphic(other, graph)
    aut, factor = G.aut_degree(_D10, graph)
    aut2, factor2 = G.aut_degree(_D10, other)
    assert aut2 == aut
    if _factor_is_invariant(graph):
        assert factor2 == factor


@given(data=st.data(), loc=st.booleans())
@settings(deadline=None, max_examples=150)
def test_aut_count_matches_brute_force(data, loc):
    graph = data.draw(_random_graph(loc))
    assert G.aut_degree(_D10, graph)[0] == _brute_aut(graph)


def _brute_least_form(verts, edges, bullet):
    """The least serialization over every vertex order that lists the
    vertices by their invariant class (the vertex and its sorted decorated
    incidences), and the number of orders that reach it, by trying all
    orders."""
    classes = []
    for vi, v in enumerate(verts):
        inc = [(dd, ka, kb, verts[b]) for a, b, ka, kb, dd in edges if a == vi]
        inc += [(dd, kb, ka, verts[a]) for a, b, ka, kb, dd in edges if b == vi]
        classes.append((v, tuple(sorted(inc))))
    best, ties = None, 0
    for order in itertools.permutations(range(len(verts))):
        if sorted(classes[o] for o in order) != [classes[o] for o in order]:
            continue
        pos = {old: new for new, old in enumerate(order)}
        serial = []
        for a, b, ka, kb, dd in edges:
            (pa, sa), (pb, sb) = sorted([(pos[a], ka), (pos[b], kb)])
            serial.append((pa, pb, dd, sa, sb))
        form = (
            tuple(verts[o] for o in order),
            tuple(sorted(serial)),
            -1 if bullet is None else pos[bullet],
        )
        if best is None or form < best:
            best, ties = form, 0
        ties += form == best
    return best, ties


@given(data=st.data(), loc=st.booleans())
@settings(deadline=None, max_examples=150)
def test_least_form_matches_the_search_over_all_orders(data, loc):
    # the one-order path (every class a single vertex) and the block search
    # both give the least form and its order count of a search over every
    # order that keeps the classes sorted
    graph = data.draw(_random_graph(loc))
    verts, edges = G._int_form(graph, G._scale(graph))
    bullet = getattr(graph, "v_bullet", None)
    assert G._least_form(verts, edges, bullet) == _brute_least_form(verts, edges, bullet)


@given(data=st.data(), loc=st.booleans())
@settings(deadline=None, max_examples=150)
def test_changing_one_multiplicity_changes_the_key(data, loc):
    # the multiset of (label, multiplicity) legs and of edge-side
    # multiplicities is an isomorphism invariant, so no relabelling can undo
    # the change
    graph = data.draw(_random_graph(loc))
    slots = [("leg", vi, i) for vi, v in enumerate(graph.vertices) for i in range(len(v.legs))]
    slots += [("edge", ei, s) for ei in range(len(graph.edges)) for s in (0, 1)]
    if not slots:
        return
    kind, where, which = data.draw(st.sampled_from(slots))
    vertices, edges = list(graph.vertices), list(graph.edges)
    if kind == "leg":
        v = vertices[where]
        label, old = v.legs[which]
        new = data.draw(st.sampled_from([m for m in _GRID if m != old]))
        legs = list(v.legs)
        legs[which] = (label, new)
        vertices[where] = G.Vertex(v.genus, v.degree, tuple(legs), v.extra_legs, v.level)
    else:
        e = edges[where]
        new = data.draw(st.sampled_from([m for m in _GRID if m != e.mults[which]]))
        mults = list(e.mults)
        mults[which] = new
        edges[where] = G.Edge(e.ends, tuple(mults), e.delta)
    changed = type(graph)(tuple(vertices), tuple(edges), *(
        () if isinstance(graph, G.LocGraph) else (graph.v_bullet,)
    ))
    assert G.canonical_key(changed) != G.canonical_key(graph)


@given(data=st.data(), loc=st.booleans())
@settings(deadline=None, max_examples=100)
def test_half_and_fifth_edges_never_share_a_key(data, loc):
    # every other multiplicity is zero, so the two graphs differ only in
    # the denominator of one edge side
    graph = data.draw(_random_graph(loc))
    if not graph.edges:
        return
    vertices = tuple(
        G.Vertex(v.genus, v.degree, tuple((l, Frac(0)) for l, _ in v.legs),
                 v.extra_legs, v.level)
        for v in graph.vertices
    )
    ei = data.draw(st.integers(0, len(graph.edges) - 1))
    side = data.draw(st.integers(0, 1))
    keys = []
    for m in (Frac(1, 2), Frac(data.draw(st.integers(1, 4)), 5)):
        edges = [G.Edge(e.ends, (Frac(0), Frac(0)), e.delta) for e in graph.edges]
        mults = [Frac(0), Frac(0)]
        mults[side] = m
        edges[ei] = G.Edge(edges[ei].ends, tuple(mults), edges[ei].delta)
        if isinstance(graph, G.LocGraph):
            keys.append(G.canonical_key(G.LocGraph(vertices, tuple(edges))))
        else:
            keys.append(G.canonical_key(G.DualGraph(vertices, tuple(edges), graph.v_bullet)))
    assert keys[0] != keys[1]


# ---------------------------------------------------------------------------
# partial order


def _fig_top():
    return G.DualGraph(
        (G.Vertex(1, 0, ((1, Frac(3, 5)),)), G.Vertex(2, 2)),
        (G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )


def _fig_pred_chain_bullet_mid():
    return G.DualGraph(
        (
            G.Vertex(1, 0, ((1, Frac(3, 5)),)),
            G.Vertex(1, 1),
            G.Vertex(1, 1),
        ),
        (
            G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            G.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )


def _fig_pred_chain_bullet_far():
    return G.DualGraph(
        (
            G.Vertex(1, 0, ((1, Frac(3, 5)),)),
            G.Vertex(1, 1),
            G.Vertex(1, 1),
        ),
        (
            G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            G.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        2,
    )


def _fig_pred_loop():
    return G.DualGraph(
        (G.Vertex(1, 0, ((1, Frac(3, 5)),)), G.Vertex(1, 2)),
        (
            G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            G.Edge((1, 1), (Frac(0), Frac(0))),
        ),
        1,
    )


def _fig_pred_loop_and_split():
    return G.DualGraph(
        (
            G.Vertex(1, 0, ((1, Frac(3, 5)),)),
            G.Vertex(0, 1),
            G.Vertex(1, 1),
        ),
        (
            G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            G.Edge((1, 1), (Frac(0), Frac(0))),
            G.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )


def test_figure_predecessors_are_below_top():
    top = _fig_top()
    assert G.validate(QUINTIC, top) == []
    preds = [
        _fig_pred_chain_bullet_mid(),
        _fig_pred_chain_bullet_far(),
        _fig_pred_loop(),
        _fig_pred_loop_and_split(),
    ]
    for p in preds:
        assert G.validate(QUINTIC, p) == []
        assert G.infinity_stable_graph(p)
        assert G.graph_leq(QUINTIC, p, top)
        assert not G.graph_leq(QUINTIC, top, p)


def test_partial_order_reflexive():
    for g in (_fig_top(), _fig_pred_loop(), _fig_pred_loop_and_split()):
        assert G.graph_leq(QUINTIC, g, g)


def test_partial_order_unrelated():
    other = G.DualGraph(
        (G.Vertex(0, 0, ((1, Frac(3, 5)),)), G.Vertex(3, 2)),
        (G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )
    assert not G.graph_leq(QUINTIC, other, _fig_top())


def test_graph_leq_on_a_mixed_scale_pair():
    # the loop at a's distinguished vertex carries a's only tenths, so a
    # has scale 10 and b, its two vertices merged over both edges, scale 5
    a = G.DualGraph(
        (G.Vertex(0, 1), G.Vertex(1, 1, ((1, Frac(1, 5)),))),
        (
            G.Edge((0, 1), (Frac(0), Frac(0))),
            G.Edge((0, 0), (Frac(1, 10), Frac(9, 10))),
        ),
        0,
    )
    b = G.DualGraph((G.Vertex(2, 2, ((1, Frac(1, 5)),)),), (), 0)
    assert G.validate(QUINTIC, a) == [] and G.validate(QUINTIC, b) == []
    assert (G._scale(a), G._scale(b)) == (10, 5)
    assert G.graph_leq(QUINTIC, a, b)
    assert not G.graph_leq(QUINTIC, b, a)


def _connected_merges(graph, r):
    """The (subset, chosen edges) pairs of graph that join its distinguished
    vertex and r others, counted by flood fill over the chosen edges."""
    count = 0
    others = [vi for vi in range(len(graph.vertices)) if vi != graph.v_bullet]
    for extra in itertools.combinations(others, r):
        subset = {graph.v_bullet, *extra}
        inside = [e.ends for e in graph.edges if set(e.ends) <= subset]
        for k in range(len(inside) + 1):
            for chosen in itertools.combinations(inside, k):
                reached = {graph.v_bullet}
                grew = True
                while grew:
                    grew = False
                    for x, y in chosen:
                        if (x in reached) != (y in reached):
                            reached |= {x, y}
                            grew = True
                count += reached == subset
    return count


def test_graph_leq_keys_only_subsets_of_the_vertex_difference(monkeypatch):
    # a four-vertex triple below the figure top against an unrelated
    # two-vertex one of the same genus and degree: every merge of the
    # distinguished vertex with two others is keyed, and nothing else
    top = _fig_top()
    a = next(
        chain[-1]
        for chain in G.descending_chains(QUINTIC, top, 16)
        if len(chain[-1].vertices) == 4
    )
    b = G.DualGraph(
        (G.Vertex(0, 0, ((1, Frac(3, 5)),)), G.Vertex(3, 2)),
        (G.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )
    keyed = []
    least_form = G._least_form

    def counted(verts, edges, bullet=None):
        keyed.append(len(verts))
        return least_form(verts, edges, bullet)

    def unbuilt(*args, **kwargs):
        raise AssertionError("graph_leq built a graph object")

    monkeypatch.setattr(G, "_least_form", counted)
    for name in ("Vertex", "Edge", "DualGraph"):
        monkeypatch.setattr(G, name, unbuilt)
    assert not G.graph_leq(QUINTIC, a, b)
    # the target, then one key per connected merge
    assert keyed == [2] * (1 + _connected_merges(a, 2))
    assert len(keyed) > 2


def _small_top():
    # two-vertex genus split: the distinguished vertex holds all the degree
    return G.DualGraph(
        (
            G.Vertex(0, 0, ((1, Frac(3, 5)), (2, Frac(3, 5)))),
            G.Vertex(1, 1),
        ),
        (G.Edge((0, 1), (Frac(0), Frac(0))),),
        1,
    )


def test_minimal_expansions_are_strictly_below():
    top = _small_top()
    assert G.validate(QUINTIC, top) == []
    preds = list(G.minimal_expansions(QUINTIC, top).values())
    assert preds
    for p in preds:
        assert G.validate(QUINTIC, p) == []
        assert G.infinity_stable_graph(p)
        assert G.graph_leq(QUINTIC, p, top)
        assert not G.isomorphic(p, top)
        assert not G.graph_leq(QUINTIC, top, p)


def test_minimal_expansions_new_edges_stay_on_the_grid():
    # a valid graph whose edge multiplicities are thirds, off the 1/5 grid:
    # a split whose distinguished side keeps a third admits no residue k/5
    a, b = Frac(1, 3), Frac(2, 3)
    top = G.DualGraph(
        (
            G.Vertex(1, 1, ((1, Frac(0)), (2, Frac(1, 15)))),
            G.Vertex(1, 1, ((3, Frac(8, 15)),)),
        ),
        (G.Edge((0, 1), (a, b)),),
        0,
    )
    assert G.validate(QUINTIC, top) == []
    preds = list(G.minimal_expansions(QUINTIC, top).values())
    assert preds
    for p in preds:
        new = p.edges[-1]
        assert all((m * 5).denominator == 1 for m in new.mults)


def _points_reference(graph, vi):
    v = graph.vertices[vi]
    half_edges = sum((a == vi) + (b == vi) for a, b in (e.ends for e in graph.edges))
    return len(v.legs) + half_edges + v.extra_legs


@st.composite
def _expansion_input(draw):
    """A dual graph whose distinguished vertex has genus and degree at least
    one, so a loop expansion exists whenever no early exit fires.  Other
    vertices carry extra legs and loops, and multiplicities lie on a grid
    up to three times finer than 1/d.  Most vertices have a last leg whose
    multiplicity makes their defect integral."""
    model = draw(st.sampled_from([QUINTIC, MIXED, QUINTIC_GEO_25]))
    scale = model.d * draw(st.sampled_from([1, 2, 3]))

    def mult():
        return Frac(draw(st.integers(0, scale - 1)), scale)

    nv = draw(st.sampled_from([1, 2, 3, 3]))
    vb = draw(st.integers(0, nv - 1))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    ends += [(v, v) for v in draw(st.lists(st.integers(0, nv - 1), max_size=2))]
    if nv > 1 and draw(st.booleans()):
        ends.append((0, nv - 1))
    edges = tuple(G.Edge(e, (m, -m)) for e, m in zip(ends, [mult() for _ in ends]))
    small = st.sampled_from([0, 0, 0, 1])
    vertices = []
    solved = []
    for vi in range(nv):
        if vi == vb:
            genus, degree, extra = draw(st.integers(1, 2)), draw(st.integers(1, 2)), 0
        else:
            genus, degree, extra = draw(small), draw(small), draw(small) + draw(small)
        solve = draw(st.integers(0, 4)) > 0
        legs = tuple(
            (len(vertices) * 3 + i + 1, mult())
            for i in range(int(solve) + draw(small))
        )
        vertices.append(G.Vertex(genus, degree, legs, extra))
        solved.append(solve)
    for vi, v in enumerate(vertices):
        if solved[vi]:
            # with the last leg at 0, the defect is what that leg must carry
            label = v.legs[-1][0]
            vertices[vi] = G.Vertex(v.genus, v.degree, v.legs[:-1] + ((label, 0),), v.extra_legs)
            last = _defect_reference(model, G.DualGraph(tuple(vertices), edges, vb), vi)
            vertices[vi] = G.Vertex(v.genus, v.degree, v.legs[:-1] + ((label, last),), v.extra_legs)
    return model, G.DualGraph(tuple(vertices), edges, vb)


def _blocked_reference(model, graph):
    """The checks made before an expansion, on Fractions: some vertex
    defect is not integral, or some vertex but the distinguished one is
    unstable."""
    return any(
        _defect_reference(model, graph, vi).denominator != 1
        for vi in range(len(graph.vertices))
    ) or any(
        v.degree <= 0 and 2 * v.genus - 2 + _points_reference(graph, vi) <= 0
        for vi, v in enumerate(graph.vertices)
        if vi != graph.v_bullet
    )


@given(_expansion_input())
@settings(deadline=None, max_examples=300)
def test_minimal_expansions_exit_early_exactly_on_the_fraction_rules(drawn):
    model, graph = drawn
    blocked = _blocked_reference(model, graph)
    assert (G.minimal_expansions(model, graph) == {}) is blocked


@given(_expansion_input())
@settings(deadline=None, max_examples=100)
def test_minimal_expansions_key_each_triple_by_its_least_form(drawn):
    # a step keeps every multiplicity and adds only ones on the 1/d grid, so
    # the input's scale holds every triple below it, and each key is the
    # least form of its triple at that scale: one key per class
    model, graph = drawn
    scale = math.lcm(model.d, G._scale(graph))
    below = G.minimal_expansions(model, graph)
    for key, p in below.items():
        assert math.lcm(model.d, G._scale(p)) == scale
        assert key == G._least_form(*G._int_form(p, scale), p.v_bullet)[0]
    assert len({G.canonical_key(p) for p in below.values()}) == len(below)


@given(_expansion_input())
@settings(deadline=None, max_examples=60)
def test_descend_from_the_carried_form_matches_minimal_expansions(drawn):
    # on a valid triple and on every triple one and two steps below it,
    # _descend from the int form the parent's step carried gives the keys,
    # the order and the graphs of the public function, which rebuilds the
    # form and runs its checks; those checks never fire below a valid triple
    # (each class once, as the chain search meets it).  Every field of a
    # graph is an int, None, a string or a Fraction in lowest terms, so
    # equal graphs have equal repr.  The work grows with the distinguished
    # vertex's genus, degree and special points: past a sum of 6, a drawn
    # triple can have ten thousand triples within two steps
    model, graph = drawn
    vb = graph.v_bullet
    center = graph.vertices[vb]
    special = len(center.legs) + sum(e.ends.count(vb) for e in graph.edges)
    if center.genus + center.degree + special > 6 or _blocked_reference(model, graph):
        return
    scale = math.lcm(model.d, G._scale(graph))
    level, seen = [(graph, G._int_form(graph, scale))], set()
    for _ in range(3):
        below = []
        for triple, form in level:
            assert form == G._int_form(triple, scale)
            assert G._expandable(model, form, scale, triple.v_bullet)
            assert not _blocked_reference(model, triple)
            carried = G._descend(model, triple, form, scale)
            public = G.minimal_expansions(model, triple)
            assert list(carried) == list(public)
            for key, (p, p_form) in carried.items():
                assert p == public[key]
                if key not in seen:
                    seen.add(key)
                    below.append((p, p_form))
        level = below


def _defect_off_the_grid_top():
    # the second vertex's leg moves from 3/5 to 7/10, so its defect is 9/10
    top = _two_genus_one_top()
    v = top.vertices[1]
    vertices = (top.vertices[0], G.Vertex(v.genus, v.degree, ((3, Frac(7, 10)),)))
    return G.DualGraph(vertices, top.edges, top.v_bullet)


def _unstable_leaf_top():
    # a genus-0 degree-0 leaf with one leg is not stable, nor distinguished
    return G.DualGraph(
        (G.Vertex(1, 1, ((1, Frac(1, 5)),)), G.Vertex(0, 0, ((2, Frac(0)),))),
        (G.Edge((0, 1), (Frac(0), Frac(0))),),
        0,
    )


@pytest.mark.parametrize("make_top", [_defect_off_the_grid_top, _unstable_leaf_top])
def test_descending_chains_return_an_invalid_top_alone(make_top):
    # the checks run once, on the top; the centre alone would expand
    top = make_top()
    assert _blocked_reference(QUINTIC, top)
    assert G.minimal_expansions(QUINTIC, top) == {}
    scale = math.lcm(QUINTIC.d, G._scale(top))
    form = G._int_form(top, scale)
    assert not G._expandable(QUINTIC, form, scale, top.v_bullet)
    assert G._descend(QUINTIC, top, form, scale)
    chains = G.descending_chains(QUINTIC, top, 16)
    assert chains == [[top]] and chains[0][0] is top


def test_descending_chains_check_the_top_for_a_distinguished_vertex():
    top = _two_genus_one_top()
    with pytest.raises(ConfigError):
        G.descending_chains(QUINTIC, G.DualGraph(top.vertices, top.edges), 16)


def _two_genus_one_top():
    # two genus-1 degree-1 vertices, the centre with two legs: 2214 chains
    return G.DualGraph(
        (
            G.Vertex(1, 1, ((1, Frac(1, 5)), (2, Frac(4, 5)))),
            G.Vertex(1, 1, ((3, Frac(3, 5)),)),
        ),
        (G.Edge((0, 1), (Frac(2, 5), Frac(3, 5))),),
        0,
    )


def _counted(monkeypatch, name):
    """Wrap the module function name so that each call adds one to the
    returned list's first entry, and each empty result one to its second."""
    real = getattr(G, name)
    calls = [0, 0]

    def counting(*args):
        calls[0] += 1
        out = real(*args)
        calls[1] += not out
        return out

    monkeypatch.setattr(G, name, counting)
    return calls


def test_descending_chains_expand_through_the_module_function(monkeypatch):
    # the chain search looks _descend up on the module, once per graph it
    # memoises, so a wrapper there sees every expansion
    expanded = _counted(monkeypatch, "_descend")
    chains = G.descending_chains(QUINTIC, _two_genus_one_top(), 16)
    assert len(chains) == 2214
    assert expanded[0] == 830
    assert expanded[0] == len({G.canonical_key(g) for chain in chains for g in chain})


def test_chain_search_keys_each_split_once(monkeypatch):
    # a split and its complement give the same triples with the halves
    # exchanged, so only the first of the pair is keyed: one least form for
    # the top, the rest from _descend (2108 when both were keyed)
    keyed = _counted(monkeypatch, "_least_form")
    assert len(G.descending_chains(QUINTIC, _two_genus_one_top(), 16)) == 2214
    assert keyed[0] == 1 + 1074


def test_chain_search_stops_early_at_dead_ends(monkeypatch):
    # of the 830 graphs expanded, 415 have a genus-0 centre that no split
    # leaves stable and return nothing; only the top is put in the int
    # form, every triple below carries the form its parent's step built
    expanded = _counted(monkeypatch, "_descend")
    built = _counted(monkeypatch, "_int_form")
    assert len(G.descending_chains(QUINTIC, _two_genus_one_top(), 16)) == 2214
    assert expanded == [830, 415]
    assert built[0] == 1


def test_descending_chains_respect_bound():
    top = _small_top()
    bound = len(top.edges) + sum(v.genus for v in top.vertices) + 2
    chains = G.descending_chains(QUINTIC, top, 12)
    assert chains
    assert max(len(c) for c in chains) <= bound
    # consecutive entries are strictly ordered
    for c in chains[:25]:
        for a, b in zip(c[1:], c[:-1]):
            assert G.graph_leq(QUINTIC, a, b)
            assert not G.isomorphic(a, b)


def test_descending_chains_leave_no_cycles():
    # the chain memo is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        chains = G.descending_chains(QUINTIC, _small_top(), 12)
        assert chains
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chain_length_tracks_deepest_graph():
    # a distinguished vertex carrying both degree and two legs sheds them one
    # edge at a time, so chains outgrow the |E| + sum(g) + 2 count of the TOP
    # graph (here 3); the count of the chain's deepest graph always bounds the
    # chain, because every descent appends exactly one edge
    top = G.DualGraph(
        (
            G.Vertex(0, 2, ((1, Frac(1, 5)), (2, Frac(3, 5)))),
            G.Vertex(0, 1, ((3, Frac(4, 5)),)),
        ),
        (G.Edge((0, 1), (Frac(0), Frac(0))),),
        0,
    )
    assert not G.validate(QUINTIC, top)
    assert G.infinity_stable_graph(top)
    chains = G.descending_chains(QUINTIC, top, 12)
    assert max(len(c) for c in chains) == 5  # exhaustive search, cap not hit
    for c in chains:
        bottom = c[-1]
        assert len(c) == len(bottom.edges) - len(top.edges) + 1
        assert len(c) <= len(bottom.edges) + sum(v.genus for v in bottom.vertices) + 2


def test_partial_order_transitive_on_samples():
    top = _small_top()
    sample = [top] + list(G.minimal_expansions(QUINTIC, top).values())[:4]
    for mid in list(sample[1:3]):
        sample += list(G.minimal_expansions(QUINTIC, mid).values())[:2]
    for a in sample:
        for b in sample:
            if G.graph_leq(QUINTIC, a, b) and G.graph_leq(QUINTIC, b, a):
                assert G.isomorphic(a, b)
    for a in sample:
        for b in sample:
            for c in sample:
                if G.graph_leq(QUINTIC, a, b) and G.graph_leq(QUINTIC, b, c):
                    assert G.graph_leq(QUINTIC, a, c)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_dual():
    g = _fig_top()
    blob = json.dumps(G.graph_to_obj(g), sort_keys=True)
    back = G.graph_from_obj(json.loads(blob))
    assert back == g
    assert json.dumps(G.graph_to_obj(back), sort_keys=True) == blob


def test_json_round_trip_loc():
    for lam in G.enumerate_loc_graphs(QUINTIC_25, 0, 1, 2, 1):
        blob = json.dumps(G.graph_to_obj(lam), sort_keys=True)
        back = G.graph_from_obj(json.loads(blob))
        assert back == lam
        assert isinstance(back, G.LocGraph)
        assert json.dumps(G.graph_to_obj(back), sort_keys=True) == blob
