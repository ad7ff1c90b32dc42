"""The bundled verification suite that ``glsmx verify`` runs.

Each criterion is a body that raises on the first identity it finds broken
and returns nothing when every identity holds.  ``CRITERIA`` lists the
bodies in report order, each under the name its check carries in the
report, and ``run_criterion`` turns one body into that check: any exception
it raises becomes a failing check whose first failure names the exception.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction as Frac
from math import comb, factorial

from . import cli
from . import graphs as gr
from . import jfun
from . import p1series as p1
from .algebra import (
    LAM,
    RF_ONE,
    RF_ZERO,
    CohClass,
    RatFun,
    TruncSeries,
    Z,
    series_root_pow,
)
from .errors import IdentityFailed, check_record
from .model import (
    GEOMETRIC,
    LG,
    GlsmModel,
    choose_delta,
    graph_multiplicities,
    isotropy_order,
    make_sector,
    solve_last_multiplicity,
)

# entry cap for exhaustive descending-chain searches; desk-scale triples
# bottom out well before this
_CHAIN_CAP = 16


def _expect(condition, message):
    if not condition:
        raise IdentityFailed(message)


def run_criterion(name, body):
    """Run body() and return its check record under name."""
    try:
        body()
    except Exception as err:  # anything that breaks is a finding, not a crash
        return check_record(name, False, f"{type(err).__name__}: {err}")
    return check_record(name, True)


# the order criteria 1 and 2 reach, so both share one rewritten basis
_TAIL_ORDER = 12


def _read_rendered(text, want, where):
    """Read a rendered Laurent sum in lam back term by term and compare it
    with want, {lam exponent: Fraction}.  Each coefficient must be written
    as str(Fraction) writes it, so an unreduced one fails; the reading
    shares no step with the renderer."""
    got = {}
    pieces = re.split(r" ([+-]) ", text) if text != "0" else []
    for sign, term in zip(["+"] + pieces[1::2], pieces[0::2]):
        term = "-" + term if sign == "-" else term
        if "lam" not in term:
            coeff, power = term, None
        elif "*" in term:
            coeff, _, power = term.partition("*")
        else:  # a bare power, of coefficient 1 or -1
            coeff, power = ("-1", term[1:]) if term.startswith("-") else ("1", term)
        match = re.fullmatch(r"lam(?:\^(-?\d+))?", power or "lam")
        _expect(
            match and re.fullmatch(r"-?\d+(/\d+)?", coeff), f"{where}: cannot read {term!r}"
        )
        exponent = 0 if power is None else int(match[1] or 1)
        value = Frac(coeff)
        _expect(str(value) == coeff, f"{where}: coefficient {coeff!r} is not in lowest terms")
        _expect(exponent not in got, f"{where}: lam^{exponent} is written twice")
        got[exponent] = value
    _expect(got == want, f"{where} renders as {text!r}, which reads back as another value")


def _exact_terms(f):
    """{(lam exponent, z exponent): Fraction} of a RatFun, from its int
    numerators over its denominator."""
    return {key: Frac(v, f.den[(0, 0)]) for key, v in f.num.items()}


def _tail_closed_forms_body():
    y_order = _TAIL_ORDER
    disc = TruncSeries("y", y_order, {0: RF_ONE, 1: RatFun(4) / LAM**2})
    unit_tail = p1.stilde_at_zero(p1.unit_class(), y_order)
    _expect(
        unit_tail == series_root_pow(disc, Frac(-1, 4)),
        "unit tail is not the -1/4 power of the discriminant series",
    )
    hyper_tail = p1.stilde_at_zero(p1.hyperplane_class(), y_order)
    want = (
        series_root_pow(disc, Frac(-1, 4)) + series_root_pow(disc, Frac(1, 4))
    ) * (LAM * Frac(1, 2))
    _expect(
        hyper_tail == want,
        "hyperplane tail is not (lam/2) times the -1/4 plus +1/4 powers",
    )
    # the p1 report renders both tails; each coefficient must read back
    for name, tail in (("unit", unit_tail), ("hyperplane", hyper_tail)):
        for k, f in tail.coeffs.items():
            want = {i: v for (i, _), v in _exact_terms(f).items()}
            _read_rendered(cli._lam_string(f), want, f"{name} tail at y^{k}")


def _root_ratio_body():
    report = p1.irr_ratio_check(_TAIL_ORDER)
    # (1 - sqrt(1 + 4u))/(1 + sqrt(1 + 4u)) = sum_k (-1)^k C_k u^k, with C_k
    # the Catalan numbers
    for k in range(1, _TAIL_ORDER + 1):
        catalan = (-1) ** k * comb(2 * k, k) // (k + 1)
        got = report["lambda_multiples"][k]
        _expect(got == catalan, f"order {k} multiple is {got}, not {catalan}")


def _unmarked_positivity_body():
    series = p1.tree_series_eps(6, 12)
    _expect(series.coeff(0).is_zero(), "unmarked series has a y^0 part")
    # the lone degree-one edge (-1/lam^2) to a bare leaf (-lam), times lam/(lam - z)
    one_edge = sum((Z**k / LAM ** (k + 1) for k in range(13)), RF_ZERO)
    _expect(series.coeff(1) == one_edge, "unmarked y^1 part is not the one-edge tail")


# the four chamber models; criteria 4 and 5 run on each
_NORMALIZATION_MODELS = (
    GlsmModel((1, 1, 1, 1, 1), 1, 5, LG),
    GlsmModel((1, 1, 1, 1, 1), 1, 5, GEOMETRIC),
    GlsmModel((1, 1, 2, 2), 2, 4, LG),
    GlsmModel((1, 1), 2, 2, GEOMETRIC),
)


def _closed_route_value(model, beta, twisted):
    """Closed product form of the degree-beta coefficient, written straight
    from the section monomial count; deliberately separate from the
    weight-table route so the two can disagree."""
    unit = jfun.state_unit(model)
    hyper = jfun.state_hyperplane(model)
    if model.phase == LG:
        if not make_sector(model, jfun.j_sector(model, beta)).narrow:
            return unit * RF_ZERO
        m1 = graph_multiplicities(model, beta)[0]
        value = unit * (Z * Frac(isotropy_order(model.d, m1), model.d))
        for w in model.weights:
            a = Frac(w * (beta + 1), model.d)
            top = -((-(w * (beta + 1) + 1)) // model.d) - 1
            for k in range(1, top + 1):
                value = value * (unit * (Z * (k - a)) - hyper * Frac(w, model.d))
        for b in range(1, beta + 1):
            value = value / ((hyper + unit * (Z * b)) ** model.N)
    else:
        value = unit * Z
        for m in range(1, model.d * beta + 1):
            value = value * ((hyper * (-model.d) - unit * (Z * m)) ** model.N)
        for w in model.weights:
            for b in range(1, w * beta + 1):
                value = value / (hyper * w + unit * (Z * b))
    if twisted:
        level = jfun.lambda_level(model, gr.LEVEL_ZERO)
        for b in range(beta):
            value = value * (level - unit * (Z * b))
    return value


def _dual_route_body():
    # every key the chamber commands serve on these models
    for model in _NORMALIZATION_MODELS:
        served = {False: {}, True: {}}
        for beta in range(jfun.Q_CAP + 1):
            for twisted in (False, True):
                ladder = jfun.unstable_J_coefficient(model, beta, None, twisted)
                closed = _closed_route_value(model, beta, twisted)
                _expect(
                    (ladder - closed).is_zero(),
                    f"routes disagree at phase {model.phase} weights "
                    f"{model.weights} beta {beta} twisted {twisted}",
                )
                served[twisted][beta] = ladder
        # the chamber reports render these tables; each cell, keyed
        # "beta,z power,H power", must read back as the compared value
        for twisted, values in served.items():
            where = f"phase {model.phase} weights {model.weights} twisted {twisted}"
            want = {}
            for beta, value in values.items():
                for h, part in enumerate(value.coeffs):
                    for (i, j), v in _exact_terms(part).items():
                        want.setdefault(f"{beta},{j},{h}", {})[i] = v
            table = cli._coefficient_table(values)
            _expect(table.keys() == want.keys(), f"{where}: the table has other cells")
            for key, text in table.items():
                _read_rendered(text, want[key], f"{where} cell {key}")


_NORMALIZATION_EPS = (Frac(2, 3), Frac(2, 5), Frac(2, 7))


def _z_nonnegative_part(value):
    """value less its negative z powers, summed back from the z-graded
    parts of each coefficient; shares no code with jfun.positive_z_part."""
    coeffs = [
        sum((part * Z**k for k, part in f.z_parts().items() if k >= 0), RF_ZERO)
        for f in value.coeffs
    ]
    return CohClass(coeffs, value.relation, value.r)


def _leading_terms_body():
    for model in _NORMALIZATION_MODELS:
        expected = jfun.state_unit(model) * Z
        for epsilon in _NORMALIZATION_EPS:
            for twisted in (False, True):
                where = f"{model.phase} weights {model.weights} eps {epsilon}"
                lead = jfun.positive_z_part(
                    jfun.unstable_J_coefficient(model, 0, epsilon, twisted)
                )
                _expect((lead - expected).is_zero(), f"leading term is not z at {where}")
                table = jfun.mu_table(model, epsilon, twisted)
                _expect(table[0].is_zero(), f"mu_0 is nonzero at {where}")
                # every higher entry is the z-non-negative part of the
                # closed product form
                for beta in range(1, len(table)):
                    closed = _z_nonnegative_part(_closed_route_value(model, beta, twisted))
                    _expect(
                        table[beta] == closed,
                        f"mu_{beta} is not the closed z-non-negative part at {where} "
                        f"twisted {twisted}",
                    )


def _pairing_relations_body():
    one = p1.unit_class()
    hyp = p1.hyperplane_class()
    got = p1.p1_graph_sum(2, 1, [(p1.point_class_zero(), 0), (p1.point_class_infinity(), 0)])
    _expect(got == RF_ONE, "two opposite point classes must pair to 1 at delta 1")
    got = p1.p1_graph_sum(2, 1, [(hyp, 0), (hyp, 0)])
    _expect(got == RF_ONE, "two hyperplane classes must pair to 1 at delta 1")
    bases = (
        (2, 1, ((hyp, 0), (p1.point_class_infinity(), 1))),
        (2, 1, ((one, 1), (hyp, 0))),
        (3, 1, ((hyp, 0), (one, 0), (p1.point_class_infinity(), 0))),
        (2, 2, ((hyp, 1), (hyp, 0))),
        (3, 2, ((one, 1), (hyp, 0), (hyp, 0))),
    )
    for n, delta, ins in bases:
        lhs = p1.p1_graph_sum(n + 1, delta, list(ins) + [(one, 0)])
        rhs = RF_ZERO
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                dropped = list(ins)
                dropped[i] = (alpha, k - 1)
                rhs = rhs + p1.p1_graph_sum(n, delta, dropped)
        _expect(lhs == rhs, f"string relation fails at n={n} delta={delta}")
        lhs = p1.p1_graph_sum(n + 1, delta, list(ins) + [(hyp, 0)])
        rhs = p1.p1_graph_sum(n, delta, list(ins)) * RatFun(delta)
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                contact = list(ins)
                contact[i] = (hyp * alpha, k - 1)
                rhs = rhs + p1.p1_graph_sum(n, delta, contact)
        _expect(lhs == rhs, f"divisor relation fails at n={n} delta={delta}")
    # the relations hold for any edge weights; the one-point descendants of
    # the J-function of the line (Givental 1996) pin every edge degree
    for d in range(1, p1.DELTA_CAP + 1):
        square = factorial(d) ** 2
        got = p1.p1_graph_sum(1, d, [(p1.point_class_zero(), 2 * d - 2)])
        want = RatFun(Frac(1, square))
        _expect(got == want, f"<tau_{2 * d - 2}(pt)> at degree {d} is {got!r}, not {want!r}")
        harmonic = sum(Frac(1, k) for k in range(1, d + 1))
        got = p1.p1_graph_sum(1, d, [(one, 2 * d - 1)])
        want = RatFun(-2 * harmonic / square)
        _expect(got == want, f"<tau_{2 * d - 1}(1)> at degree {d} is {got!r}, not {want!r}")


# Counts frozen from the brute-force partition enumeration in the test
# suite; keys are (genus, markings, degree, edge degree).
_CENSUS = {
    (0, 0, 0, 1): 0,
    (0, 0, 0, 2): 0,
    (0, 0, 1, 1): 0,
    (0, 0, 1, 2): 0,
    (0, 0, 2, 1): 0,
    (0, 0, 2, 2): 0,
    (0, 0, 3, 1): 2,
    (0, 0, 3, 2): 11,
    (0, 1, 0, 1): 2,
    (0, 1, 0, 2): 6,
    (0, 1, 1, 1): 3,
    (0, 1, 1, 2): 12,
    (0, 1, 2, 1): 4,
    (0, 1, 2, 2): 19,
    (0, 1, 3, 1): 6,
    (0, 1, 3, 2): 30,
    (0, 2, 0, 1): 20,
    (0, 2, 0, 2): 70,
    (0, 2, 1, 1): 35,
    (0, 2, 1, 2): 160,
    (0, 2, 2, 1): 50,
    (0, 2, 2, 2): 275,
    (0, 2, 3, 1): 70,
    (0, 2, 3, 2): 440,
    (1, 0, 0, 1): 2,
    (1, 0, 0, 2): 9,
    (1, 0, 1, 1): 0,
    (1, 0, 1, 2): 0,
    (1, 0, 2, 1): 0,
    (1, 0, 2, 2): 0,
    (1, 0, 3, 1): 0,
    (1, 0, 3, 2): 0,
    (1, 1, 0, 1): 4,
    (1, 1, 0, 2): 20,
    (1, 1, 1, 1): 7,
    (1, 1, 1, 2): 44,
    (1, 1, 2, 1): 10,
    (1, 1, 2, 2): 73,
    (1, 1, 3, 1): 14,
    (1, 1, 3, 2): 112,
    (1, 2, 0, 1): 40,
    (1, 2, 0, 2): 240,
    (1, 2, 1, 1): 75,
    (1, 2, 1, 2): 570,
    (1, 2, 2, 1): 110,
    (1, 2, 2, 2): 995,
    (1, 2, 3, 1): 150,
    (1, 2, 3, 2): 1560,
}


def _graph_census_body():
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG, Frac(2, 5))
    for (genus, markings, beta, delta), expected in sorted(_CENSUS.items()):
        where = f"(g={genus}, n={markings}, beta={beta}, delta={delta})"
        out = gr.enumerate_loc_graphs(model, genus, markings, beta, delta)
        _expect(len(out) == expected, f"count at {where}: {len(out)} vs {expected}")
        for lam in out:
            _expect(not gr.validate(model, lam), f"invalid graph emitted at {where}")


def _chain_graph(model, degrees):
    # genus-2 anchor followed by a chain of rational tails; multiplicities
    # are solved from the far end inward
    k = len(degrees)
    out_side = [None] * k
    in_side = [None] * k
    out_side[k - 1] = solve_last_multiplicity(model, 0, degrees[-1], [])
    for i in range(k - 1, 0, -1):
        in_side[i] = (-out_side[i]) % 1
        out_side[i - 1] = solve_last_multiplicity(
            model, 0, degrees[i - 1], [in_side[i]]
        )
    in_side[0] = (-out_side[0]) % 1
    anchor_leg = solve_last_multiplicity(model, 2, 0, [in_side[0]])
    vertices = [gr.Vertex(2, 0, ((1, anchor_leg),))]
    vertices += [gr.Vertex(0, b) for b in degrees]
    edges = tuple(gr.Edge((i, i + 1), (in_side[i], out_side[i])) for i in range(k))
    return gr.DualGraph(tuple(vertices), edges)


def _contraction_corpus_body():
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    rng = random.Random(48117)
    eps_choices = (None, Frac(1, 4), Frac(2, 5), Frac(2, 3), Frac(3, 2))
    for _ in range(50):
        degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        epsilon = eps_choices[rng.randrange(len(eps_choices))]
        graph = _chain_graph(model, degrees)
        where = f"degrees {degrees} eps {epsilon}"
        _expect(not gr.validate(model, graph), f"corpus graph invalid at {where}")
        contracted, basepoints = gr.contract_c(model, graph, epsilon)
        total = gr.total_degree(contracted) + sum(order for _, order, _ in basepoints)
        _expect(total == gr.total_degree(graph), f"degree not conserved at {where}")
        vi = gr.first_unstable_vertex(contracted, basepoints, epsilon)
        _expect(vi is None, f"vertex {vi} unstable after contraction at {where}")


def _figure_graphs():
    top = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(2, 2)),
        (gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),),
        1,
    )
    chain_mid = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 1), gr.Vertex(1, 1)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )
    chain_far = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 1), gr.Vertex(1, 1)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        2,
    )
    loop = gr.DualGraph(
        (gr.Vertex(1, 0, ((1, Frac(3, 5)),)), gr.Vertex(1, 2)),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 1), (Frac(0), Frac(0))),
        ),
        1,
    )
    loop_split = gr.DualGraph(
        (
            gr.Vertex(1, 0, ((1, Frac(3, 5)),)),
            gr.Vertex(0, 1),
            gr.Vertex(1, 1),
        ),
        (
            gr.Edge((0, 1), (Frac(4, 5), Frac(1, 5))),
            gr.Edge((1, 1), (Frac(0), Frac(0))),
            gr.Edge((1, 2), (Frac(0), Frac(0))),
        ),
        1,
    )
    return top, (chain_mid, chain_far, loop, loop_split)


def _partial_order_body():
    model = GlsmModel((1, 1, 1, 1, 1), 1, 5, LG)
    top, predecessors = _figure_graphs()
    _expect(not gr.validate(model, top), "top graph is invalid")
    _expect(gr.graph_leq(model, top, top), "order must be reflexive")
    for pred in predecessors:
        _expect(not gr.validate(model, pred), "predecessor graph is invalid")
        _expect(gr.infinity_stable_graph(pred), "predecessor not infinity stable")
        _expect(gr.graph_leq(model, pred, top), "predecessor is not below the top graph")
        _expect(not gr.graph_leq(model, top, pred), "order relation reversed")
    rng = random.Random(93202)
    built = 0
    attempts = 0
    while built < 20:
        attempts += 1
        _expect(attempts < 4000, "random top generation stalled")
        g0, g1 = rng.randint(0, 1), rng.randint(0, 2)
        b0, b1 = rng.randint(0, 2), rng.randint(0, 1)
        bullet = rng.randint(0, 1)
        # exhaustive chain enumeration blows up exponentially in the
        # distinguished vertex's genus + degree; cap that budget at 2
        if (g0 + b0 if bullet == 0 else g1 + b1) > 2:
            continue
        m_edge = Frac(rng.randrange(5), 5)
        extra = Frac(rng.randrange(5), 5)
        last0 = solve_last_multiplicity(model, g0, b0, [m_edge, extra])
        last1 = solve_last_multiplicity(model, g1, b1, [(-m_edge) % 1])
        graph = gr.DualGraph(
            (
                gr.Vertex(g0, b0, ((1, extra), (2, last0))),
                gr.Vertex(g1, b1, ((3, last1),)),
            ),
            (gr.Edge((0, 1), (m_edge, (-m_edge) % 1)),),
            bullet,
        )
        if gr.validate(model, graph):
            continue
        if not gr.infinity_stable_graph(graph):
            continue
        built += 1
        chains = gr.descending_chains(model, graph, _CHAIN_CAP)
        _expect(chains, "descending chain search found nothing")
        longest = max(chains, key=len)
        _expect(len(longest) < _CHAIN_CAP, "chain search hit the cap")
        for chain in chains:
            # each descent appends exactly one edge (a split of the
            # distinguished vertex, or one unit of its genus traded for a
            # loop), so the deepest graph in the chain fixes its length;
            # the message names the top graph, so it is built on failure
            if len(chain) != len(chain[-1].edges) - len(graph.edges) + 1:
                raise IdentityFailed(
                    f"descent step did not append one edge below {gr.graph_to_obj(graph)}"
                )
        for above, below in zip(longest, longest[1:]):
            _expect(not gr.validate(model, below), "chain entry fails validation")
            _expect(gr.graph_leq(model, below, above), "chain step not certified by graph_leq")
            _expect(not gr.graph_leq(model, above, below), "chain step reversed")
            # the search expands each triple from the int form its parent's
            # step carried; the public step rebuilds that form and checks it
            key = gr.canonical_key(below)
            _expect(
                any(
                    gr.canonical_key(p) == key
                    for p in gr.minimal_expansions(model, above).values()
                ),
                "chain step is not a minimal expansion",
            )


def _stability_margin_body():
    rng = random.Random(7741)
    seen = 0
    while seen < 100:
        epsilon = Frac(rng.randint(1, 160), rng.randint(1, 40))
        if epsilon > 4 or (1 / epsilon).denominator == 1:
            continue
        delta = choose_delta(epsilon)
        k_hi = int(2 / epsilon) + 2
        for k in range(-k_hi, k_hi + 1):
            lhs = k * epsilon - 1
            if abs(lhs) > 1:
                continue
            _expect(
                (lhs > 0) == (lhs + delta > 0),
                f"shift {delta} flips the sign of {k}*{epsilon} - 1",
            )
        seen += 1


CRITERIA = (
    ("tail closed forms", _tail_closed_forms_body),
    ("square root ratio", _root_ratio_body),
    ("unmarked series positivity", _unmarked_positivity_body),
    ("dual route coefficients", _dual_route_body),
    ("leading term normalization", _leading_terms_body),
    ("pairings and relations", _pairing_relations_body),
    ("graph census", _graph_census_body),
    ("contraction corpus", _contraction_corpus_body),
    ("partial order chains", _partial_order_body),
    ("stability margin scan", _stability_margin_body),
)
