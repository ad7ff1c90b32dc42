"""Seeded request lists for the three workloads.

A plan is built from the workload name and the seed alone, so one seed always
gives the same requests.  Every request is valid input for glsmx: stability
parameters sit off walls (1/epsilon is never an integer) and every order and
size stays within the program's caps (`Q_CAP`, `Y_ORDER_CAP`, `N_CAP`,
`DELTA_CAP` and the census bounds `_ENUM_BOUNDS`).  No request repeats
another one within a run, so a cache can only gain from work that distinct
requests share.

census    graph layer: `graphs` reports for the frozen census keys,
          `descending_chains` on two-vertex tops drawn by the rules of the
          partial-order criterion, `aut` and `order` reports on graphs taken
          from the census output, and `contract` reports on tail chains.
series    p1series over the RatFun kernel: `p1` reports at rising y orders,
          `tree_series_S` and `stilde_at_zero` on fixed classes, and
          `p1_graph_sum` on the insertion lists of seeded string and
          divisor relations.
chambers  jfun over CohClass arithmetic: `ifun`, `mu`, `edge` and `jwc`
          reports over the four models the acceptance suite uses.

`build` checks every request against the caps before it returns a plan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

from exact import frac_part

WORKLOADS = ("census", "series", "chambers")
# at least ten latency samples lie above the 90th percentile
MIN_REQUESTS = 100

# (genus, markings, degree, edge degree) -> graph count, frozen from the
# brute-force partition enumeration of the test suite (quintic, LG phase,
# epsilon = 2/5).  Keys with edge degree 3 are not listed: at g=1, n=2,
# beta=3 they were reported not to finish within 10 minutes.
CENSUS = {
    (0, 0, 0, 1): 0, (0, 0, 0, 2): 0, (0, 0, 1, 1): 0, (0, 0, 1, 2): 0,
    (0, 0, 2, 1): 0, (0, 0, 2, 2): 0, (0, 0, 3, 1): 2, (0, 0, 3, 2): 11,
    (0, 1, 0, 1): 2, (0, 1, 0, 2): 6, (0, 1, 1, 1): 3, (0, 1, 1, 2): 12,
    (0, 1, 2, 1): 4, (0, 1, 2, 2): 19, (0, 1, 3, 1): 6, (0, 1, 3, 2): 30,
    (0, 2, 0, 1): 20, (0, 2, 0, 2): 70, (0, 2, 1, 1): 35, (0, 2, 1, 2): 160,
    (0, 2, 2, 1): 50, (0, 2, 2, 2): 275, (0, 2, 3, 1): 70, (0, 2, 3, 2): 440,
    (1, 0, 0, 1): 2, (1, 0, 0, 2): 9, (1, 0, 1, 1): 0, (1, 0, 1, 2): 0,
    (1, 0, 2, 1): 0, (1, 0, 2, 2): 0, (1, 0, 3, 1): 0, (1, 0, 3, 2): 0,
    (1, 1, 0, 1): 4, (1, 1, 0, 2): 20, (1, 1, 1, 1): 7, (1, 1, 1, 2): 44,
    (1, 1, 2, 1): 10, (1, 1, 2, 2): 73, (1, 1, 3, 1): 14, (1, 1, 3, 2): 112,
    (1, 2, 0, 1): 40, (1, 2, 0, 2): 240, (1, 2, 1, 1): 75, (1, 2, 1, 2): 570,
    (1, 2, 2, 1): 110, (1, 2, 2, 2): 995, (1, 2, 3, 1): 150, (1, 2, 3, 2): 1560,
}
# the two largest keys take 11 s of the 24 s census on the reference host;
# they are left out so one run fits its time budget
CENSUS_SKIPPED = ((1, 2, 3, 2), (1, 2, 2, 2))

QUINTIC_LG = {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "lg"}
CENSUS_MODEL = dict(QUINTIC_LG, epsilon="2/5")
CHAMBER_MODELS = (
    ("quintic-lg", QUINTIC_LG),
    ("quintic-geo", {"weights": [1, 1, 1, 1, 1], "N": 1, "d": 5, "phase": "geometric"}),
    ("1122-lg", {"weights": [1, 1, 2, 2], "N": 2, "d": 4, "phase": "lg"}),
    ("11-geo", {"weights": [1, 1], "N": 2, "d": 2, "phase": "geometric"}),
)

# the program's caps (jfun.Q_CAP, p1series.N_CAP, DELTA_CAP, Y_ORDER_CAP,
# Z_ORDER_CAP, graphs._ENUM_BOUNDS) and the chain cap of the partial-order
# criterion
Q_CAP = 8
N_CAP = 5
DELTA_CAP = 3
Y_ORDER_CAP = 12
Z_ORDER_CAP = 16
ENUM_BOUNDS = {"g": 2, "n": 4, "beta": 6, "delta": 4}
CHAIN_CAP = 16

# The cost of a request is set by its shape (a census key, the genus and
# degree of a chain top, the size of a graph); the seed draws the values
# within each shape.  Fixing the count per shape keeps the load of a run and
# the ranks its latency percentiles fall on independent of the seed.
#
# descending-chain tops: (distinguished vertex, g0, b0, g1, b1, count); the
# seed draws the edge and extra-leg multiplicities
CHAIN_STRATA = (
    (0, 1, 1, 1, 1, 1),
    (0, 0, 2, 1, 1, 1),
    (1, 0, 2, 1, 1, 1),
    (0, 0, 1, 2, 0, 1),
    (1, 1, 2, 0, 1, 1),
)
# The work of a chain search is set by the number of chains it finds, and on
# two of the tops that number depends on the multiplicities.  There the seed
# draws only among the (m_edge, extra) numerators, over 5, that give the
# most common number: 2214 chains on the first top, 190 on the third.  On
# the other tops every pair gives the same number.
CHAIN_PAIRS = {
    (0, 1, 1, 1, 1): ((1, 2), (1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 3), (4, 1), (4, 2)),
    (1, 0, 2, 1, 1): tuple((a, b) for a in (1, 2, 3) for b in range(5)),
}
ALL_PAIRS = tuple((a, b) for a in range(5) for b in range(5))
# aut requests run on every graph of these census keys (140 graphs), on
# every seed.  They outnumber the other requests, so the median latency
# falls well inside their block, and they are the same each run.
AUT_KEYS = ((0, 2, 0, 1), (0, 2, 1, 1), (0, 2, 2, 1), (1, 1, 0, 1), (1, 1, 1, 1),
            (1, 1, 2, 1), (1, 1, 3, 1))
# census keys whose graphs feed the seeded order requests, with counts
ORDER_SOURCES = (((0, 2, 0, 1), 4), ((1, 1, 3, 1), 4), ((0, 2, 2, 1), 4), ((1, 2, 1, 1), 4))
# tail-chain graphs for contract requests: (number of tails, count)
CONTRACT_TAILS = ((1, 4), (2, 4), (3, 4))
CONTRACT_EPS = (None, "2/5", "2/3", "3/2", "2/7", "3/8", "3/5")

# a p1 report at y order 6 alone takes about 10 s on the reference host, so
# the reports stop at 5
P1_Y_ORDERS = (3, 4, 5)
STILDE_PER_ORDER = {2: 3, 3: 3, 4: 3}
# the y = 4 block is large enough to hold the median latency of the run
TREE_S_PER_ORDER = {2: 5, 3: 5, 4: 57, 5: 5, 6: 5}
# (markings of the smaller correlator, degree, relations of each kind)
RELATION_CLASSES = (
    (1, 1, 2), (2, 1, 2), (3, 1, 2), (1, 2, 2), (2, 2, 2), (3, 2, 2), (1, 3, 1), (2, 3, 1),
)

IFUN_ORDERS = range(2, Q_CAP + 1)
MU_BETA_MAX = (1, 3, 5, 8)
# mirror-map tables of the geometric quintic in the chamber with eight
# unstable degrees, one per epsilon drawn: the same work under distinct
# inputs, and the flat block the 90th-percentile latency falls in
MU_BLOCK = 12
JWC_STRATA = ((8, 0, 8), (5, 1, 6), (3, 2, 4))
EDGE_PAIRS = tuple((delta, beta) for delta in range(1, 5) for beta in range(delta))


REPORT_COMMANDS = {"graphs", "aut", "order", "contract", "p1", "ifun", "mu", "edge", "jwc"}


@dataclass
class Request:
    rid: str
    kind: str  # a report command name, or a library function name
    params: dict = field(default_factory=dict)
    needs: str | None = None  # rid whose output this request reads

    def is_report(self):
        return self.kind in REPORT_COMMANDS


def _off_wall_table():
    table = {}
    for q in range(1, 61):
        for p in range(1, 2 * q):
            eps = F(p, q)
            inv = 1 / eps
            if inv.denominator != 1:
                table.setdefault(int(inv), set()).add(eps)
    return {bm: sorted(values) for bm, values in table.items()}


_OFF_WALL = _off_wall_table()


def off_wall_epsilons(beta_max):
    """Stability parameters with floor(1/epsilon) == beta_max, none on a wall
    (denominators up to 60)."""
    return _OFF_WALL[beta_max]


def build(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    requests, extra = {"census": _census, "series": _series, "chambers": _chambers}[workload](rng)
    ids = [r.rid for r in requests]
    if len(set(ids)) != len(ids):
        raise ValueError("plan repeats a request")
    if len(ids) < MIN_REQUESTS:
        raise ValueError(f"plan holds fewer than {MIN_REQUESTS} requests")
    for r in requests:
        problem = invalid_input(r)
        if problem:
            raise ValueError(f"{r.rid}: {problem}")
    return Plan(workload, seed, _order(requests, rng), extra)


def invalid_input(r):
    """Why a request would be invalid input for glsmx, or None."""
    p = r.params
    for key in ("epsilon", "epsilon_1", "epsilon_2"):
        if p.get(key) is not None:
            eps = F(p[key])
            if eps <= 0 or (1 / eps).denominator == 1:
                return f"{key} = {eps} is not positive and off the walls"
            if r.kind in ("mu", "jwc") and int(1 / eps) > Q_CAP:
                return f"chamber of {eps} holds more than {Q_CAP} degrees"
            if r.kind == "edge" and p["beta"] > 1 / eps:
                return "edge degree is stable for its epsilon"
    if r.kind == "graphs":
        caps = zip((p["genus"], p["markings"], p["degree"], p["edge_degree"]),
                   (ENUM_BOUNDS[k] for k in ("g", "n", "beta", "delta")))
        if any(v > cap for v, cap in caps):
            return "census key above the enumeration bounds"
    if r.kind in ("ifun", "jwc") and p["q_max"] > Q_CAP:
        return f"q order above {Q_CAP}"
    if r.kind == "edge" and not 0 <= p["beta"] < p["delta"]:
        return "edge degree must exceed its basepoint degree"
    if r.kind in ("p1", "stilde_at_zero", "tree_series_S"):
        if p.get("y_order", p.get("y")) > Y_ORDER_CAP or p.get("z", 0) > Z_ORDER_CAP:
            return "series order above its cap"
    if r.kind == "p1_graph_sum":
        if p["n"] > N_CAP or not 1 <= p["delta"] <= DELTA_CAP:
            return "graph sum above its caps"
    if r.kind == "descending_chains":
        budget = p["g0"] + p["b0"] if p["bullet"] == 0 else p["g1"] + p["b1"]
        if p["g0"] > 1 or p["g1"] > 2 or p["b0"] > 2 or p["b1"] > 1 or budget > 2:
            return "chain top outside the partial-order criterion's rules"
    return None


@dataclass
class Plan:
    workload: str
    seed: int
    requests: list
    extra: dict


def _order(requests, rng):
    """Shuffle, then place each dependent request right after the one it
    reads from."""
    rng.shuffle(requests)
    waiting = {}
    for r in requests:
        if r.needs is not None:
            waiting.setdefault(r.needs, []).append(r)
    out = []
    for r in requests:
        if r.needs is None:
            out.append(r)
            out.extend(waiting.get(r.rid, ()))
    return out


def _key(kind, params):
    return kind + ":" + json.dumps(params, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# census


def _census(rng):
    out = []
    keys = [k for k in sorted(CENSUS) if k not in CENSUS_SKIPPED]
    for g, n, beta, delta in keys:
        params = {"genus": g, "markings": n, "degree": beta, "edge_degree": delta}
        out.append(Request(f"graphs:{g},{n},{beta},{delta}", "graphs", params))
    for key in AUT_KEYS:
        src = "graphs:" + ",".join(map(str, key))
        for index in range(CENSUS[key]):
            out.append(Request(f"aut:{src}#{index}", "aut", {"index": index}, needs=src))
    for key, count in ORDER_SOURCES:
        src = "graphs:" + ",".join(map(str, key))
        for n, index in enumerate(rng.sample(range(CENSUS[key]), count)):
            relation = ("merge", "relabel")[n % 2]
            params = {"index": index, "relation": relation, "pick": rng.random()}
            out.append(Request(f"order:{src}#{index}:{relation}", "order", params, needs=src))
    out += _chain_tops(rng)
    out += _contract_graphs(rng)
    return out, {}


def _chain_tops(rng):
    out = []
    for bullet, g0, b0, g1, b1, count in CHAIN_STRATA:
        pairs = CHAIN_PAIRS.get((bullet, g0, b0, g1, b1), ALL_PAIRS)
        for m_edge, extra in rng.sample(pairs, count):
            params = {"g0": g0, "b0": b0, "g1": g1, "b1": b1, "bullet": bullet,
                      "m_edge": str(F(m_edge, 5)), "extra": str(F(extra, 5))}
            out.append(Request(_key("chains", params), "descending_chains", params))
    return out


def chain_top(params):
    """Vertices and edge of a two-vertex top, multiplicities solved from
    the LG compatibility condition (quintic, d = 5)."""
    d = 5
    g0, b0, g1, b1 = params["g0"], params["b0"], params["g1"], params["b1"]
    m_edge, extra = F(params["m_edge"]), F(params["extra"])
    last0 = frac_part(F(-b0 + 2 * g0 - 2 + 3, d) - m_edge - extra)
    m_back = frac_part(-m_edge)
    last1 = frac_part(F(-b1 + 2 * g1 - 2 + 2, d) - m_back)
    vertices = [(g0, b0, ((1, extra), (2, last0))), (g1, b1, ((3, last1),))]
    edge = ((0, 1), (m_edge, m_back))
    return vertices, edge, params["bullet"]



def _contract_graphs(rng):
    out = []
    seen = set()
    for tails, count in CONTRACT_TAILS:
        made = 0
        while made < count:
            degrees = [rng.randint(1, 3) for _ in range(tails)]
            params = {"degrees": degrees, "epsilon": rng.choice(CONTRACT_EPS)}
            rid = _key("contract", params)
            if rid not in seen:
                seen.add(rid)
                out.append(Request(rid, "contract", params))
                made += 1
    return out


def tail_chain_graph(degrees):
    """Genus-2 anchor carrying one marking, followed by a chain of rational
    tails of the given degrees; multiplicities solved from the far end."""
    d = 5
    k = len(degrees)
    out_side = [None] * k
    in_side = [None] * k
    out_side[k - 1] = frac_part(F(-degrees[-1] - 1, d))
    for i in range(k - 1, 0, -1):
        in_side[i] = frac_part(-out_side[i])
        out_side[i - 1] = frac_part(F(-degrees[i - 1], d) - in_side[i])
    in_side[0] = frac_part(-out_side[0])
    anchor_leg = frac_part(F(4, d) - in_side[0])
    vertices = [{"genus": 2, "degree": 0, "legs": [[1, str(anchor_leg)]]}]
    vertices += [{"genus": 0, "degree": b, "legs": []} for b in degrees]
    edges = [
        {"ends": [i, i + 1], "mults": [str(in_side[i]), str(out_side[i])]}
        for i in range(k)
    ]
    return {"kind": "dual", "vertices": vertices, "edges": edges, "v_bullet": None}


# ---------------------------------------------------------------------------
# series

# classes on the line as (constant coefficient, H coefficient), each a tuple
# of lam-polynomial coefficients
UNIT = ((F(1),), (F(0),))
HYPER = ((F(0),), (F(1),))


def _random_class(rng):
    """A class with all four lam-coefficients nonzero, so that requests of
    one shape cost about the same whatever the seed draws."""
    pick = lambda: rng.choice((-3, -2, -1, 1, 2, 3))
    return ((F(pick()), F(pick())), (F(pick()), F(pick())))


def _multiples(alpha, count):
    """alpha, 2 alpha, ..., count alpha: distinct inputs that cost the same,
    so the latency of a block of them does not depend on what was drawn."""
    return [tuple(tuple(k * c for c in part) for part in alpha) for k in range(1, count + 1)]


def class_text(alpha):
    return "[" + ";".join(",".join(str(c) for c in part) for part in alpha) + "]"


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += F(x) * F(y)
    return tuple(out)


def poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(F(a[i] if i < len(a) else 0) + F(b[i] if i < len(b) else 0) for i in range(n))


def hyper_times(alpha):
    """H * (c0 + c1 H) = (c0 + lam c1) H on the line, where H^2 = lam H."""
    c0, c1 = alpha
    return ((F(0),), poly_add(c0, poly_mul((0, 1), c1)))


def _series(rng):
    out = []
    for y in P1_Y_ORDERS:
        out.append(Request(f"p1:y={y}", "p1", {"y_order": y, "delta": 1}))
    # the tail-series requests set the run's latency percentiles and their
    # cost depends on the class, so they use the same classes on every seed;
    # the seed draws the insertions of the graph-sum relations
    fixed = random.Random("series-classes")
    for y, count in STILDE_PER_ORDER.items():
        for alpha in _multiples(_random_class(fixed), count):
            out.append(Request(f"stilde:{class_text(alpha)}:y={y}", "stilde_at_zero",
                               {"alpha": alpha, "y": y}))
    bases = set()
    for y, count in TREE_S_PER_ORDER.items():
        z = min(y + 1, Z_ORDER_CAP)
        for alpha in _multiples(_random_class(fixed), count):
            out.append(Request(f"tree_S:{class_text(alpha)}:y={y}:z={z}", "tree_series_S",
                               {"alpha": alpha, "y": y, "z": z}))
        bases.add((y, z))
    for y, z in sorted(bases):
        for alpha in (UNIT, HYPER):
            out.append(Request(f"tree_S:{class_text(alpha)}:y={y}:z={z}", "tree_series_S",
                               {"alpha": alpha, "y": y, "z": z}))
    sums = {}
    relations = []
    for n, delta, count in RELATION_CLASSES:
        for kind in ("string", "divisor") * count:
            while True:
                # exactly one descendant insertion, so every relation of a
                # kind needs the same number of graph sums
                ins = [(_random_class(rng), 0) for _ in range(n)]
                i = rng.randrange(n)
                ins[i] = (ins[i][0], 1)
                rel = _relation(kind, n, delta, ins, sums)
                if rel is not None:
                    relations.append(rel)
                    break
    for rid, params in sums.items():
        out.append(Request(rid, "p1_graph_sum", params))
    return out, {"relations": relations}


def sum_id(n, delta, ins):
    return f"gsum:n={n}:d={delta}:" + "|".join(f"{class_text(a)}^{k}" for a, k in ins)


def _relation(kind, n, delta, ins, sums):
    """One string or divisor relation among graph sums: lhs = sum of
    coefficient * term over the listed terms.  None when one of its sums is
    already requested, so no two requests repeat."""
    new = {}

    def term(m, entries):
        rid = sum_id(m, delta, entries)
        new[rid] = {"n": m, "delta": delta, "insertions": list(entries)}
        return rid

    if kind == "string":
        lhs = term(n + 1, list(ins) + [(UNIT, 0)])
        rhs = []
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                dropped = list(ins)
                dropped[i] = (alpha, k - 1)
                rhs.append((1, term(n, dropped)))
    else:
        lhs = term(n + 1, list(ins) + [(HYPER, 0)])
        rhs = [(delta, term(n, list(ins)))]
        for i, (alpha, k) in enumerate(ins):
            if k > 0:
                contact = list(ins)
                contact[i] = (hyper_times(alpha), k - 1)
                rhs.append((1, term(n, contact)))
    if any(rid in sums for rid in new):
        return None  # shares a graph sum with an earlier relation; redraw
    sums.update(new)
    terms = set(new)
    return {"kind": kind, "n": n, "delta": delta, "lhs": lhs, "rhs": rhs, "terms": terms}


# ---------------------------------------------------------------------------
# chambers


def _chambers(rng):
    out = []
    for name, model in CHAMBER_MODELS:
        for q in IFUN_ORDERS:
            for twisted in (False, True):
                params = {"model": name, "q_max": q, "twisted": twisted}
                out.append(Request(_key("ifun", params), "ifun", params))
        for beta_max in MU_BETA_MAX:
            for twisted in (False, True):
                eps = rng.choice(off_wall_epsilons(beta_max))
                params = {"model": name, "epsilon": str(eps), "twisted": twisted}
                out.append(Request(_key("mu", params), "mu", params))
        for delta, beta in EDGE_PAIRS:
            eps = None
            if rng.random() < 0.5:
                eps = str(rng.choice([e for bm in range(max(beta, 1), Q_CAP + 1)
                                      for e in off_wall_epsilons(bm)]))
            # the twist sets the cost, so it follows the shape, not the seed
            params = {"model": name, "delta": delta, "beta": beta, "epsilon": eps,
                      "twisted": (delta + beta) % 2 == 0,
                      "unstable_vertex": rng.choice((None, "0", "inf"))}
            out.append(Request(_key("edge", params), "edge", params))
        for bm1, bm2, q in JWC_STRATA:
            pair = [str(rng.choice(off_wall_epsilons(bm1))), str(rng.choice(off_wall_epsilons(bm2)))]
            rng.shuffle(pair)
            params = {"model": name, "epsilon_1": pair[0], "epsilon_2": pair[1], "q_max": q}
            out.append(Request(_key("jwc", params), "jwc", params))
    taken = {r.rid for r in out}
    block = []
    for eps in off_wall_epsilons(8):
        params = {"model": "quintic-geo", "epsilon": str(eps), "twisted": False}
        if _key("mu", params) not in taken:
            block.append(Request(_key("mu", params), "mu", params))
    out += rng.sample(block, MU_BLOCK)
    return out, {}


def model_config(name):
    return dict(CHAMBER_MODELS)[name]
