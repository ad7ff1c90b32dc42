"""Decorated dual graphs and torus-fixed-locus graphs: validation,
stability predicates, tail contraction and marking conversion, fixed-graph
enumeration, automorphism and covering-degree factors, and the partial
order that organizes the induction over decorated graphs."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Frac

from .errors import (
    BoundsExceeded,
    ConfigError,
    NotInfinityStable,
    WrongMultiplicity,
)
from .model import (
    _compat_defect,
    check_compatibility,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
    solve_last_multiplicity,
)

LEVEL_ZERO = "0"
LEVEL_INF = "inf"


@dataclass(frozen=True)
class Vertex:
    """One vertex: genus, degree carried on the component, labeled legs as
    (marking label, multiplicity) pairs, a count of interchangeable extra
    legs, and an optional level for fixed-locus graphs."""

    genus: int
    degree: int
    legs: tuple = ()
    extra_legs: int = 0
    level: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "legs", tuple((int(l), frac_bracket(m)) for l, m in self.legs)
        )


@dataclass(frozen=True)
class Edge:
    """One edge with the vertex-side multiplicities aligned to `ends`, and
    an optional covering degree for fixed-locus graphs."""

    ends: tuple
    mults: tuple = (Frac(0), Frac(0))
    delta: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "ends", (int(self.ends[0]), int(self.ends[1])))
        object.__setattr__(
            self, "mults", (frac_bracket(self.mults[0]), frac_bracket(self.mults[1]))
        )


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple
    edges: tuple
    v_bullet: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class LocGraph:
    """Fixed-locus graph: every vertex carries a level, every edge a
    covering degree.  Edges always join the two levels."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class Basepoint:
    host: int
    order: int
    mult: Frac


@dataclass(frozen=True)
class ContractionRecord:
    graph: DualGraph
    basepoints: tuple


# ---------------------------------------------------------------------------
# shared helpers


def half_edges_at(graph, vi):
    """All (edge index, side) incidences at vertex vi; loops appear twice."""
    out = []
    for ei, e in enumerate(graph.edges):
        for side in (0, 1):
            if e.ends[side] == vi:
                out.append((ei, side))
    return out


def vertex_valence(graph, vi):
    """Half-edges plus labeled legs (extra legs not included)."""
    return len(half_edges_at(graph, vi)) + len(graph.vertices[vi].legs)


def _component_count(nodes, links):
    """Number of connected components of the nodes under the (a, b) links,
    by union-find; nodes must be iterable twice."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in nodes})


def _components(graph):
    return _component_count(range(len(graph.vertices)), (e.ends for e in graph.edges))


def first_betti(graph):
    return len(graph.edges) - len(graph.vertices) + _components(graph)


def total_genus(graph):
    return first_betti(graph) + sum(v.genus for v in graph.vertices)


def total_degree(graph):
    return sum(v.degree for v in graph.vertices)


def total_edge_degree(graph):
    return sum(e.delta or 0 for e in graph.edges)


def global_legs(graph):
    """All legs in label order as (label, mult, vertex index)."""
    out = []
    for vi, v in enumerate(graph.vertices):
        for label, m in v.legs:
            out.append((label, m, vi))
    out.sort()
    return out


def _vertex_mults(model, graph, vi):
    """Every multiplicity incident to the vertex: legs, half-edges, and the
    phase unit for each extra leg."""
    v = graph.vertices[vi]
    out = [m for _, m in v.legs]
    out += [graph.edges[ei].mults[side] for ei, side in half_edges_at(graph, vi)]
    out += [model.unit_sector_mult] * v.extra_legs
    return out


def _vertex_defect(model, graph, vi):
    v = graph.vertices[vi]
    return _compat_defect(model, v.genus, v.degree, _vertex_mults(model, graph, vi))


# ---------------------------------------------------------------------------
# stability


def epsilon_stable(
    genus,
    degree,
    special_points,
    epsilon,
    basepoint_orders=(),
    light_delta=None,
    light_markings=0,
):
    """Component stability: every basepoint order within the chamber bound
    and the polarization degree positive.  Light markings count with weight
    light_delta instead of 1.  epsilon None means the infinity chamber."""
    if light_markings and light_delta is None:
        raise ConfigError("light markings need a light_delta weight")
    weight = Frac(special_points)
    if light_markings:
        weight += light_markings * (Frac(light_delta) - 1)
    if epsilon is None:
        if any(o > 0 for o in basepoint_orders):
            return False
        return degree > 0 or 2 * genus - 2 + weight > 0
    epsilon = Frac(epsilon)
    if epsilon <= 0:
        raise ConfigError(f"stability parameter {epsilon} must be positive")
    if any(o > 1 / epsilon for o in basepoint_orders):
        return False
    return epsilon * degree + 2 * genus - 2 + weight > 0


def classify_vertex(model, graph, vi, epsilon):
    """Role of a fixed-locus graph vertex: 'stable', or one of the pointlike
    profiles 'ram' (plain ramification point), 'basepoint', 'node',
    'marked'; None when no consistent role exists."""
    v = graph.vertices[vi]
    he = len(half_edges_at(graph, vi))
    chamber = epsilon if v.level == LEVEL_ZERO else None
    if epsilon_stable(v.genus, v.degree, he + len(v.legs), chamber):
        return "stable"
    if v.genus > 0 or v.extra_legs:
        return None
    if he == 1 and not v.legs and v.degree == 0:
        return "ram"
    if (
        he == 1
        and not v.legs
        and v.degree > 0
        and v.level == LEVEL_ZERO
        and epsilon is not None
        and Frac(epsilon) * v.degree <= 1
    ):
        return "basepoint"
    if he == 2 and not v.legs and v.degree == 0:
        return "node"
    if he == 1 and len(v.legs) == 1 and v.degree == 0:
        return "marked"
    return None


def basepoint_order_on_edge(model, graph, ei):
    """Basepoint order carried by an edge of a fixed-locus graph: the degree
    of an unstable valence-one level-zero end, zero otherwise."""
    e = graph.edges[ei]
    for side in (0, 1):
        vi = e.ends[side]
        if classify_vertex(model, graph, vi, model.epsilon) == "basepoint":
            return graph.vertices[vi].degree
    return 0


# ---------------------------------------------------------------------------
# validation


def validate(model, graph):
    """All invariant violations as human-readable strings; empty iff valid."""
    out = []
    is_loc = isinstance(graph, LocGraph)
    nv = len(graph.vertices)
    ends_ok = True
    for ei, e in enumerate(graph.edges):
        if not all(0 <= x < nv for x in e.ends):
            out.append(f"edge {ei}: endpoint out of range")
            ends_ok = False
            continue
        if (e.mults[0] + e.mults[1]).denominator != 1:
            out.append(
                f"edge {ei}: multiplicities {e.mults[0]} + {e.mults[1]} not integral"
            )
        if is_loc:
            if e.delta is None or e.delta < 1:
                out.append(f"edge {ei}: covering degree must be at least 1")
            a, b = e.ends
            if graph.vertices[a].level == graph.vertices[b].level:
                out.append(f"edge {ei}: both ends at level {graph.vertices[a].level}")
            elif e.delta is not None:
                bp = basepoint_order_on_edge(model, graph, ei)
                if bp and e.delta <= bp:
                    out.append(
                        f"edge {ei}: covering degree {e.delta} not above "
                        f"basepoint order {bp}"
                    )
    for vi in range(nv):
        v = graph.vertices[vi]
        if is_loc and v.level not in (LEVEL_ZERO, LEVEL_INF):
            out.append(f"vertex {vi}: missing level")
        if v.genus < 0 or v.degree < 0 or v.extra_legs < 0:
            out.append(f"vertex {vi}: negative decoration")
            continue
        defect = _vertex_defect(model, graph, vi)
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
    if nv and ends_ok and _components(graph) != 1:
        out.append("graph not connected")
    seen_labels = [l for l, _, _ in global_legs(graph)]
    if len(seen_labels) != len(set(seen_labels)):
        out.append("duplicate marking labels")
    return out


def infinity_stable_graph(model, graph):
    """Vertex-wise stability in the infinity chamber, extra legs counted."""
    return all(
        epsilon_stable(
            v.genus, v.degree, vertex_valence(graph, vi) + v.extra_legs, None
        )
        for vi, v in enumerate(graph.vertices)
    )


# ---------------------------------------------------------------------------
# canonical form, isomorphism, automorphisms


def _base_key(v):
    return (
        v.genus,
        v.degree,
        v.extra_legs,
        v.level or "",
        tuple(sorted(v.legs)),
    )


def _vertex_class_key(graph, vi):
    inc = sorted(
        (
            graph.edges[ei].delta or 0,
            graph.edges[ei].mults[side],
            graph.edges[ei].mults[1 - side],
            _base_key(graph.vertices[graph.edges[ei].ends[1 - side]]),
        )
        for ei, side in half_edges_at(graph, vi)
    )
    return (_base_key(graph.vertices[vi]), tuple(inc))


def _class_orders(graph):
    """Vertex orderings compatible with isomorphism-invariant classes; any
    isomorphism permutes vertices only within a class."""
    keys = [_vertex_class_key(graph, vi) for vi in range(len(graph.vertices))]
    groups = {}
    for vi, k in enumerate(keys):
        groups.setdefault(k, []).append(vi)
    blocks = [groups[k] for k in sorted(groups)]
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        yield tuple(itertools.chain.from_iterable(choice))


def _edge_key(e, pos):
    a, b = e.ends
    pa, pb = (pos[a], e.mults[0]), (pos[b], e.mults[1])
    lo, hi = sorted([pa, pb])
    return (lo[0], hi[0], e.delta or 0, lo[1], hi[1])


def _serialized(graph, order):
    pos = {old: new for new, old in enumerate(order)}
    verts = tuple(_base_key(graph.vertices[o]) for o in order)
    edges = tuple(sorted(_edge_key(e, pos) for e in graph.edges))
    bullet = getattr(graph, "v_bullet", None)
    return (verts, edges, -1 if bullet is None else pos[bullet])


def canonical_key(graph):
    """Total isomorphism invariant (brute force within vertex classes)."""
    return min(_serialized(graph, order) for order in _class_orders(graph))


def isomorphic(a, b):
    if type(a) is not type(b):
        return False
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    return canonical_key(a) == canonical_key(b)


def _degree_half_edges(graph):
    """Half-edges whose isotropy orders divide the covering degree.  Plain
    dual graphs: all half-edges (both sides of every edge).  Fixed-locus
    graphs: all non-leg half-edges at stable vertices plus one half-edge at
    each unlegged valence-two genus-zero degree-zero vertex (both sides
    carry the same isotropy there)."""
    if isinstance(graph, DualGraph):
        return [(ei, side) for ei in range(len(graph.edges)) for side in (0, 1)]
    picked = []
    for vi in range(len(graph.vertices)):
        v = graph.vertices[vi]
        he = half_edges_at(graph, vi)
        pointlike = v.genus == 0 and not v.legs and (
            (v.degree == 0 and len(he) in (1, 2)) or (v.degree > 0 and len(he) == 1)
        )
        if not pointlike:
            picked.extend(he)
        elif v.degree == 0 and len(he) == 2:
            # the isotropy order agrees on both sides; tie-break on the
            # lower neighboring vertex id
            picked.append(
                min(he, key=lambda p: (graph.edges[p[0]].ends[1 - p[1]], p[0]))
            )
    return picked


def aut_degree(model, graph):
    """Automorphism count and the covering-degree factor: |Aut| divided by
    the product of isotropy orders over one half-edge per node of the
    generic curve."""
    if len(graph.vertices) > 12:
        raise BoundsExceeded("automorphism search capped at 12 vertices")
    id_pos = {i: i for i in range(len(graph.vertices))}
    base_counts = {}
    for e in graph.edges:
        k = _edge_key(e, id_pos)
        base_counts[k] = base_counts.get(k, 0) + 1
    # orderings achieving the canonical serialization are exactly the coset
    # of the automorphism group inside the class-preserving orderings
    best = None
    vertex_perms = 0
    for order in _class_orders(graph):
        s = _serialized(graph, order)
        if best is None or s < best:
            best, vertex_perms = s, 1
        elif s == best:
            vertex_perms += 1
    edge_ways = 1
    for c in base_counts.values():
        edge_ways *= math.factorial(c)
    sym_loops = sum(
        1 for e in graph.edges if e.ends[0] == e.ends[1] and e.mults[0] == e.mults[1]
    )
    aut = vertex_perms * edge_ways * 2**sym_loops
    factor = Frac(aut)
    for ei, side in _degree_half_edges(graph):
        factor /= isotropy_order(model.d, graph.edges[ei].mults[side])
    return aut, factor


# ---------------------------------------------------------------------------
# contraction of unstable rational tails


def contraction_pass(model, graph, records, epsilon):
    """One tail contraction if available.  records is a tuple of
    (host, order, mult) basepoint triples indexed in graph.  Returns
    (graph, records, changed)."""
    if len(graph.vertices) <= 1:
        return graph, records, False
    hosted = {}
    for host, order, _ in records:
        hosted[host] = hosted.get(host, ()) + (order,)
    for vi, v in enumerate(graph.vertices):
        he = half_edges_at(graph, vi)
        if v.genus or v.legs or v.extra_legs or len(he) != 1:
            continue
        orders = hosted.get(vi, ())
        tail_degree = v.degree + sum(orders)
        if tail_degree <= 0:
            continue
        if epsilon_stable(0, tail_degree, 1, epsilon, orders):
            continue
        ei, side = he[0]
        edge = graph.edges[ei]
        host_old = edge.ends[1 - side]
        host_mult = edge.mults[1 - side]
        twist, _ = graph_multiplicities(model, tail_degree)
        new_mult = frac_bracket(host_mult + twist)
        remap = {}
        new_vertices = []
        for wi, w in enumerate(graph.vertices):
            if wi == vi:
                continue
            remap[wi] = len(new_vertices)
            new_vertices.append(w)
        new_edges = tuple(
            Edge((remap[e.ends[0]], remap[e.ends[1]]), e.mults, e.delta)
            for ej, e in enumerate(graph.edges)
            if ej != ei
        )
        bullet = graph.v_bullet
        if bullet is not None:
            bullet = remap.get(bullet)
        new_graph = DualGraph(tuple(new_vertices), new_edges, bullet)
        # basepoints on the tail fold into the new one, so degree plus
        # orders is conserved pass by pass
        new_records = tuple(
            (remap[h], o, m) for h, o, m in records if h != vi
        ) + ((remap[host_old], tail_degree, new_mult),)
        return new_graph, new_records, True
    return graph, records, False


def _contract_to_fixpoint(model, graph, records, epsilon):
    changed = True
    while changed:
        graph, records, changed = contraction_pass(model, graph, records, epsilon)
    return graph, records


def contract_c(model, graph, epsilon):
    """Iteratively contract unstable rational tails into basepoints on their
    attachment vertices, until every component is stable for the chamber."""
    if isinstance(graph, ContractionRecord):
        if any(bp.order > 0 for bp in graph.basepoints):
            raise NotInfinityStable("input already carries basepoints")
        graph = graph.graph
    if not infinity_stable_graph(model, graph):
        raise NotInfinityStable("input graph is not stable in the infinity chamber")
    out_graph, records = _contract_to_fixpoint(model, graph, (), epsilon)
    basepoints = tuple(
        Basepoint(h, o, m) for h, o, m in sorted(records, key=lambda r: (r[0], r[1]))
    )
    return ContractionRecord(out_graph, basepoints)


def is_contraction_fixpoint(model, record, epsilon):
    """Whether re-running contraction on the record changes nothing."""
    records = tuple((b.host, b.order, b.mult) for b in record.basepoints)
    _, _, changed = contraction_pass(model, record.graph, records, epsilon)
    return not changed


def convert_markings_b(model, graph, beta_vec, epsilon):
    """Convert the last k markings into basepoints of the given orders, then
    contract until stable for the chamber."""
    beta_vec = tuple(int(b) for b in beta_vec)
    if not beta_vec:
        return ContractionRecord(graph, ())
    legs = global_legs(graph)
    if len(beta_vec) > len(legs):
        raise ConfigError("more orders than markings")
    tail = legs[len(legs) - len(beta_vec):]
    records = []
    for (label, m, vi), order in zip(tail, beta_vec):
        twist, expected = graph_multiplicities(model, order)
        if m != expected:
            raise WrongMultiplicity(
                f"marking {label} has multiplicity {m}, conversion of order "
                f"{order} needs {expected}"
            )
        records.append((vi, order, frac_bracket(m + twist)))
    drop = {label for label, _, _ in tail}
    stripped = DualGraph(
        tuple(
            Vertex(
                v.genus,
                v.degree,
                tuple((l, m) for l, m in v.legs if l not in drop),
                v.extra_legs,
                v.level,
            )
            for v in graph.vertices
        ),
        graph.edges,
        graph.v_bullet,
    )
    out_graph, out_records = _contract_to_fixpoint(
        model, stripped, tuple(records), epsilon
    )
    basepoints = tuple(
        Basepoint(h, o, m)
        for h, o, m in sorted(out_records, key=lambda r: (r[0], r[1]))
    )
    return ContractionRecord(out_graph, basepoints)


# ---------------------------------------------------------------------------
# fixed-locus graph enumeration


_ENUM_BOUNDS = {"g": 2, "n": 4, "beta": 6, "delta": 4}


def _compositions(total, parts, least=0):
    """Ordered tuples of parts integers, each at least least, summing to
    total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(least, total - least * (parts - 1) + 1):
        for tail in _compositions(total - head, parts - 1, least):
            yield (head,) + tail


def _bipartition(nv, edges):
    """Sides 0/1 of the vertices of a connected graph with vertex 0 on side
    0 and every edge joining the two sides; None when an odd cycle makes
    that impossible."""
    adj = {i: [] for i in range(nv)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    side = [None] * nv
    side[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if side[w] is None:
                side[w] = 1 - side[v]
                stack.append(w)
            elif side[w] == side[v]:
                return None
    return side


def _connected_structures(nv, ne):
    """Multisets of ne undirected loop-free edges on nv vertices forming a
    connected graph (single vertex with ne == 0 included)."""
    if nv == 1 and ne == 0:
        yield ()
        return
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    for combo in itertools.combinations_with_replacement(pairs, ne):
        if _component_count(range(nv), combo) == 1:
            yield combo


def enumerate_loc_graphs(model, g, n, beta, delta):
    """All valid fixed-locus graphs with the given total genus, marking
    count, degree, and total covering degree, up to isomorphism."""
    if (
        g > _ENUM_BOUNDS["g"]
        or n > _ENUM_BOUNDS["n"]
        or beta > _ENUM_BOUNDS["beta"]
        or delta > _ENUM_BOUNDS["delta"]
    ):
        raise BoundsExceeded("enumeration caps: g<=2, n<=4, beta<=6, delta<=4")
    if min(g, n, beta, delta) < 0:
        raise ConfigError("negative input")
    epsilon = model.epsilon
    found = {}
    ne_options = range(1, delta + 1) if delta else (0,)
    for ne in ne_options:
        for nv in range(max(1, ne + 1 - g), ne + 2):
            h1 = ne - nv + 1
            genus_budget = g - h1
            if genus_budget < 0:
                continue
            for structure in _connected_structures(nv, ne):
                side = _bipartition(nv, structure)
                if side is None:
                    continue
                delta_opts = list(_compositions(delta, ne, 1))
                # the two level assignments, vertex 0 at level zero first
                for flip in (0, 1):
                    levels = tuple(
                        LEVEL_ZERO if s == flip else LEVEL_INF for s in side
                    )
                    for deltas in delta_opts:
                        for genera in _compositions(genus_budget, nv):
                            for degrees in _compositions(beta, nv):
                                for leg_dist in itertools.product(
                                    range(nv), repeat=n
                                ):
                                    _emit_candidates(
                                        model,
                                        structure,
                                        levels,
                                        deltas,
                                        genera,
                                        degrees,
                                        leg_dist,
                                        n,
                                        epsilon,
                                        found,
                                    )
    return [found[k] for k in sorted(found)]


def _emit_candidates(
    model, structure, levels, deltas, genera, degrees, leg_dist, n, epsilon, found
):
    d = model.d
    nv = len(levels)
    legs_at = {vi: [] for vi in range(nv)}
    for label in range(1, n + 1):
        legs_at[leg_dist[label - 1]].append(label)
    for edge_ms in itertools.product(range(d), repeat=len(structure)):
        edges = []
        he_mults = [[] for _ in range(nv)]
        for (a, b), dd, k in zip(structure, deltas, edge_ms):
            m0, m_inf = Frac(k, d), Frac(-k % d, d)
            # store the level-zero side first
            zero, inf = (a, b) if levels[a] == LEVEL_ZERO else (b, a)
            edges.append(Edge((zero, inf), (m0, m_inf), dd))
            he_mults[zero].append(m0)
            he_mults[inf].append(m_inf)
        per_vertex = []
        for vi in range(nv):
            labels = legs_at[vi]
            g_v, b_v = genera[vi], degrees[vi]
            if not labels:
                if not check_compatibility(model, g_v, b_v, he_mults[vi]):
                    break
                per_vertex.append([()])
                continue
            # the legs both shift the point count and add their own
            # multiplicities, so solve for the last one
            options = []
            for head in itertools.product(range(d), repeat=len(labels) - 1):
                head_m = [Frac(k, d) for k in head]
                last = solve_last_multiplicity(model, g_v, b_v, he_mults[vi] + head_m)
                options.append(tuple(zip(labels, head_m + [last])))
            per_vertex.append(options)
        if len(per_vertex) < nv:  # a legless vertex is not integral
            continue
        for leg_choice in itertools.product(*per_vertex):
            vertices = tuple(
                Vertex(genera[vi], degrees[vi], leg_choice[vi], 0, levels[vi])
                for vi in range(nv)
            )
            graph = LocGraph(vertices, tuple(edges))
            if any(
                classify_vertex(model, graph, vi, epsilon) is None
                for vi in range(nv)
            ):
                continue
            if validate(model, graph):
                continue
            found.setdefault(canonical_key(graph), graph)


# ---------------------------------------------------------------------------
# partial order on decorated triples


def _contract_chosen(graph, subset, chosen, bullet_extra_legs=0):
    """Replace the subgraph (subset, chosen edges) by a single distinguished
    vertex; unchosen edges inside the subset become loops on it.  Extra legs
    on the replacement vertex are a free decoration, so the caller supplies
    the count to compare against."""
    subset = frozenset(subset)
    if _component_count(subset, (graph.edges[ei].ends for ei in chosen)) != 1:
        return None
    h1 = len(chosen) - len(subset) + 1
    genus = h1 + sum(graph.vertices[v].genus for v in subset)
    degree = sum(graph.vertices[v].degree for v in subset)
    legs = tuple(sorted((l, m) for v in subset for l, m in graph.vertices[v].legs))
    merged = Vertex(genus, degree, legs, bullet_extra_legs, None)
    keep = [vi for vi in range(len(graph.vertices)) if vi not in subset]
    remap = {vi: i for i, vi in enumerate(keep)}
    new_index = len(keep)
    vertices = tuple(graph.vertices[vi] for vi in keep) + (merged,)
    edges = []
    for ei, e in enumerate(graph.edges):
        if ei in chosen:
            continue
        ends = tuple(remap.get(x, new_index) for x in e.ends)
        edges.append(Edge(ends, e.mults, e.delta))
    return DualGraph(vertices, tuple(edges), new_index)


def graph_leq(model, a, b):
    """Whether b is obtained from a by replacing a connected subgraph
    containing a's distinguished vertex with b's distinguished vertex."""
    if a.v_bullet is None or b.v_bullet is None:
        raise ConfigError("partial order needs distinguished vertices")
    if total_genus(a) != total_genus(b) or total_degree(a) != total_degree(b):
        return False
    target = canonical_key(b)
    n = len(a.vertices)
    others = [vi for vi in range(n) if vi != a.v_bullet]
    for r in range(len(others) + 1):
        if n - r < len(b.vertices):
            continue
        for extra in itertools.combinations(others, r):
            subset = frozenset(extra) | {a.v_bullet}
            inside = [ei for ei, e in enumerate(a.edges) if set(e.ends) <= subset]
            for pick in range(1 << len(inside)):
                chosen = {inside[i] for i in range(len(inside)) if pick >> i & 1}
                contracted = _contract_chosen(
                    a, subset, chosen, b.vertices[b.v_bullet].extra_legs
                )
                if contracted is None:
                    continue
                if len(contracted.vertices) != len(b.vertices):
                    continue
                if canonical_key(contracted) == target:
                    return True
    return False


def minimal_expansions(model, graph):
    """All triples strictly below the given one that differ by one edge:
    either the distinguished vertex splits in two joined by a new edge, or
    it trades one unit of genus for a loop.  Every strictly descending
    chain refines into such steps, so these generate the order downward."""
    if graph.v_bullet is None:
        raise ConfigError("partial order needs a distinguished vertex")
    vb = graph.v_bullet
    center = graph.vertices[vb]
    out = {}

    def consider(candidate):
        for i in range(len(candidate.vertices)):
            if _vertex_defect(model, candidate, i).denominator != 1:
                return
        if not infinity_stable_graph(model, candidate):
            return
        out.setdefault(canonical_key(candidate), candidate)

    # trade one unit of genus for a loop
    if center.genus >= 1:
        for km in range(model.d):
            m = Frac(km, model.d)
            vertices = list(graph.vertices)
            vertices[vb] = Vertex(
                center.genus - 1, center.degree, center.legs, 0, center.level
            )
            loop = Edge((vb, vb), (m, frac_bracket(-m)), None)
            consider(DualGraph(tuple(vertices), graph.edges + (loop,), vb))
    # split the distinguished vertex in two
    slots = [
        (ei, side)
        for ei, e in enumerate(graph.edges)
        for side in (0, 1)
        if e.ends[side] == vb
    ]
    new_index = len(graph.vertices)
    for g1 in range(center.genus + 1):
        for b1 in range(center.degree + 1):
            for leg_mask in range(1 << len(center.legs)):
                legs1 = tuple(
                    leg for i, leg in enumerate(center.legs) if leg_mask >> i & 1
                )
                legs2 = tuple(
                    leg for i, leg in enumerate(center.legs) if not leg_mask >> i & 1
                )
                for slot_mask in range(1 << len(slots)):
                    stay = [
                        graph.edges[ei].mults[side]
                        for si, (ei, side) in enumerate(slots)
                        if not slot_mask >> si & 1
                    ]
                    # the one new-edge multiplicity at vb that makes vb
                    # integral; the split-off vertex then is too.  Input
                    # multiplicities off the 1/d grid admit no residue.
                    m = solve_last_multiplicity(
                        model, g1, b1, [leg_m for _, leg_m in legs1] + stay
                    )
                    if (m * model.d).denominator != 1:
                        continue
                    for bullet_first in (True, False):
                        bullet_degree = b1 if bullet_first else center.degree - b1
                        if bullet_degree <= 0:
                            continue
                        vertices = list(graph.vertices)
                        vertices[vb] = Vertex(g1, b1, legs1, 0, center.level)
                        vertices.append(
                            Vertex(
                                center.genus - g1,
                                center.degree - b1,
                                legs2,
                                0,
                                center.level,
                            )
                        )
                        edges = list(graph.edges)
                        for si, (ei, side) in enumerate(slots):
                            if slot_mask >> si & 1:
                                e = edges[ei]
                                ends = list(e.ends)
                                ends[side] = new_index
                                edges[ei] = Edge(tuple(ends), e.mults, e.delta)
                        edges.append(Edge((vb, new_index), (m, frac_bracket(-m)), None))
                        consider(
                            DualGraph(
                                tuple(vertices),
                                tuple(edges),
                                vb if bullet_first else new_index,
                            )
                        )
    return list(out.values())


def descending_chains(model, graph, max_len):
    """All strictly decreasing chains from the given triple through minimal
    expansions, as lists of graphs, capped at max_len entries."""
    return [c for c in _chains_from(model, graph, {}) if len(c) <= max_len]


def _chains_from(model, g, memo):
    key = canonical_key(g)
    if key in memo:
        return memo[key]
    memo[key] = [[g]]  # guards against accidental cycles
    all_chains = [[g]]
    for p in minimal_expansions(model, g):
        for sub in _chains_from(model, p, memo):
            all_chains.append([g] + sub)
    memo[key] = all_chains
    return all_chains


# ---------------------------------------------------------------------------
# serialization


def _frac_str(m):
    return str(Frac(m))


def vertex_to_obj(v):
    return {
        "genus": v.genus,
        "degree": v.degree,
        "legs": [[label, _frac_str(m)] for label, m in v.legs],
        "extra_legs": v.extra_legs,
        "level": v.level,
    }


def edge_to_obj(e):
    return {
        "ends": list(e.ends),
        "mults": [_frac_str(e.mults[0]), _frac_str(e.mults[1])],
        "delta": e.delta,
    }


def graph_to_obj(graph):
    obj = {
        "kind": "loc" if isinstance(graph, LocGraph) else "dual",
        "vertices": [vertex_to_obj(v) for v in graph.vertices],
        "edges": [edge_to_obj(e) for e in graph.edges],
    }
    if isinstance(graph, DualGraph):
        obj["v_bullet"] = graph.v_bullet
    return obj


def _read_mult(text, where):
    try:
        return Frac(text)
    except ZeroDivisionError:
        raise ValueError(f"{where} multiplicity {text!r} has a zero denominator") from None


def graph_from_obj(obj):
    vertices = tuple(
        Vertex(
            int(v["genus"]),
            int(v["degree"]),
            tuple(
                (int(l), _read_mult(m, f"vertex {vi} leg {l}")) for l, m in v.get("legs", [])
            ),
            int(v.get("extra_legs", 0)),
            v.get("level"),
        )
        for vi, v in enumerate(obj["vertices"])
    )
    edges = tuple(
        Edge(
            tuple(e["ends"]),
            tuple(_read_mult(e["mults"][s], f"edge {ei} side {s}") for s in (0, 1)),
            e.get("delta"),
        )
        for ei, e in enumerate(obj["edges"])
    )
    nv = len(vertices)
    for ei, e in enumerate(edges):
        if not all(0 <= x < nv for x in e.ends):
            raise ValueError(f"edge {ei} has an endpoint outside vertices 0..{nv - 1}")
    if obj.get("kind") == "loc":
        return LocGraph(vertices, edges)
    bullet = obj.get("v_bullet")
    if bullet is not None and not 0 <= bullet < nv:
        raise ValueError(f"v_bullet {bullet} is outside vertices 0..{nv - 1}")
    return DualGraph(vertices, edges, bullet)
