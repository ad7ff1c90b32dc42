"""Decorated dual graphs and torus-fixed-locus graphs: validation,
stability predicates, tail contraction, fixed-graph enumeration,
automorphism and covering-degree factors, and the partial order that
organizes the induction over decorated graphs."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Frac

from .errors import (
    BoundsExceeded,
    ConfigError,
    NotInfinityStable,
)
from .model import (
    bundle_degree_numerator,
    compat_residue,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
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
    by union-find: the count of nodes left as their own roots."""
    parent = {v: v for v in nodes}
    for a, b in links:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    return sum(1 for v, root in parent.items() if v == root)


def _components(graph):
    return _component_count(range(len(graph.vertices)), (e.ends for e in graph.edges))


def first_betti(graph):
    return len(graph.edges) - len(graph.vertices) + _components(graph)


def total_genus(graph):
    return first_betti(graph) + sum(v.genus for v in graph.vertices)


def total_degree(graph):
    return sum(v.degree for v in graph.vertices)


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
    weight = special_points
    if light_markings:
        weight += light_markings * (Frac(light_delta) - 1)
    if epsilon is None:
        if any(o > 0 for o in basepoint_orders):
            return False
        return _stable_at_infinity(genus, degree, weight)
    if type(epsilon) is not Frac:
        epsilon = Frac(epsilon)
    # cross-multiplied by epsilon = p/q, so the weight stays an int unless
    # light markings make it a Fraction
    p, q = epsilon.numerator, epsilon.denominator
    if p <= 0:
        raise ConfigError(f"stability parameter {epsilon} must be positive")
    if any(o * p > q for o in basepoint_orders):
        return False
    return p * degree + (2 * genus - 2 + weight) * q > 0


def _vertex_role(genus, degree, level, he, legs, extra_legs, epsilon):
    """Role of a fixed-locus graph vertex from its counts (he half-edges,
    legs labeled legs): 'stable', or one of the pointlike profiles 'ram'
    (plain ramification point), 'basepoint', 'node', 'marked'; None when no
    consistent role exists."""
    chamber = epsilon if level == LEVEL_ZERO else None
    if epsilon_stable(genus, degree, he + legs, chamber):
        return "stable"
    if genus > 0 or extra_legs:
        return None
    if he == 1 and not legs and degree == 0:
        return "ram"
    if (
        he == 1
        and not legs
        and degree > 0
        and level == LEVEL_ZERO
        and epsilon is not None
        and Frac(epsilon) * degree <= 1
    ):
        return "basepoint"
    if he == 2 and not legs and degree == 0:
        return "node"
    if he == 1 and legs == 1 and degree == 0:
        return "marked"
    return None


# ---------------------------------------------------------------------------
# validation


def validate(model, graph):
    """All invariant violations as human-readable strings; empty iff valid.

    Multiplicities are summed as ints at one scale that holds the 1/d grid
    and every multiplicity of the graph.  A vertex is compatible iff its sum
    meets the scaled gauge-bundle degree (model.bundle_degree_numerator over
    d) mod the scale: the defining rule, not the census's residue rule, so
    this check stays independent of it."""
    out = []
    is_loc = isinstance(graph, LocGraph)
    vertices = graph.vertices
    nv = len(vertices)
    scale = math.lcm(model.d, _scale(graph))
    # per vertex: the scaled multiplicities and the special points of its
    # legs, its extra legs (the phase unit each) and its sides of the edges
    # with both ends in range (both sides of a loop); he counts the
    # half-edges of every edge, as the vertex roles see them
    ks = []
    points = []
    for v in vertices:
        k = 0
        for _, m in v.legs:
            k += _scaled(m, scale)
        if v.extra_legs:
            k += _scaled(model.unit_sector_mult, scale) * v.extra_legs
        ks.append(k)
        points.append(len(v.legs) + v.extra_legs)
    he = [0] * nv
    edge_ks = []  # per edge its scaled sides, None with an end out of range
    for e in graph.edges:
        a, b = e.ends
        if 0 <= a < nv and 0 <= b < nv:
            ka, kb = _scaled(e.mults[0], scale), _scaled(e.mults[1], scale)
            he[a] += 1
            he[b] += 1
            ks[a] += ka
            ks[b] += kb
            points[a] += 1
            points[b] += 1
            edge_ks.append((ka, kb))
        else:
            for end in e.ends:
                if 0 <= end < nv:
                    he[end] += 1
            edge_ks.append(None)
    # the basepoint order of each vertex, 0 for none; a basepoint has no legs,
    # extra legs or positive genus, valence one, level zero, positive degree
    bp_order = [
        v.degree
        if is_loc and n == 1 and v.degree > 0 and v.level == LEVEL_ZERO
        and not (v.genus > 0 or v.legs or v.extra_legs)
        and _vertex_role(v.genus, v.degree, v.level, n, 0, 0, model.epsilon) == "basepoint"
        else 0
        for v, n in zip(vertices, he)
    ]
    for ei, (e, sides) in enumerate(zip(graph.edges, edge_ks)):
        if sides is None:
            out.append(f"edge {ei}: endpoint out of range")
            continue
        if sum(sides) % scale:
            out.append(
                f"edge {ei}: multiplicities {e.mults[0]} + {e.mults[1]} not integral"
            )
        if is_loc:
            if e.delta is None or e.delta < 1:
                out.append(f"edge {ei}: covering degree must be at least 1")
            a, b = e.ends
            if vertices[a].level == vertices[b].level:
                out.append(f"edge {ei}: both ends at level {vertices[a].level}")
            elif e.delta is not None:
                bp = bp_order[a] or bp_order[b]
                if bp and e.delta <= bp:
                    out.append(
                        f"edge {ei}: covering degree {e.delta} not above "
                        f"basepoint order {bp}"
                    )
    for vi, v in enumerate(vertices):
        if is_loc and v.level not in (LEVEL_ZERO, LEVEL_INF):
            out.append(f"vertex {vi}: missing level")
        if v.genus < 0 or v.degree < 0 or v.extra_legs < 0:
            out.append(f"vertex {vi}: negative decoration")
            continue
        gap = bundle_degree_numerator(model, v.genus, points[vi], v.degree) * (scale // model.d)
        gap -= ks[vi]
        if gap % scale:
            out.append(f"vertex {vi}: multiplicity defect {Frac(gap, scale)} not integral")
    if not is_loc and graph.v_bullet is not None:
        if not 0 <= graph.v_bullet < nv:
            out.append("distinguished vertex out of range")
        else:
            vb = vertices[graph.v_bullet]
            if vb.extra_legs:
                out.append("distinguished vertex carries extra legs")
            if vb.degree <= 0:
                out.append("distinguished vertex needs positive degree")
    if nv and None not in edge_ks and _components(graph) != 1:
        out.append("graph not connected")
    labels = [label for v in vertices for label, _ in v.legs]
    if len(labels) != len(set(labels)):
        out.append("duplicate marking labels")
    return out


def infinity_stable_graph(graph):
    """Vertex-wise stability in the infinity chamber, extra legs counted."""
    return first_unstable_vertex(graph, (), None) is None


# ---------------------------------------------------------------------------
# canonical form, isomorphism, automorphisms


# One canonical form on plain tuples of ints (and the level string).  A
# vertex is (genus, degree, extra_legs, level, legs) with the legs as sorted
# (label, k) pairs; an edge is (a, b, k_a, k_b, delta) with k_a on a's side
# and delta 0 for none.  A multiplicity m enters as k = m * scale for one
# scale per graph, so no Fraction is hashed or compared while vertex orders
# are searched.


def _least_form(verts, edges, bullet=None):
    """Least serialization of an int-tuple graph over the vertex orders
    that keep isomorphism-invariant classes together, and the number of
    orders that reach it.  An isomorphism permutes vertices only within a
    class, so the least form is a total invariant, and the orders reaching
    it are a coset of the automorphism group.  Each block of alike vertices
    is searched through _block_orders, which skips the orders that only
    exchange twins.  When every class holds one vertex, as it nearly always
    does, that one order is the only one tried, and when the vertex tuples
    alone are pairwise distinct, it is the order that sorts them."""
    pos = [0] * len(verts)
    if len(set(verts)) == len(verts):
        order = sorted(range(len(verts)), key=verts.__getitem__)
        return _serialize(verts, edges, bullet, order, pos), 1
    incidences = [[] for _ in verts]
    for a, b, ka, kb, dd in edges:
        incidences[a].append((dd, ka, kb, verts[b]))
        incidences[b].append((dd, kb, ka, verts[a]))
    groups = {}
    for vi, (v, inc) in enumerate(zip(verts, incidences)):
        inc.sort()
        groups.setdefault((v, tuple(inc)), []).append(vi)
    if len(groups) == len(verts):
        # every class holds one vertex, so one order reaches the least form
        order = [block[0] for _, block in sorted(groups.items())]
        return _serialize(verts, edges, bullet, order, pos), 1
    block_orders = []
    ways = 1
    for k in sorted(groups):
        block = groups[k]
        if len(block) == 1:
            block_orders.append((block,))
        else:
            orders, twin_ways = _block_orders(block, edges, bullet)
            block_orders.append(orders)
            ways *= twin_ways
    best, ties = None, 0
    for choice in itertools.product(*block_orders):
        order = [vi for block in choice for vi in block]
        form = _serialize(verts, edges, bullet, order, pos)
        if best is None or form < best:
            best, ties = form, 1
        elif form == best:
            ties += 1
    return best, ties * ways


def _serialize(verts, edges, bullet, order, pos):
    """The serialization of an int-tuple graph under a vertex order (old
    vertex ids, new order); pos is a list of its length that the call
    overwrites with each vertex's new position."""
    for new, old in enumerate(order):
        pos[old] = new
    serial = []
    for a, b, ka, kb, dd in edges:
        pa, pb = pos[a], pos[b]
        if pb < pa or (pb == pa and kb < ka):
            serial.append((pb, pa, dd, kb, ka))
        else:
            serial.append((pa, pb, dd, ka, kb))
    serial.sort()
    return (
        tuple([verts[o] for o in order]),
        tuple(serial),
        -1 if bullet is None else pos[bullet],
    )


def _block_orders(block, edges, bullet):
    """The orders of a block of alike vertices that the least form search
    tries, and the number of orders each one stands for.

    Twins are vertices of the block, the bullet aside, with the same
    decorated edges to the same other vertices (so none between them).
    Their loops then agree too, since the block fixes every vertex's
    decorated incidences.  Exchanging two twins is an automorphism that
    leaves every serialization as it was.  So each twin class keeps its
    members in one order, only the distinct arrangements of the classes are
    tried, and each stands for the product of the class sizes'
    factorials."""
    links = {vi: [] for vi in block if vi != bullet}
    for a, b, ka, kb, dd in edges:
        if a == b:
            continue
        if a in links:
            links[a].append((b, dd, ka, kb))
        if b in links:
            links[b].append((a, dd, kb, ka))
    classes = {}
    for vi in block:
        twin_key = None if vi == bullet else tuple(sorted(links[vi]))
        classes.setdefault(twin_key, []).append(vi)
    classes = list(classes.values())
    return _arrangements(classes), math.prod(math.factorial(len(c)) for c in classes)


def _arrangements(classes):
    """The orders of the members of the classes that keep each class in its
    given order: one per distinct sequence of class labels, in lexicographic
    order by the next-permutation step on a multiset."""
    labels = [ci for ci, c in enumerate(classes) for _ in c]
    while True:
        members = [iter(c) for c in classes]
        yield tuple(next(members[ci]) for ci in labels)
        i = len(labels) - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(labels) - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = labels[:i:-1]


def _scaled(m, scale):
    return m.numerator * (scale // m.denominator)


def _scale(graph):
    """The lcm of the denominators of a graph's multiplicities."""
    return math.lcm(
        *[m.denominator for v in graph.vertices for _, m in v.legs],
        *[m.denominator for e in graph.edges for m in e.mults],
    )


def _int_form(graph, scale):
    """(verts, edges) of a graph in the int form at the given scale."""
    verts = [
        (
            v.genus,
            v.degree,
            v.extra_legs,
            v.level or "",
            tuple(sorted((label, _scaled(m, scale)) for label, m in v.legs)),
        )
        for v in graph.vertices
    ]
    edges = [
        (*e.ends, _scaled(e.mults[0], scale), _scaled(e.mults[1], scale), e.delta or 0)
        for e in graph.edges
    ]
    return verts, edges


def canonical_key(graph):
    """Total isomorphism invariant: the least int form, with its scale so
    that multiplicities 1/2 and 1/5 never share a key."""
    scale = _scale(graph)
    verts, edges = _int_form(graph, scale)
    return scale, _least_form(verts, edges, getattr(graph, "v_bullet", None))[0]


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
    verts, edges = _int_form(graph, _scale(graph))
    _, vertex_perms = _least_form(verts, edges, getattr(graph, "v_bullet", None))
    # each vertex automorphism extends to the permutations of identical
    # edges and the turning over of loops with equal sides
    alike = {}
    for a, b, ka, kb, dd in edges:
        k = (min((a, ka), (b, kb)), max((a, ka), (b, kb)), dd)
        alike[k] = alike.get(k, 0) + 1
    edge_ways = math.prod(math.factorial(c) for c in alike.values())
    sym_loops = sum(1 for a, b, ka, kb, _ in edges if a == b and ka == kb)
    aut = vertex_perms * edge_ways * 2**sym_loops
    mults = (graph.edges[ei].mults[side] for ei, side in _degree_half_edges(graph))
    return aut, Frac(aut, math.prod(isotropy_order(model.d, m) for m in mults))


# ---------------------------------------------------------------------------
# contraction of unstable rational tails


def _hosted_orders(basepoints):
    """The orders of the (host, order, mult) basepoints, by host vertex."""
    hosted = {}
    for host, order, _ in basepoints:
        hosted[host] = hosted.get(host, ()) + (order,)
    return hosted


def contraction_pass(model, graph, records, epsilon):
    """One tail contraction if available.  records is a tuple of
    (host, order, mult) basepoint triples indexed in graph.  Returns
    (graph, records, changed)."""
    hosted = _hosted_orders(records)
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


def contract_c(model, graph, epsilon):
    """Iteratively contract unstable rational tails into basepoints on their
    attachment vertices, until no pass contracts further.  Returns the
    contracted graph and its basepoints as sorted (host, order, mult)
    triples."""
    if not infinity_stable_graph(graph):
        raise NotInfinityStable("input graph is not stable in the infinity chamber")
    basepoints, changed = (), True
    while changed:
        graph, basepoints, changed = contraction_pass(model, graph, basepoints, epsilon)
    return graph, tuple(sorted(basepoints))


def first_unstable_vertex(graph, basepoints, epsilon):
    """The first vertex that is not stable for the chamber, or None: the
    state contraction promises.  A vertex counts the orders of the
    basepoints it hosts in its degree, and its extra legs among its special
    points."""
    hosted = _hosted_orders(basepoints)
    for vi, v in enumerate(graph.vertices):
        orders = hosted.get(vi, ())
        special = vertex_valence(graph, vi) + v.extra_legs
        if not epsilon_stable(v.genus, v.degree + sum(orders), special, epsilon, orders):
            return vi
    return None


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
    """Sides 0/1 of the vertices of a graph with vertex 0 on side 0 and
    every edge joining the two sides; None when the graph is disconnected
    or an odd cycle makes that impossible."""
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
    return None if None in side else side


# every (nv, ne) shape a census within _ENUM_BOUNDS reaches: ne <= delta
# edges on at most ne + 1 vertices
@functools.lru_cache(maxsize=(_ENUM_BOUNDS["delta"] + 1) * (_ENUM_BOUNDS["delta"] + 2) // 2)
def _levelled_structures(nv, ne):
    """The connected bipartite structures with their level assignments, one
    per isomorphism class of bare levelled structure: for each multiset of
    ne loop-free edges on nv vertices that _bipartition splits into two
    sides, in combinations_with_replacement order, vertex 0 at level zero
    first, the first met of each class, which is the one that no vertex
    permutation maps to an earlier (structure, flip).  A structure that some permutation maps
    to a smaller edge multiset is skipped with both flips; of the rest, the
    flip-1 assignment is skipped when an automorphism of the structure puts
    vertex 0 at level zero.  Each kept one comes with its fixers: the
    vertex permutations perm, old to new, that keep its edge multiset and
    its levels, as (perm, inverse, moved) with moved the image pair of each
    edge.  The identity is one only on a structure with parallel edges,
    where its image sorts their deltas.  Depends on the shape alone, so it
    is walked once per process and kept as a tuple."""
    out = []
    perms = list(itertools.permutations(range(nv)))
    identity = perms[0]  # permutations() yields the identity first
    pairs = list(itertools.combinations(range(nv), 2))
    for structure in itertools.combinations_with_replacement(pairs, ne):
        sides = _bipartition(nv, structure)
        if sides is None:
            continue
        autos = []  # the permutations that keep the edge multiset
        for perm in perms:
            moved = tuple(tuple(sorted((perm[a], perm[b]))) for a, b in structure)
            image = tuple(sorted(moved))
            if image < structure:
                break
            if image == structure:
                autos.append((perm, moved))
        else:
            parallel = len(set(structure)) < ne
            for flip in (0, 1):
                levels = tuple(LEVEL_ZERO if s == flip else LEVEL_INF for s in sides)
                if flip and any(levels[perm.index(0)] == LEVEL_ZERO for perm, _ in autos):
                    continue
                fixers = tuple(
                    (perm, tuple(sorted(range(nv), key=perm.__getitem__)), moved)
                    for perm, moved in autos
                    if (parallel or perm != identity)
                    and all(levels[perm[vi]] == levels[vi] for vi in range(nv))
                )
                out.append((structure, levels, fixers))
    return tuple(out)


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
    return [graph for graph, _ in _census(model, g, n, beta, delta)]


@functools.lru_cache(maxsize=64)
def _vertex_profiles(model):
    """The census's table of a model's vertex profiles, (genus, degree,
    level, half-edges, legs) -> (role, residue target), which _census hands
    to _emit_candidates and _emit_candidates fills as it meets them.  Each
    entry depends on the model and the counts alone, so the table lives as
    long as the model's cache entry, and the model is hashed once per
    census."""
    return {}


def _census(model, g, n, beta, delta):
    """The graphs of enumerate_loc_graphs, without its caps, each paired
    with the number of vertex orders that reach its least form: the vertex
    part of its automorphism count, and all of it when the graph has no
    parallel edges (a bipartite census has no loops).

    The loops run lexicographically over the prefix (structure, flip,
    deltas, genera, degrees, leg_dist) and then over the residues, and the
    first graph met of each class is kept.  A fixer maps the candidates of
    a prefix one to one onto those of its image, with the same validity and
    keys, so a prefix that a fixer maps to an earlier one only repeats
    classes already met, and is skipped.  The first candidate met of a
    class is never skipped, since its image would come earlier still."""
    found = {}
    profiles = _vertex_profiles(model)
    ne_options = range(1, delta + 1) if delta else (0,)
    for ne in ne_options:
        for nv in range(max(1, ne + 1 - g), ne + 2):
            h1 = ne - nv + 1
            genus_budget = g - h1
            if genus_budget < 0:
                continue
            prefix_parts = (
                list(_compositions(delta, ne, 1)),
                list(_compositions(genus_budget, nv)),
                list(_compositions(beta, nv)),
                list(itertools.product(range(nv), repeat=n)),
            )
            for structure, levels, fixers in _levelled_structures(nv, ne):
                for prefix in itertools.product(*prefix_parts):
                    if _is_least_prefix(prefix, fixers):
                        _emit_candidates(model, structure, levels, *prefix, found, profiles)
    return [found[k] for k in sorted(found)]


def _is_least_prefix(prefix, fixers):
    """Whether no fixer of a levelled structure maps the labelled prefix
    (deltas, genera, degrees, leg_dist) to a lexicographically smaller one.
    Parallel edges are interchangeable, so the image of the deltas sorts
    those of each run of parallel edges."""
    deltas, genera, degrees, leg_dist = prefix
    for perm, inverse, moved in fixers:
        image = (
            tuple(dd for _, dd in sorted(zip(moved, deltas))),
            tuple(genera[old] for old in inverse),
            tuple(degrees[old] for old in inverse),
            tuple(perm[vi] for vi in leg_dist),
        )
        if image < prefix:
            return False
    return True


def _emit_candidates(model, structure, levels, deltas, genera, degrees, leg_dist, found, profiles):
    """Add every valid graph on one decorated structure to found, by its
    least int form at scale d, paired with the number of vertex orders
    that reach that form.  Multiplicities stay residues k of k/d; a residue
    tuple compatible at every vertex is keyed as ints, and the graph is
    built only for a key not seen before.  Each edge-residue tuple builds
    its Edge parts and each vertex's (int tuple, Vertex) options once, from
    _shared_edge and _shared_vertex, so the loop over the legs' residues
    only keys and stores.  Every rule of validate holds by
    construction but two, which depend on the structure alone and are
    decided before the residues: each vertex has a role, and each edge
    covers more than the basepoint order at its level-zero end.  A vertex's
    role and residue target depend on its counts alone, so profiles, the
    model's table of _vertex_profiles, keeps them."""
    d = model.d
    nv = len(levels)
    legs_at = [[] for _ in range(nv)]
    for label, vi in enumerate(leg_dist, start=1):
        legs_at[vi].append(label)
    # each edge stores its level-zero side first: +k there, -k at infinity
    oriented = [(a, b) if levels[a] == LEVEL_ZERO else (b, a) for a, b in structure]
    he = [0] * nv
    for a, b in structure:
        he[a] += 1
        he[b] += 1
    # a role depends on the counts alone, so one test covers every residue
    roles = []
    targets = []
    for vi in range(nv):
        key = (genera[vi], degrees[vi], levels[vi], he[vi], len(legs_at[vi]))
        got = profiles.get(key)
        if got is None:
            got = profiles[key] = (
                _vertex_role(*key, 0, model.epsilon),
                compat_residue(model, key[0], key[3] + key[4], key[1]),
            )
        roles.append(got[0])
        targets.append(got[1])
    if None in roles:
        return
    # a basepoint sits at level zero, so only that end of an edge can be one
    if any(
        roles[zero] == "basepoint" and degrees[zero] >= dd
        for (zero, _), dd in zip(oriented, deltas)
    ):
        return
    # each vertex's options as (int tuple, Vertex): one for a legless
    # vertex, one per leg residue tuple otherwise
    def option(vi, legs):
        g, b, level = genera[vi], degrees[vi], levels[vi]
        return (g, b, 0, level, legs), _shared_vertex(g, b, level, legs, d)

    legless = [not labels for labels in legs_at]
    bare = [[option(vi, ())] if legless[vi] else None for vi in range(nv)]
    for edge_ks, free in _edge_residues(d, oriented, legless, targets):
        if any(free[vi] % d for vi in range(nv) if legless[vi]):
            continue
        # the legs both shift the point count and add their own residues,
        # so the last one takes what the others leave
        per_vertex = [
            bare[vi] or [
                option(vi, tuple(zip(legs_at[vi], head + ((free[vi] - sum(head)) % d,))))
                for head in itertools.product(range(d), repeat=len(legs_at[vi]) - 1)
            ]
            for vi in range(nv)
        ]
        # key in ints at scale d: k -> k/d keeps order, so the keys sort as
        # the Fraction multiplicities would
        int_edges = [
            (zero, inf, k, -k % d, dd) for (zero, inf), dd, k in zip(oriented, deltas, edge_ks)
        ]
        edges = tuple(_shared_edge(e, e[4], d) for e in int_edges)
        for choice in itertools.product(*per_vertex):
            verts, vertices = zip(*choice)
            key, ties = _least_form(verts, int_edges)
            if key not in found:
                found[key] = LocGraph(vertices, edges), ties


def _edge_residues(d, oriented, legless, targets):
    """The edge-residue tuples of one decorated structure, each with what
    it leaves at every vertex for the legs there to carry: the vertex's
    target, less k at the level-zero end of each edge and plus k at the
    other end.  The last edge at a legless vertex takes the one residue
    that leaves a multiple of d there, given the edges before it (an edge
    last at two legless vertices solves the first of them); every other
    edge takes every residue in range(d).  A solved residue depends only on
    earlier ones, so the tuples come in the lexicographic order of the full
    product and drop only tuples that leave some legless vertex off the
    grid; the caller still tests every vertex."""
    closing = [None] * len(oriented)
    for vi, bare in enumerate(legless):
        if bare:
            last = max((ei for ei, ends in enumerate(oriented) if vi in ends), default=None)
            if last is not None and closing[last] is None:
                closing[last] = vi
    for chosen in itertools.product(range(d), repeat=closing.count(None)):
        chosen = iter(chosen)
        free = list(targets)
        edge_ks = []
        for (zero, inf), vi in zip(oriented, closing):
            if vi is None:
                k = next(chosen)
            elif vi == zero:
                k = free[zero] % d
            else:
                k = -free[inf] % d
            free[zero] -= k
            free[inf] += k
            edge_ks.append(k)
        yield edge_ks, free


# Vertex and Edge are frozen, so every census and chain-search graph with
# the same part shares one object.  The keys are ints at a scale
@functools.lru_cache(maxsize=1024)
def _shared_vertex(genus, degree, level, legs, scale):
    """The Vertex with no extra legs and the int (label, k) legs at scale,
    in their order."""
    legs = tuple((label, Frac(k, scale)) for label, k in legs)
    return Vertex(genus, degree, legs, 0, level)


@functools.lru_cache(maxsize=1024)
def _shared_edge(e, delta, scale):
    """The Edge of an int edge tuple at scale with covering degree delta."""
    a, b, ka, kb, _ = e
    return Edge((a, b), (Frac(ka, scale), Frac(kb, scale)), delta)


# ---------------------------------------------------------------------------
# partial order on decorated triples


def _contract_chosen(verts, edges, subset, chosen, bullet_extra_legs):
    """The least form, with its distinguished vertex, of the int-form graph
    with the subgraph (subset, chosen edges) replaced by a single
    distinguished vertex; unchosen edges inside the subset become loops on
    it.  None when the chosen edges leave the subset disconnected.  Extra
    legs on the replacement vertex are a free decoration, so the caller
    supplies the count to compare against."""
    if _component_count(subset, (edges[ei][:2] for ei in chosen)) != 1:
        return None
    genus = len(chosen) - len(subset) + 1 + sum(verts[v][0] for v in subset)
    degree = sum(verts[v][1] for v in subset)
    legs = tuple(sorted(leg for v in subset for leg in verts[v][4]))
    keep = [vi for vi in range(len(verts)) if vi not in subset]
    remap = {vi: i for i, vi in enumerate(keep)}
    merged = len(keep)
    new_verts = [verts[vi] for vi in keep] + [(genus, degree, bullet_extra_legs, "", legs)]
    new_edges = [
        (remap.get(x, merged), remap.get(y, merged), kx, ky, dd)
        for ei, (x, y, kx, ky, dd) in enumerate(edges)
        if ei not in chosen
    ]
    return _least_form(new_verts, new_edges, merged)[0]


def graph_leq(model, a, b):
    """Whether b is obtained from a by replacing a connected subgraph
    containing a's distinguished vertex with b's distinguished vertex.
    Such a subgraph has exactly |V(a)| - |V(b)| other vertices.  Both
    graphs are keyed in the int form at one scale that holds the
    multiplicities of each."""
    if a.v_bullet is None or b.v_bullet is None:
        raise ConfigError("partial order needs distinguished vertices")
    if total_genus(a) != total_genus(b) or total_degree(a) != total_degree(b):
        return False
    r = len(a.vertices) - len(b.vertices)
    if r < 0:
        return False
    scale = math.lcm(_scale(a), _scale(b))
    target = _least_form(*_int_form(b, scale), b.v_bullet)[0]
    verts, edges = _int_form(a, scale)
    extra_legs = b.vertices[b.v_bullet].extra_legs
    others = [vi for vi in range(len(verts)) if vi != a.v_bullet]
    for extra in itertools.combinations(others, r):
        subset = {a.v_bullet, *extra}
        inside = [ei for ei, e in enumerate(edges) if e[0] in subset and e[1] in subset]
        for pick in range(1 << len(inside)):
            chosen = {inside[i] for i in range(len(inside)) if pick >> i & 1}
            if _contract_chosen(verts, edges, subset, chosen, extra_legs) == target:
                return True
    return False


def minimal_expansions(model, graph):
    """All triples strictly below the given one that differ by one edge:
    either the distinguished vertex splits in two joined by a new edge, or
    it trades one unit of genus for a loop.  Every strictly descending
    chain refines into such steps, so these generate the order downward.
    Returned as {least int form at scale lcm(d, _scale(graph)): triple}; a
    step keeps every multiplicity and adds only ones on the 1/d grid, so
    that scale holds for every triple below."""
    scale = math.lcm(model.d, _scale(graph))
    form = _int_form(graph, scale)
    if not _expandable(model, form, scale, graph.v_bullet):
        return {}
    below = _descend(model, graph, form, scale)
    return {key: triple for key, (triple, _) in below.items()}


def _expandable(model, form, scale, vb):
    """Whether a triple in the int form at scale passes the checks made
    before its expansion: every vertex defect is integral, and every vertex
    but the distinguished one vb is stable.

    No step changes either result.  The two sides of a new edge or loop
    sum to an integer, and the halves of vb split its genus, degree and
    markings, so their defects add up to vb's mod 1; the extra legs a step
    drops from vb each add one point and the phase unit, which leaves its
    defect alone.  A step keeps every other vertex, and keeps only halves
    that are stable.  So a chain search checks its top alone.  A defect is
    integral iff the scaled multiplicities sum to scale // d times the
    residue mod scale, and each extra leg carries the phase unit."""
    if vb is None:
        raise ConfigError("partial order needs a distinguished vertex")
    verts, edges = form
    step = scale // model.d
    unit = _scaled(model.unit_sector_mult, scale)
    points = [len(v[4]) + v[2] for v in verts]
    ks = [sum(k for _, k in v[4]) + v[2] * unit for v in verts]
    for a, b, ka, kb, _ in edges:
        points[a] += 1
        points[b] += 1
        ks[a] += ka
        ks[b] += kb
    for vi, (genus, degree, *_) in enumerate(verts):
        if (ks[vi] - step * compat_residue(model, genus, points[vi], degree)) % scale:
            return False
        if vi != vb and not _stable_at_infinity(genus, degree, points[vi]):
            return False
    return True


def _stable_at_infinity(genus, degree, points):
    """epsilon_stable in the infinity chamber, for a vertex with no
    basepoints."""
    return degree > 0 or 2 * genus - 2 + points > 0


def _descend(model, graph, form, scale):
    """The triples one step below graph, in minimal_expansions order, as
    {key: (triple, its int form at scale)}, for a graph that _expandable
    passed and its int form at scale.  A step touches only the
    distinguished vertex and the new edge, so each form below is built
    from this one, and a triple below passes _expandable again.  New
    Vertex and Edge objects come from _shared_vertex and _shared_edge."""
    verts, edges = form
    vb = graph.v_bullet
    center = graph.vertices[vb]
    genus, degree, _, level, legs = verts[vb]
    slots = [(ei, side) for ei, e in enumerate(edges) for side in (0, 1) if e[side] == vb]
    # a genus-0 centre has no genus to trade for a loop, so it is a dead
    # end unless some division of its degree and special points leaves both
    # halves of a split stable
    special = len(legs) + len(slots)
    if not genus and not any(
        _stable_at_infinity(0, b1, n1 + 1)
        and _stable_at_infinity(0, degree - b1, special - n1 + 1)
        for b1 in range(degree + 1)
        for n1 in range(special + 1)
    ):
        return {}
    # candidates are keyed in the int form, and a triple is built only for
    # a key not seen before.  The touched vertices drop their extra legs.
    d = model.d
    step = scale // d
    # the centre's legs as ints, in its order; the form holds them sorted
    center_legs = [(label, _scaled(m, scale)) for label, m in center.legs]
    out = {}

    # trade one unit of genus for a loop
    if genus > 0 and _stable_at_infinity(genus - 1, degree, special + 2):
        loop_verts = list(verts)
        loop_verts[vb] = (genus - 1, degree, 0, level, legs)
        vertices = None
        for km in range(d):
            k = km * step
            loop = (vb, vb, k, -k % scale, 0)
            loop_edges = edges + [loop]
            key = _least_form(loop_verts, loop_edges, vb)[0]
            if key in out:
                continue
            if vertices is None:
                vertices = list(graph.vertices)
                vertices[vb] = _shared_vertex(
                    genus - 1, degree, center.level, tuple(center_legs), scale
                )
                vertices = tuple(vertices)
            loop_edge = _shared_edge(loop, None, scale)
            out[key] = DualGraph(vertices, graph.edges + (loop_edge,), vb), (loop_verts, loop_edges)
    # split the distinguished vertex in two.  The complement split (the
    # other genus, degree, legs and slots) gives the same triples with the
    # halves exchanged, so each split is met once, at whichever of the pair
    # comes first in loop order; that one keys both bullets first.
    new_index = len(verts)
    all_legs, all_slots = (1 << len(center_legs)) - 1, (1 << len(slots)) - 1
    # per leg mask: the legs of each half, sorted as in the form too, and
    # the residue the moved ones carry
    leg_parts = []
    for leg_mask in range(all_legs + 1):
        ones = tuple(leg for i, leg in enumerate(center_legs) if leg_mask >> i & 1)
        twos = tuple(leg for i, leg in enumerate(center_legs) if not leg_mask >> i & 1)
        leg_parts.append((ones, twos, tuple(sorted(ones)), tuple(sorted(twos)),
                          sum(k for _, k in ones)))
    # per slot mask: the slots that move to the new vertex, the residue of
    # those that stay, and the int and Edge lists with the moved ends rewired
    slot_parts = []
    for slot_mask in range(all_slots + 1):
        moved = [s for si, s in enumerate(slots) if slot_mask >> si & 1]
        moved_edges, moved_objs = list(edges), list(graph.edges)
        for ei, side in moved:
            e = list(moved_edges[ei])
            e[side] = new_index
            moved_edges[ei] = tuple(e)
        for ei, _ in moved:
            moved_objs[ei] = _shared_edge(moved_edges[ei], graph.edges[ei].delta, scale)
        kept_k = sum(edges[ei][2 + s] for ei, s in slots if (ei, s) not in moved)
        slot_parts.append((len(moved), kept_k, moved_edges, moved_objs))
    for g1 in range(genus + 1):
        for b1 in range(degree + 1):
            g2, b2 = genus - g1, degree - b1
            for leg_mask, (ones, twos, legs1, legs2, ones_k) in enumerate(leg_parts):
                for slot_mask, (n_moved, kept_k, moved_edges, moved_objs) in enumerate(slot_parts):
                    split = (g1, b1, leg_mask, slot_mask)
                    if (g2, b2, all_legs ^ leg_mask, all_slots ^ slot_mask) < split:
                        continue  # met as its complement
                    # special points of the two halves, new edge included
                    n1 = len(ones) + len(slots) - n_moved + 1
                    n2 = len(twos) + n_moved + 1
                    if not (_stable_at_infinity(g1, b1, n1) and _stable_at_infinity(g2, b2, n2)):
                        continue
                    # the one new-edge residue at vb that makes vb integral;
                    # the split-off vertex then is too.  Input multiplicities
                    # off the 1/d grid admit no residue.
                    k = (step * compat_residue(model, g1, n1, b1) - ones_k - kept_k) % scale
                    if k % step:
                        continue
                    split_verts = list(verts)
                    split_verts[vb] = (g1, b1, 0, level, legs1)
                    split_verts.append((g2, b2, 0, level, legs2))
                    split_edges = moved_edges + [(vb, new_index, k, -k % scale, 0)]
                    for bullet, bullet_degree in ((vb, b1), (new_index, b2)):
                        if bullet_degree <= 0:
                            continue
                        key = _least_form(split_verts, split_edges, bullet)[0]
                        if key in out:
                            continue
                        vertices = list(graph.vertices)
                        vertices[vb] = _shared_vertex(g1, b1, center.level, ones, scale)
                        vertices.append(_shared_vertex(g2, b2, center.level, twos, scale))
                        new_edges = moved_objs + [_shared_edge(split_edges[-1], None, scale)]
                        out[key] = (
                            DualGraph(tuple(vertices), tuple(new_edges), bullet),
                            (split_verts, split_edges),
                        )
    return out


def descending_chains(model, graph, max_len):
    """All strictly decreasing chains from the given triple through minimal
    expansions, as lists of graphs, capped at max_len entries.  The top is
    scaled, put in the int form and checked once (a top that fails the
    checks has no chain below it); every triple below is expanded from the
    int form its parent's step built, at the top's scale."""
    scale = math.lcm(model.d, _scale(graph))
    form = _int_form(graph, scale)
    if _expandable(model, form, scale, graph.v_bullet):
        key = _least_form(*form, graph.v_bullet)[0]
        chains = _chains_from(model, graph, form, key, {}, scale)
    else:
        chains = [[graph]]
    return [c for c in chains if len(c) <= max_len]


def _chains_from(model, g, form, key, memo, scale):
    """The chains from g, memoised on the keys of _descend, at the search's
    scale."""
    if key in memo:
        return memo[key]
    memo[key] = [[g]]  # guards against accidental cycles
    all_chains = [[g]]
    for p_key, (p, p_form) in _descend(model, g, form, scale).items():
        for sub in _chains_from(model, p, p_form, p_key, memo, scale):
            all_chains.append([g] + sub)
    memo[key] = all_chains
    return all_chains


# ---------------------------------------------------------------------------
# serialization


def vertex_to_obj(v):
    return {
        "genus": v.genus,
        "degree": v.degree,
        "legs": [[label, str(m)] for label, m in v.legs],
        "extra_legs": v.extra_legs,
        "level": v.level,
    }


def edge_to_obj(e):
    return {
        "ends": list(e.ends),
        "mults": [str(e.mults[0]), str(e.mults[1])],
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


# Fraction of an int or a 'p/q' string, whose parser is Fraction's slow
# path; report inputs repeat the same few.  Errors are not cached.  A decimal
# exponent is refused before Fraction reads it: "1e1000000" would build a
# 3.3-million-bit integer, and the str() of a value past 4,300 digits raises
@functools.lru_cache(maxsize=1024)
def _read_frac(value):
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent in {value!r}")
    return Frac(value)


def _read_mult(value, where):
    """A multiplicity as given, once it reads as an int or a 'p/q' string;
    bool, float, a string that is no rational and the rest are refused, not
    cast."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            _read_frac(value)
            return value
        except ZeroDivisionError:
            raise ValueError(f"{where} multiplicity {value!r} has a zero denominator") from None
        except ValueError:
            pass
    raise ValueError(f"{where} multiplicity {value!r} is not an integer or a 'p/q' string")


# Vertex and Edge are frozen, so graphs read from equal fields share them.
# The keys hold multiplicities as given: hashing a Fraction costs more than
# building it from a cached parse
@functools.lru_cache(maxsize=1024)
def _vertex(genus, degree, legs, extra_legs, level):
    legs = tuple((label, _read_frac(m)) for label, m in legs)
    return Vertex(genus, degree, legs, extra_legs, level)


@functools.lru_cache(maxsize=1024)
def _edge(ends, mults, delta):
    return Edge(ends, tuple(map(_read_frac, mults)), delta)


def _read_int(value, what, nullable=False):
    """An int field as given: bool, float and str are refused, not cast."""
    if (nullable and value is None) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} {value!r} is not an integer" + (" or null" if nullable else ""))


def _read_record(value, where):
    """A JSON object as given; a list or anything else is refused."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} {value!r} is not an object")
    return value


def _read_field(record, name, where):
    if name not in record:
        raise ValueError(f"{where} has no {name!r} field")
    return record[name]


def _read_list(value, what, length=None, shape="are not a list"):
    """A list (or tuple) as given, of the given length when one is set."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ValueError(f"{what} {value!r} {shape}")
    return value


def _read_level(value, where):
    if value in (None, LEVEL_ZERO, LEVEL_INF):
        return value
    raise ValueError(
        f"{where} level {value!r} is not null, {LEVEL_ZERO!r} or {LEVEL_INF!r}"
    )


def _read_vertex(value, where):
    v = _read_record(value, where)
    genus = _read_int(_read_field(v, "genus", where), f"{where} genus")
    degree = _read_int(_read_field(v, "degree", where), f"{where} degree")
    legs = []
    for leg in _read_list(v.get("legs", []), f"{where} legs"):
        label, m = _read_list(leg, f"{where} leg", 2, "is not a [label, multiplicity] pair")
        label = _read_int(label, f"{where} leg label")
        legs.append((label, _read_mult(m, f"{where} leg {label}")))
    extra_legs = _read_int(v.get("extra_legs", 0), f"{where} extra_legs")
    return _vertex(genus, degree, tuple(legs), extra_legs, _read_level(v.get("level"), where))


def _read_edge(value, where):
    e = _read_record(value, where)
    a, b = _read_list(
        _read_field(e, "ends", where), f"{where} ends", 2, "are not a pair of vertex indices"
    )
    ends = (_read_int(a, f"{where} end"), _read_int(b, f"{where} end"))
    m0, m1 = _read_list(
        _read_field(e, "mults", where), f"{where} mults", 2, "are not a pair of multiplicities"
    )
    mults = (_read_mult(m0, f"{where} side 0"), _read_mult(m1, f"{where} side 1"))
    delta = _read_int(e.get("delta"), f"{where} covering degree", nullable=True)
    return _edge(ends, mults, delta)


def graph_from_obj(obj):
    """A graph from its JSON object.  Malformed input raises ValueError
    naming the vertex or edge and the field it could not read."""
    obj = _read_record(obj, "graph")
    vertices = tuple(
        _read_vertex(v, f"vertex {vi}")
        for vi, v in enumerate(_read_list(_read_field(obj, "vertices", "graph"), "vertices"))
    )
    edges = tuple(
        _read_edge(e, f"edge {ei}")
        for ei, e in enumerate(_read_list(_read_field(obj, "edges", "graph"), "edges"))
    )
    nv = len(vertices)
    for ei, e in enumerate(edges):
        if not all(0 <= x < nv for x in e.ends):
            raise ValueError(f"edge {ei} has an endpoint outside vertices 0..{nv - 1}")
    if obj.get("kind") == "loc":
        return LocGraph(vertices, edges)
    bullet = _read_int(obj.get("v_bullet"), "v_bullet", nullable=True)
    if bullet is not None and not 0 <= bullet < nv:
        raise ValueError(f"v_bullet {bullet} is outside vertices 0..{nv - 1}")
    return DualGraph(vertices, edges, bullet)
