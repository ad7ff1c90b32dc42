"""Brute-force reference enumeration of fixed-locus graphs.

Everything here is deliberately independent of glsmx.graphs and imports
only the standard library.  Every labelled structure is decorated
exhaustively, the defining rules are re-checked with plain integer
arithmetic (epsilon read as p/q), and isomorphic copies are merged by a
least form: the vertex decorations sorted, and the least sorted edge list
over every vertex order that sorts them, alike vertices in every order.
Only counts are compared against the production enumerator.

The vertex roles are decided once per decoration, before any residue.  The
leg residues of a leg placement are grouped by what they add at each vertex
mod d, so each balanced edge-residue tuple looks up the leg residues that
meet every vertex's congruence instead of scanning them all.
brute_aut_count walks the same decoration-preserving vertex orders.
fraction_degree_factor recomputes the covering-degree factor on Fractions,
by the per-half-edge division that the production code replaced.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Frac


def compositions(total, parts, least=0):
    """Ordered tuples of parts integers, each at least least, summing to
    total, in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(least, total - least * (parts - 1) + 1):
        for tail in compositions(total - head, parts - 1, least):
            yield (head,) + tail


def _connected(nv, pairs):
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(nv)}) == 1


def _alike_orders(keys, vertices):
    """Every vertex order that lists alike vertices (equal keys) as one
    block, the blocks in the order vertices first meets their keys, and
    each block in every order."""
    blocks = {}
    for v in vertices:
        blocks.setdefault(keys[v], []).append(v)
    for parts in itertools.product(*map(itertools.permutations, blocks.values())):
        yield [v for part in parts for v in part]


def _edge_floor(eps, level, gv, bv, nhe, nlegs):
    """The covering degree that every edge at a vertex must exceed, or None
    when the vertex is not allowed; rules spelled out, eps read as p/q.
    Level 0 is zero and level 1 is infinity."""
    special = nhe + nlegs
    if level == 0 and eps is not None:
        stable = eps.numerator * bv + eps.denominator * (2 * gv - 2 + special) > 0
    else:
        stable = bv > 0 or 2 * gv - 2 + special > 0
    if stable:
        return 0
    if gv > 0:
        return None
    if nhe == 1 and nlegs == 0 and bv == 0:
        return 0
    if (
        nhe == 1
        and nlegs == 0
        and bv > 0
        and level == 0
        and eps is not None
        and eps.numerator * bv <= eps.denominator
    ):
        # a basepoint end: its edge must cover more than the order it carries
        return bv
    if nhe == 2 and nlegs == 0 and bv == 0:
        return 0
    if nhe == 1 and nlegs == 1 and bv == 0:
        return 0
    return None


def brute_loc_graphs(d, lg, eps, g, n, beta, delta):
    """All valid fixed-locus graphs up to isomorphism, as a set of least
    forms.

    lg selects the phase rule for the vertex condition; multiplicities are
    handled as integer numerators k of k/d throughout.
    """
    eps = None if eps is None else Frac(eps)
    forms = set()
    for ne in range(1, delta + 1) if delta else (0,):
        for nv in range(1, ne + 2):
            h1 = ne - nv + 1
            if h1 > g:
                continue
            pairs = list(itertools.combinations(range(nv), 2))
            for shape in itertools.combinations_with_replacement(pairs, ne):
                if not _connected(nv, shape):
                    continue
                for levels in itertools.product((0, 1), repeat=nv):
                    if all(levels[a] != levels[b] for a, b in shape):
                        # each edge oriented from its zero end to infinity
                        edges = [(a, b) if levels[a] == 0 else (b, a) for a, b in shape]
                        _decorate(d, lg, eps, g - h1, n, beta, delta, levels, edges, forms)
    return forms


def _decorate(d, lg, eps, gbudget, n, beta, delta, levels, edges, forms):
    nv, ne = len(levels), len(edges)
    valence = [0] * nv
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    for legv in itertools.product(range(nv), repeat=n):
        nlegs = [legv.count(v) for v in range(nv)]
        # the leg residues, keyed by what they add at each vertex mod d
        legs_by_sum = {}
        for legms in itertools.product(range(d), repeat=n):
            sums = [0] * nv
            for v, k in zip(legv, legms):
                sums[v] += k
            legs_by_sum.setdefault(tuple(s % d for s in sums), []).append(legms)
        for gs in compositions(gbudget, nv):
            for bs in compositions(beta, nv):
                floors = [
                    _edge_floor(eps, levels[v], gs[v], bs[v], valence[v], nlegs[v])
                    for v in range(nv)
                ]
                if None in floors:
                    continue
                # what each vertex's residues must add up to, mod d
                need = [
                    2 * gs[v] - 2 - bs[v] + valence[v] + nlegs[v] if lg else 0
                    for v in range(nv)
                ]
                for ds in compositions(delta, ne, 1):
                    if any(
                        dd <= floors[v] for (a, b), dd in zip(edges, ds) for v in (a, b)
                    ):
                        continue
                    # balanced residues: k at the zero end, -k at infinity
                    for ks in itertools.product(range(d), repeat=ne):
                        target = list(need)
                        for (a, b), k in zip(edges, ks):
                            target[a] -= k
                            target[b] += k
                        for legms in legs_by_sum.get(tuple(t % d for t in target), ()):
                            forms.add(
                                _least_form(levels, gs, bs, legv, legms, edges, ds, ks)
                            )


def _least_form(levels, gs, bs, legv, legms, edges, ds, ks):
    nv = len(levels)
    decos = [
        (
            levels[v],
            gs[v],
            bs[v],
            tuple((label, k) for label, (w, k) in enumerate(zip(legv, legms), 1) if w == v),
        )
        for v in range(nv)
    ]
    least = None
    for order in _alike_orders(decos, sorted(range(nv), key=decos.__getitem__)):
        label = [None] * nv
        for i, v in enumerate(order):
            label[v] = i
        form = sorted((label[a], label[b], dd, k) for (a, b), dd, k in zip(edges, ds, ks))
        if least is None or form < least:
            least = form
    return tuple(sorted(decos)), tuple(least)


def brute_aut_count(verts, edges, bullet=None):
    """Automorphisms of a decorated multigraph, counted by brute force.

    verts is a list of hashable vertex decorations; edges is a list of
    (a, b, m_a, m_b, delta) with m_a the multiplicity on a's side.  An
    automorphism is a vertex permutation that keeps every decoration and the
    distinguished vertex, together with a bijection of half-edges that keeps
    edges, their multiplicities and degrees; a loop with equal sides can be
    turned over.  Every vertex permutation within the blocks of alike
    vertices is tried, and every edge bijection is counted by backtracking,
    so nothing here shares code with the production canonical form.
    """
    nv = len(verts)
    keys = [(deco, v == bullet) for v, deco in enumerate(verts)]
    orders = list(_alike_orders(keys, range(nv)))
    total = 0
    for order in orders:
        perm = [None] * nv
        for v, w in zip(orders[0], order):
            perm[v] = w
        total += _edge_bijections(perm, edges, 0, frozenset())
    return total


def _edge_bijections(perm, edges, i, used):
    if i == len(edges):
        return 1
    a, b, ma, mb, dd = edges[i]
    image = (perm[a], perm[b], ma, mb, dd)
    count = 0
    for j, (c, e, mc, me, dj) in enumerate(edges):
        if j in used:
            continue
        # the edge may land on edge j either way round
        ways = ((c, e, mc, me, dj) == image) + ((e, c, me, mc, dj) == image)
        if ways:
            count += ways * _edge_bijections(perm, edges, i + 1, used | {j})
    return count


def fraction_degree_factor(d, aut, mults):
    """The covering-degree factor by Fraction division: |Aut| divided, one
    half-edge at a time, by the isotropy order of each multiplicity in
    mults, each order read off Fraction arithmetic as d / gcd(d*m mod d, d).
    The production route multiplies the orders as ints and builds one
    Fraction; this is the route it replaced."""
    factor = Frac(aut)
    for m in mults:
        k = Frac(m) * d
        if k.denominator != 1:
            raise ValueError(f"multiplicity {m} has denominator not dividing {d}")
        factor /= d // math.gcd(int(k) % d, d)
    return factor
