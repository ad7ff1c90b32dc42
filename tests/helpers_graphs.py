"""Brute-force reference enumeration of fixed-locus graphs.

Everything here is deliberately independent of glsmx.graphs: decorations are
assigned exhaustively, the defining rules are re-checked with plain integer
arithmetic, and isomorphism is delegated to networkx.  Only counts are
compared against the production enumerator.

Representatives are bucketed by an isomorphism invariant (sorted node
attributes plus sorted edge attributes with their end-node attributes), so
networkx only compares candidates inside one bucket.  The invariant never
separates isomorphic graphs, so the counts are those of a full scan.
fraction_degree_factor recomputes the covering-degree factor on Fractions,
by the per-half-edge division that the production code replaced.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction as Frac

import networkx as nx
from networkx.algorithms import isomorphism as nxiso

NODE_MATCH = nxiso.categorical_node_match(
    ["lev", "g", "b", "legs"], [None, None, None, None]
)
EDGE_MATCH = nxiso.categorical_multiedge_match(
    ["dd", "m0", "mi"], [None, None, None]
)


def _tuples_sum(total, parts, minimum=0):
    if parts == 0:
        return [()] if total == 0 else []
    out = []

    def rec(prefix, rem, left):
        if left == 1:
            if rem >= minimum:
                out.append(prefix + (rem,))
            return
        for x in range(minimum, rem - minimum * (left - 1) + 1):
            rec(prefix + (x,), rem - x, left - 1)

    rec((), total, parts)
    return out


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


def _vertex_role_ok(lg, eps, level, gv, bv, nhe, nlegs):
    """(acceptable, is_basepoint_end) for one vertex, rules spelled out."""
    special = nhe + nlegs
    if level == "0" and eps is not None:
        stable = Frac(eps) * bv + 2 * gv - 2 + special > 0
    else:
        stable = bv > 0 or 2 * gv - 2 + special > 0
    if stable:
        return True, False
    if gv > 0:
        return False, False
    if nhe == 1 and nlegs == 0 and bv == 0:
        return True, False
    if (
        nhe == 1
        and nlegs == 0
        and bv > 0
        and level == "0"
        and eps is not None
        and Frac(eps) * bv <= 1
    ):
        return True, True
    if nhe == 2 and nlegs == 0 and bv == 0:
        return True, False
    if nhe == 1 and nlegs == 1 and bv == 0:
        return True, False
    return False, False


def brute_loc_graphs(d, lg, eps, g, n, beta, delta):
    """All valid fixed-locus graphs up to isomorphism, as networkx graphs.

    lg selects the phase rule for the vertex condition; multiplicities are
    handled as integer numerators k of k/d throughout.
    """
    buckets = {}
    ne_range = range(1, delta + 1) if delta else (0,)
    for ne in ne_range:
        for nv in range(1, ne + 2):
            h1 = ne - nv + 1
            if h1 < 0 or h1 > g:
                continue
            pairs_all = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
            for shape in itertools.combinations_with_replacement(pairs_all, ne):
                if not _connected(nv, shape):
                    continue
                for levels in itertools.product(("0", "inf"), repeat=nv):
                    if any(levels[a] == levels[b] for a, b in shape):
                        continue
                    for ems in itertools.product(
                        itertools.product(range(d), repeat=2), repeat=ne
                    ):
                        # node balance: the two half-edge numerators sum to
                        # zero mod d
                        if any((ka + kb) % d for ka, kb in ems):
                            continue
                        _brute_decorations(
                            d, lg, eps, g - h1, n, beta, delta, nv, shape,
                            levels, ems, buckets,
                        )
    return [rep for bucket in buckets.values() for rep in bucket]


def _invariant(G):
    def attrs(v):
        a = G.nodes[v]
        return (a["lev"], a["g"], a["b"], a["legs"])

    nodes = tuple(sorted(attrs(v) for v in G.nodes))
    edges = tuple(
        sorted(
            (e["dd"], e["m0"], e["mi"], tuple(sorted((attrs(u), attrs(v)))))
            for u, v, e in G.edges(data=True)
        )
    )
    return nodes, edges


def _brute_decorations(
    d, lg, eps, gbudget, n, beta, delta, nv, shape, levels, ems, buckets
):
    ne = len(shape)
    he_count = [0] * nv
    for a, b in shape:
        he_count[a] += 1
        he_count[b] += 1
    # numerator sum of half-edge multiplicities per vertex
    he_sum = [0] * nv
    for (a, b), (ka, kb) in zip(shape, ems):
        he_sum[a] += ka
        he_sum[b] += kb
    for ds in _tuples_sum(delta, ne, minimum=1):
        for gs in _tuples_sum(gbudget, nv):
            for bs in _tuples_sum(beta, nv):
                for legv in itertools.product(range(nv), repeat=n):
                    nlegs = [0] * nv
                    for vi in legv:
                        nlegs[vi] += 1
                    ok = True
                    bp_end = [False] * nv
                    for vi in range(nv):
                        good, isbp = _vertex_role_ok(
                            lg, eps, levels[vi], gs[vi], bs[vi],
                            he_count[vi], nlegs[vi],
                        )
                        if not good:
                            ok = False
                            break
                        bp_end[vi] = isbp
                    if not ok:
                        continue
                    # covering degree must exceed the basepoint order it
                    # carries
                    if any(
                        (bp_end[a] and dd <= bs[a]) or (bp_end[b] and dd <= bs[b])
                        for (a, b), dd in zip(shape, ds)
                    ):
                        continue
                    for legms in itertools.product(range(d), repeat=n):
                        leg_sum = [0] * nv
                        for vi, k in zip(legv, legms):
                            leg_sum[vi] += k
                        ok = True
                        for vi in range(nv):
                            total_k = he_sum[vi] + leg_sum[vi]
                            if lg:
                                lhs = -bs[vi] + 2 * gs[vi] - 2 + he_count[vi] + nlegs[vi]
                                if (lhs - total_k) % d:
                                    ok = False
                                    break
                            else:
                                if total_k % d:
                                    ok = False
                                    break
                        if not ok:
                            continue
                        cand = _as_nx(
                            nv, shape, levels, ems, ds, gs, bs, legv, legms
                        )
                        bucket = buckets.setdefault(_invariant(cand), [])
                        if not any(
                            nx.is_isomorphic(
                                cand, r,
                                node_match=NODE_MATCH, edge_match=EDGE_MATCH,
                            )
                            for r in bucket
                        ):
                            bucket.append(cand)


def _as_nx(nv, shape, levels, ems, ds, gs, bs, legv, legms):
    G = nx.MultiGraph()
    legs_at = {vi: [] for vi in range(nv)}
    for label, (vi, k) in enumerate(zip(legv, legms), start=1):
        legs_at[vi].append((label, k))
    for vi in range(nv):
        G.add_node(
            vi,
            lev=levels[vi],
            g=gs[vi],
            b=bs[vi],
            legs=tuple(sorted(legs_at[vi])),
        )
    for (a, b), (ka, kb), dd in zip(shape, ems, ds):
        if levels[a] == "0":
            m0, mi = ka, kb
        else:
            m0, mi = kb, ka
        G.add_edge(a, b, dd=dd, m0=m0, mi=mi)
    return G


def brute_aut_count(verts, edges, bullet=None):
    """Automorphisms of a decorated multigraph, counted by brute force.

    verts is a list of hashable vertex decorations; edges is a list of
    (a, b, m_a, m_b, delta) with m_a the multiplicity on a's side.  An
    automorphism is a vertex permutation that keeps every decoration and the
    distinguished vertex, together with a bijection of half-edges that keeps
    edges, their multiplicities and degrees; a loop with equal sides can be
    turned over.  Every vertex permutation is tried, and every edge bijection
    is counted by backtracking, so nothing here shares code with the
    production canonical form.
    """
    nv = len(verts)
    total = 0
    for perm in itertools.permutations(range(nv)):
        if any(verts[perm[v]] != verts[v] for v in range(nv)):
            continue
        if bullet is not None and perm[bullet] != bullet:
            continue
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
