"""Brute-force oracles for localization on maps to the projective line.

Everything here is independent of glsmx.p1series: sums run over labeled
trees (decoded from full Pruefer sequences) and divide by the factorial of
the vertex count instead of canonicalizing up to isomorphism, the engine is
sympy instead of the package's rational-function kernel, and the cotangent
integrals on a component come from the string-equation recursion rather
than a closed form.  The per-tree walk at the end shares more with the
package: it sums over the census of glsmx.graphs with aut_degree's
automorphism counts, on the package's kernel, but walks every tree afresh
for each request instead of reading the weight table of glsmx.p1series.
"""

from fractions import Fraction as Frac
from itertools import product
from math import factorial

import sympy

from glsmx.algebra import RF_ZERO, RatFun
from glsmx.graphs import LEVEL_ZERO, _enumerate_loc_graphs, aut_degree
from glsmx.model import GEOMETRIC, GlsmModel

LAM = sympy.Symbol("lam")
ZSYM = sympy.Symbol("z")


def psi_int_recursive(exps):
    """Cotangent-monomial integral on genus-zero pointed curves, computed by
    repeatedly trading a marking with exponent zero for decrements of the
    others."""
    exps = tuple(int(a) for a in exps)
    n = len(exps)
    assert n >= 3
    if sum(exps) != n - 3:
        return Frac(0)
    if n == 3:
        return Frac(1)
    i = exps.index(0)
    rest = exps[:i] + exps[i + 1 :]
    total = Frac(0)
    for j, a in enumerate(rest):
        if a > 0:
            total += psi_int_recursive(rest[:j] + (a - 1,) + rest[j + 1 :])
    return total


def prufer_edges(nv, seq):
    deg = [1] * nv
    for s in seq:
        deg[s] += 1
    edges = []
    for s in seq:
        leaf = next(i for i in range(nv) if deg[i] == 1)
        edges.append((leaf, s))
        deg[leaf] -= 1
        deg[s] -= 1
    a, b = (i for i in range(nv) if deg[i] == 1)
    edges.append((a, b))
    return edges


def labeled_trees(nv):
    if nv == 2:
        yield [(0, 1)]
        return
    for seq in product(range(nv), repeat=nv - 2):
        yield prufer_edges(nv, seq)


def two_coloring(nv, edges):
    adj = {i: [] for i in range(nv)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    col = [None] * nv
    col[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if col[w] is None:
                col[w] = 1 - col[v]
                stack.append(w)
    return col


def compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(1, total - parts + 2):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def weak_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def vertex_weight(tangent, omegas, marks):
    """Weight of one fixed-locus vertex; marks are (restricted value,
    cotangent exponent) pairs."""
    m = len(omegas) + len(marks)
    if m >= 3:
        budget = m - 3 - sum(k for _, k in marks)
        if budget < 0:
            return sympy.Integer(0)
        tot = sympy.Integer(0)
        for bs in weak_compositions(budget, len(omegas)):
            coef = psi_int_recursive(tuple(bs) + tuple(k for _, k in marks))
            term = sympy.Rational(coef.numerator, coef.denominator)
            for om, b in zip(omegas, bs):
                term /= om ** (b + 1)
            tot += term
        out = tot * tangent ** (len(omegas) - 1)
        for r, _ in marks:
            out *= r
        return out
    if len(omegas) == 2:
        return tangent / (omegas[0] + omegas[1])
    if len(omegas) == 1 and len(marks) == 1:
        r, k = marks[0]
        return r * (-omegas[0]) ** k
    return omegas[0]


def brute_p1(n, delta, insertions):
    """Labeled-tree localization sum; insertions are (value at the zero
    fixed point, value at infinity, cotangent exponent) triples in sympy."""
    total = sympy.Integer(0)
    if delta == 0:
        for tangent, pick in ((LAM, 0), (-LAM, 1)):
            marks = [(ins[pick], ins[2]) for ins in insertions]
            total += vertex_weight(tangent, [], marks)
        return sympy.cancel(total)
    for nv in range(2, delta + 2):
        ne = nv - 1
        subtotal = sympy.Integer(0)
        for edges in labeled_trees(nv):
            col = two_coloring(nv, edges)
            for flip in (0, 1):
                lev = [c ^ flip for c in col]
                for degs in compositions(delta, ne):
                    for marks in product(range(nv), repeat=n):
                        w = sympy.Integer(1)
                        for (a, b), d in zip(edges, degs):
                            w *= sympy.Rational(
                                (-1) ** d * d ** (2 * d), factorial(d) ** 2 * d
                            ) / LAM ** (2 * d)
                        for v in range(nv):
                            tangent = LAM if lev[v] == 0 else -LAM
                            omegas = [
                                tangent / d
                                for (a, b), d in zip(edges, degs)
                                if v in (a, b)
                            ]
                            mk = [
                                (insertions[i][lev[v]], insertions[i][2])
                                for i in range(n)
                                if marks[i] == v
                            ]
                            w *= vertex_weight(tangent, omegas, mk)
                        subtotal += w
        total += subtotal / factorial(nv)
    return sympy.cancel(total)


def ratfun_to_sympy(f):
    """Convert the package's rational functions to sympy for comparison."""

    def side(poly):
        tot = sympy.Integer(0)
        for (i, j), v in poly.items():
            tot += sympy.Rational(v.numerator, v.denominator) * LAM ** i * ZSYM ** j
        return tot

    return side(f.num) / side(f.den)


# ---------------------------------------------------------------------------
# the per-tree walk: the package's census, walked afresh for every request

# one field of weight one and d = 1: the point model whose genus-zero,
# degree-zero fixed loci are the fixed loci of maps to the line
POINT_MODEL = GlsmModel((1,), 1, 1, GEOMETRIC)


def walk_weight(graph, aut, exps):
    """A fixed graph's weight over its automorphisms, less the insertions, as
    (rational, lam exponent, fixed point of each marking), walked edge by
    edge and vertex by vertex.  Each vertex has tangent weight t = sign*lam
    and each flag of degree d the weight omega = t/d."""
    coeff = Frac(1, aut)
    lam_exp = 0
    for e in graph.edges:
        d = e.delta
        coeff *= Frac((-1) ** d * d ** (2 * d), factorial(d) ** 2 * d)
        lam_exp -= 2 * d
    levels = [None] * len(exps)
    for vi, v in enumerate(graph.vertices):
        sign = 1 if v.level == LEVEL_ZERO else -1
        degs = [e.delta for e in graph.edges if vi in e.ends]
        ks = tuple(exps[label - 1] for label, _ in v.legs)
        for label, _ in v.legs:
            levels[label - 1] = v.level
        f = len(degs)
        if f + len(ks) >= 3:
            # sum of cotangent integrals over prod omega^(b+1), times t^(f-1)
            budget = f + len(ks) - 3 - sum(ks)
            acc = Frac(0)
            for bs in weak_compositions(budget, f):
                term = psi_int_recursive(bs + ks)
                for d, b in zip(degs, bs):
                    term *= (sign * d) ** (b + 1)
                acc += term
            coeff *= acc * sign ** (f + 1)
            lam_exp -= budget + 1
        elif f == 2:  # t/(omega1 + omega2)
            coeff *= Frac(degs[0] * degs[1], degs[0] + degs[1])
        elif ks:  # (-omega)^k at a marked leaf
            coeff *= Frac(-sign, degs[0]) ** ks[0]
            lam_exp += ks[0]
        else:  # t/d at a bare leaf
            coeff *= Frac(sign, degs[0])
            lam_exp += 1
    return coeff, lam_exp, tuple(levels)


def walk_graph_sum(n, delta, insertions):
    """The fixed-graph sum with every tree of the package's census walked
    for this request alone, divided by aut_degree's automorphism count;
    insertions are (class on the line, cotangent exponent) pairs."""
    exps = [k for _, k in insertions]
    total = RF_ZERO
    for graph in _enumerate_loc_graphs(POINT_MODEL, 0, n, 0, delta):
        coeff, lam_exp, levels = walk_weight(graph, aut_degree(POINT_MODEL, graph)[0], exps)
        value = RatFun({(lam_exp, 0): coeff})
        for (alpha, _), level in zip(insertions, levels):
            value = value * (
                alpha.restrict_zero() if level == LEVEL_ZERO else alpha.restrict_infinity()
            )
        total = total + value
    return total
