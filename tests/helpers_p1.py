"""Brute-force oracles for localization on maps to the projective line.

The brute-force sums are independent of glsmx.p1series: they run over labeled
trees (decoded from full Pruefer sequences) and divide by the factorial of
the vertex count instead of canonicalizing up to isomorphism, the engine is
sympy instead of the package's rational-function kernel, and the cotangent
integrals on a component come from the string-equation recursion rather
than a closed form.  The per-tree walk after them shares more with the
package: it sums over the census of glsmx.graphs with aut_degree's
automorphism counts, on the package's kernel, but walks every tree afresh
for each request instead of reading the weight table of glsmx.p1series.
The tail recursion after it is also on the package's kernel: it keeps
every lam power and is keyed by degree budgets, where glsmx.p1series drops
the lam powers and keys its tails by exact degree.  The rewritten values at
the end are the three-point sums by diagonal extraction: they read the
package's tail series, but none of its Lagrange root; the two idempotent
classes of the fixed points, whose rewritten values the package keeps as
its basis, are built here.  The stationary
invariants last use no localization and nothing from glsmx: they come from
the GW/Hurwitz correspondence, over partitions of the degree.
"""

import functools
from fractions import Fraction as Frac
from itertools import product
from math import comb, factorial, prod

import sympy

from glsmx.algebra import (
    LAM as RF_LAM,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    CohClass,
    RatFun,
    TruncSeries,
    series_root_pow,
)
from glsmx.graphs import LEVEL_INF, LEVEL_ZERO, _census, aut_degree
from glsmx.model import GEOMETRIC, GlsmModel
from glsmx.p1series import tree_series_S, tree_series_eps, unit_class

LAM = sympy.Symbol("lam")
ZSYM = sympy.Symbol("z")


def idempotent_zero():
    """Normalized class of the zero fixed point, restricting to (1, 0);
    squares to itself."""
    return CohClass([RF_ZERO, RF_ONE / RF_LAM], PROJLINE)


def idempotent_infinity():
    """Normalized class of the infinity fixed point, restricting to (0, 1);
    squares to itself."""
    return CohClass([RF_ONE, -(RF_ONE / RF_LAM)], PROJLINE)


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
    for graph, _ in _census(POINT_MODEL, 0, n, 0, delta):
        coeff, lam_exp, levels = walk_weight(graph, aut_degree(POINT_MODEL, graph)[0], exps)
        value = RatFun({(lam_exp, 0): coeff})
        for (alpha, _), level in zip(insertions, levels):
            value = value * (
                alpha.restrict_zero() if level == LEVEL_ZERO else alpha.restrict_infinity()
            )
        total = total + value
    return total


# ---------------------------------------------------------------------------
# tails on the kernel, keyed by degree budgets


def _bump(table, key, value):
    table[key] = table.get(key, RF_ZERO) + value


def _far_vertex(t, flags, f):
    # a*prod(d_i)*(a + sum d_i)^(f-3)*t^(2-f): the far vertex of a first edge
    # of degree a = flags[0], with branches of first-edge degrees flags[1:]
    # and f special points
    return RatFun(prod(flags) * Frac(sum(flags)) ** (f - 3)) * t ** (2 - f)


@functools.lru_cache(maxsize=None)
def budget_tail(level, a, budget, at=None):
    """{total degree: weight} of the tails whose first edge leaves `level`
    with degree a, within a covering-degree budget for the whole tail, each
    weight a RatFun with its lam power.  `at` is None for an unmarked tail
    and otherwise the insertion's restrictions (at zero, at infinity), which
    enter each term exactly once."""
    if a > budget:
        return {}
    far = LEVEL_INF if level == LEVEL_ZERO else LEVEL_ZERO
    t = RF_LAM if far == LEVEL_ZERO else -RF_LAM
    head = RatFun(Frac((-1) ** a * a ** (2 * a), factorial(a) ** 2 * a)) / RF_LAM ** (2 * a)
    room = budget - a
    out = {}
    # the marking, if any, on the far vertex, among unmarked side branches
    if at is None:
        on_far, marks = head, 0
    else:
        on_far, marks = head * (at[0] if far == LEVEL_ZERO else at[1]), 1
    for degs, sym, series in _budget_bundles(far, room):
        front = on_far * _far_vertex(t, (a,) + degs, len(degs) + 1 + marks) * sym
        for deg, val in series.items():
            _bump(out, a + deg, front * val)
    if at is None:
        return out
    for b in range(1, room + 1):
        # the marking beyond the far vertex, down a distinguished branch
        down = budget_tail(far, b, room, at)
        for degs, sym, series in _budget_bundles(far, room - b):
            front = head * _far_vertex(t, (a, b) + degs, len(degs) + 2) * sym
            for d1, v1 in down.items():
                for d2, v2 in series.items():
                    if d1 + d2 <= room:
                        _bump(out, a + d1 + d2, front * v1 * v2)
    return out


@functools.lru_cache(maxsize=None)
def _budget_bundles(level, room):
    """Multisets of unmarked side branches leaving `level`, the empty one
    included, as (first-edge degrees, symmetry division, product series)."""
    combos = []
    _degree_multisets(1, room, [], combos)
    out = []
    for degs in combos:
        sym = Frac(1)
        for d in set(degs):
            sym /= factorial(degs.count(d))
        series = {0: RF_ONE}
        for d in degs:
            factor = budget_tail(level, d, room)
            nxt = {}
            for i, u in series.items():
                for j, v in factor.items():
                    if i + j <= room:
                        _bump(nxt, i + j, u * v)
            series = nxt
        out.append((degs, sym, series))
    return tuple(out)


def _degree_multisets(lo, left, chosen, out):
    out.append(tuple(chosen))
    for b in range(lo, left + 1):
        chosen.append(b)
        _degree_multisets(b, left - b, chosen, out)
        chosen.pop()


# ---------------------------------------------------------------------------
# rewritten values from three-point sums, by diagonal extraction


def _transform(series):
    """Factorial transform over the cotangent variable of a tail series:
    {t power: {degree: RatFun}}, z^k mapping to t^k/k!."""
    out = {}
    for d, c in series.coeffs.items():
        for k, part in c.z_parts().items():
            out.setdefault(k, {})[d] = part * Frac(1, factorial(k))
    return out


def _transform_mul(a, b, cap):
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            if ta + tb > cap:
                continue
            slot = out.setdefault(ta + tb, {})
            for ya, u in ca.items():
                for yb, v in cb.items():
                    if ya + yb <= cap:
                        _bump(slot, ya + yb, u * v)
    return out


def three_point_sum(alphas, y_order):
    """Sum over fixed graphs whose marked tails, one per insertion in
    alphas, meet one contracted component at the zero fixed point, dressed
    by any number l of unmarked tails: the t^l slot of the product of the
    marked transforms times the l-th power of the unmarked one, over lam.
    With no insertions it is the dressing alone."""
    factors = {0: {0: RF_ONE}}
    for alpha in alphas:
        factors = _transform_mul(
            factors, _transform(tree_series_S(alpha, y_order, y_order).series), y_order
        )
    eps = _transform(tree_series_eps(y_order, y_order).series)
    coeffs = {}
    for l in range(y_order + 1):
        for d, v in factors.get(l, {}).items():
            _bump(coeffs, d, v)
        if l < y_order:
            factors = _transform_mul(factors, eps, y_order)
    return TruncSeries("y", y_order, {d: v / RF_LAM for d, v in coeffs.items()})


def rewritten_values(alphas, y_order):
    """For each insertion, the three-point sum of it and two units, divided
    by the dressing and by the square of the unit's value, the cube root of
    the normalized triple-unit sum."""
    one = unit_class()
    dressing = three_point_sum((), y_order)
    base = series_root_pow(three_point_sum((one, one, one), y_order) / dressing, Frac(1, 3))
    norm = base * base
    return tuple(three_point_sum((alpha, one, one), y_order) / dressing / norm for alpha in alphas)


# ---------------------------------------------------------------------------
# stationary invariants by the GW/Hurwitz correspondence


def _bernoulli(m):
    """B_m, with B_1 = -1/2."""
    b = [Frac(1)]
    for j in range(1, m + 1):
        b.append(-sum(comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    return b[m]


def _completed_cycle(k, lam):
    """p_k(lam) = sum_i [(lam_i - i + 1/2)^k - (-i + 1/2)^k] + (1 - 2^-k) zeta(-k),
    with zeta(-k) = (-1)^k B_(k+1)/(k+1)."""
    half = Frac(1, 2)
    value = sum((part - i + half) ** k - (half - i) ** k for i, part in enumerate(lam, 1))
    zeta = (-1) ** k * _bernoulli(k + 1) / (k + 1)
    return value + (1 - Frac(1, 2**k)) * zeta


def _partitions(d, top=None):
    if d == 0:
        yield ()
        return
    for head in range(min(d, top or d), 0, -1):
        for tail in _partitions(d - head, head):
            yield (head,) + tail


def _dimension(lam):
    # the hook length formula
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            below = sum(1 for later in lam[i + 1 :] if later > j)
            hooks *= part - j + below
    return factorial(sum(lam)) // hooks


def _disconnected(ks, d):
    """Okounkov-Pandharipande: the stationary invariant of the line with
    insertions tau_k(point), k in ks, in degree d, of possibly disconnected
    domains of every genus, sum over |lam| = d of (dim lam/d!)^2
    prod p_(k+1)(lam)/(k+1)!."""
    total = Frac(0)
    for lam in _partitions(d):
        term = Frac(_dimension(lam), factorial(d)) ** 2
        for k in ks:
            term *= _completed_cycle(k + 1, lam) / factorial(k + 1)
        total += term
    return total


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [(head,)] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [(head,) + blocks[i]] + blocks[i + 1 :]


@functools.lru_cache(maxsize=None)
def _connected(ks, d):
    """The connected invariant of the sorted exponents ks in degree d, at
    the genus the dimension fixes, by inclusion-exclusion over the ways a
    disconnected domain splits: each set partition of the markings, each
    degree per block, and m free components, which can only be unmarked
    degree-one maps of genus zero, weighing 1/m!."""
    twice_genus = sum(ks) - 2 * d + 2
    if twice_genus < 0 or twice_genus % 2 or (d == 0 and len(ks) > 1):
        return Frac(0)
    value = _disconnected(ks, d)
    for blocks in _set_partitions(tuple(range(len(ks)))):
        for m in range(d + 1):
            for degs in weak_compositions(d - m, len(blocks)):
                if m == 0 and len(blocks) == 1:
                    continue  # the connected value itself
                term = Frac(1, factorial(m))
                for block, e in zip(blocks, degs):
                    term *= _connected(tuple(sorted(ks[i] for i in block)), e)
                value -= term
    return value


def stationary_invariant(ks, d):
    """Connected genus-zero invariant of the line in degree d with
    insertions tau_k(point), k in ks, where sum(ks) = 2d - 2, from the
    Hurwitz side alone: partitions, hook lengths and Bernoulli numbers, with
    nothing from glsmx."""
    ks = tuple(sorted(ks))
    if not ks or sum(ks) != 2 * d - 2:
        raise ValueError("stationary genus-zero invariants need sum(ks) = 2d - 2")
    return _connected(ks, d)
