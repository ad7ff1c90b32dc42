"""Genus-zero equivariant localization for stable maps to the projective
line.

Four layers, all over exact rationals: descendant integrals on the moduli of
pointed rational curves, fixed-graph sums for maps to the line, the marked
and unmarked tail series rooted at the zero fixed point, and the rewrite of
the marked tail against pulled-back cotangent classes, which is where the
square-root ratio identity between the two normalized fixed-point values
lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from itertools import product
from math import factorial, prod

from .algebra import (
    LAM,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    Z,
    CohClass,
    RatFun,
    TruncSeries,
    series_root_pow,
)
from .errors import BoundsExceeded, ConfigError, IdentityFailed
from .graphs import (
    LEVEL_INF,
    LEVEL_ZERO,
    Edge,
    LocGraph,
    Vertex,
    _bipartition,
    _compositions,
    aut_degree,
    canonical_key,
)
from .model import GEOMETRIC, GlsmModel

N_CAP = 5
DELTA_CAP = 3
Y_ORDER_CAP = 12
Z_ORDER_CAP = 16

# bookkeeping target for aut_degree: one field of weight one, so every
# isotropy order is 1 and only the automorphism count matters
_POINT_MODEL = GlsmModel((1,), 1, 1, GEOMETRIC)


# ---------------------------------------------------------------------------
# the state space of the line and its two fixed points


def unit_class() -> CohClass:
    return CohClass.unit(PROJLINE)


def hyperplane_class() -> CohClass:
    return CohClass.hyperplane(PROJLINE)


def point_class_zero() -> CohClass:
    """Class of the zero fixed point: restricts to lam at zero, 0 at infinity."""
    return CohClass.hyperplane(PROJLINE)


def point_class_infinity() -> CohClass:
    """Class of the infinity fixed point: restricts to 0 at zero, -lam at infinity."""
    return CohClass([-LAM, RF_ONE], PROJLINE)


def idempotent_zero() -> CohClass:
    """Normalized class of the zero fixed point; squares to itself."""
    return CohClass([RF_ZERO, RF_ONE / LAM], PROJLINE)


def idempotent_infinity() -> CohClass:
    """Normalized class of the infinity fixed point; squares to itself."""
    return CohClass([RF_ONE, -(RF_ONE / LAM)], PROJLINE)


def restrict_at(alpha: CohClass, level: str) -> RatFun:
    if level == LEVEL_ZERO:
        return alpha.restrict_zero()
    if level == LEVEL_INF:
        return alpha.restrict_infinity()
    raise ConfigError(f"unknown fixed point {level!r}")


def _check_insertion(alpha) -> None:
    if not isinstance(alpha, CohClass) or alpha.relation != PROJLINE:
        raise ConfigError("insertions must be classes on the projective line")


def _tangent(level: str) -> RatFun:
    # weight of the torus on the tangent line at the fixed point
    return LAM if level == LEVEL_ZERO else -LAM


def _flip(level: str) -> str:
    return LEVEL_INF if level == LEVEL_ZERO else LEVEL_ZERO


# ---------------------------------------------------------------------------
# descendant integrals on the moduli of pointed rational curves


def psi_integral_genus0(exponents) -> Frac:
    """Integral of a monomial in cotangent-line classes over the moduli of
    genus-zero pointed curves.

    Equals (n-3)!/prod(a_i!) when the exponents fill the dimension and 0
    otherwise.
    """
    exps = tuple(int(a) for a in exponents)
    n = len(exps)
    if n < 3:
        raise ConfigError("need at least three markings at genus zero")
    if any(a < 0 for a in exps):
        raise ConfigError("cotangent exponents must be non-negative")
    if sum(exps) != n - 3:
        return Frac(0)
    out = Frac(factorial(n - 3))
    for a in exps:
        out /= factorial(a)
    return out


# ---------------------------------------------------------------------------
# fixed-graph sums for maps to the line


def _edge_factor(d: int) -> RatFun:
    # reciprocal Euler class of the moving part along a degree-d cover of the
    # line joining the two fixed points
    return RatFun(Frac((-1) ** d * d ** (2 * d), factorial(d) ** 2)) / LAM ** (2 * d)


def _prufer_edges(nv: int, seq) -> tuple:
    deg = [1] * nv
    for s in seq:
        deg[s] += 1
    edges = []
    for s in seq:
        leaf = next(i for i in range(nv) if deg[i] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        deg[leaf] -= 1
        deg[s] -= 1
    a, b = (i for i in range(nv) if deg[i] == 1)
    edges.append((a, b))
    return tuple(edges)


def _tree_shapes(nv: int):
    if nv == 2:
        yield ((0, 1),)
        return
    for seq in product(range(nv), repeat=nv - 2):
        yield _prufer_edges(nv, seq)


def _fixed_graphs(n: int, delta: int) -> list:
    """Fixed-locus trees for n-pointed degree-delta maps, up to isomorphism."""
    seen = {}

    def keep(vertices, edges):
        g = LocGraph(tuple(vertices), tuple(edges))
        key = canonical_key(g)
        if key not in seen:
            seen[key] = g

    if delta == 0:
        legs = tuple((i + 1, Frac(0)) for i in range(n))
        for level in (LEVEL_ZERO, LEVEL_INF):
            keep([Vertex(0, 0, legs, 0, level)], [])
        return list(seen.values())
    for nv in range(2, delta + 2):
        for shape in _tree_shapes(nv):
            side = _bipartition(nv, shape)
            for flip in (0, 1):
                levels = [LEVEL_ZERO if s ^ flip == 0 else LEVEL_INF for s in side]
                for degs in _compositions(delta, len(shape), 1):
                    edges = [
                        Edge(ends, (Frac(0), Frac(0)), d)
                        for ends, d in zip(shape, degs)
                    ]
                    for marks in product(range(nv), repeat=n):
                        vertices = [
                            Vertex(
                                0,
                                0,
                                tuple(
                                    (i + 1, Frac(0))
                                    for i in range(n)
                                    if marks[i] == v
                                ),
                                0,
                                levels[v],
                            )
                            for v in range(nv)
                        ]
                        keep(vertices, edges)
    return list(seen.values())


def _vertex_weight(graph: LocGraph, vi: int, insertions) -> RatFun:
    v = graph.vertices[vi]
    t = _tangent(v.level)
    flag_degrees = []
    for e in graph.edges:
        for end in e.ends:
            if end == vi:
                flag_degrees.append(e.delta)
    marks = [insertions[label - 1] for label, _ in v.legs]
    values = [restrict_at(alpha, v.level) for alpha, _ in marks]
    exps = [k for _, k in marks]
    m = len(flag_degrees) + len(marks)
    if m >= 3:
        # contracted component: one tangent weight per node against one for
        # the component itself, cotangent integral expanded flag by flag
        budget = m - 3 - sum(exps)
        acc = RF_ZERO
        if budget >= 0:
            omegas = [t / RatFun(d) for d in flag_degrees]
            for bs in _compositions(budget, len(omegas), 0):
                term = RatFun(psi_integral_genus0(tuple(bs) + tuple(exps)))
                for om, b in zip(omegas, bs):
                    term = term / om ** (b + 1)
                acc = acc + term
        out = acc * t ** (len(flag_degrees) - 1)
        for val in values:
            out = out * val
        return out
    if len(flag_degrees) == 2:
        om1 = t / RatFun(flag_degrees[0])
        om2 = t / RatFun(flag_degrees[1])
        return t / (om1 + om2)
    if len(flag_degrees) == 1 and len(marks) == 1:
        om = t / RatFun(flag_degrees[0])
        return values[0] * (-om) ** exps[0]
    return t / RatFun(flag_degrees[0])


def p1_graph_sum(n: int, delta: int, insertions) -> RatFun:
    """Equivariant descendant integral over genus-zero n-pointed stable maps
    of degree delta to the line, summed over fixed-locus trees with
    automorphism division via aut_degree.

    insertions: one (class, cotangent exponent) pair per marking.
    """
    if n < 0 or delta < 0:
        raise ConfigError("marking count and degree must be non-negative")
    if n > N_CAP or delta > DELTA_CAP:
        raise BoundsExceeded(f"desk-scale bounds are n <= {N_CAP}, delta <= {DELTA_CAP}")
    pairs = list(insertions)
    if len(pairs) != n:
        raise ConfigError("need exactly one insertion per marking")
    checked = []
    for alpha, k in pairs:
        _check_insertion(alpha)
        k = int(k)
        if k < 0:
            raise ConfigError("cotangent exponents must be non-negative")
        checked.append((alpha, k))
    if delta == 0 and n < 3:
        raise ConfigError("degree zero needs at least three markings")
    total = RF_ZERO
    for graph in _fixed_graphs(n, delta):
        aut, _ = aut_degree(_POINT_MODEL, graph)
        weight = RF_ONE
        for e in graph.edges:
            weight = weight * _edge_factor(e.delta) / RatFun(e.delta)
        for vi in range(len(graph.vertices)):
            weight = weight * _vertex_weight(graph, vi, checked)
            if weight.is_zero():
                break
        total = total + weight / RatFun(aut)
    return total


# ---------------------------------------------------------------------------
# tail series at the zero fixed point


def _bump(table: dict, key, value) -> None:
    table[key] = table.get(key, RF_ZERO) + value


def _dict_mul(a: dict, b: dict, cap: int) -> dict:
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            if i + j <= cap:
                _bump(out, i + j, u * v)
    return out


class _Tails:
    """Memoized localization sums for the trees hanging off a component.

    A tail is keyed by the level its first edge leaves, the degree of that
    edge, and the covering-degree budget left for the whole tail.  Budgets
    shrink strictly along the recursion, which grounds the mutual recursion
    between the two levels.  Values are {total degree: weight} tables and
    include the first edge's own degree.
    """

    def __init__(self, alpha: CohClass | None = None):
        self.alpha = alpha
        self._plain: dict = {}
        self._marked: dict = {}

    def plain_tail(self, level: str, a: int, budget: int) -> dict:
        if a > budget:
            return {}
        key = (level, a, budget)
        got = self._plain.get(key)
        if got is not None:
            return got
        far = _flip(level)
        t = _tangent(far)
        head = _edge_factor(a) / RatFun(a)
        # bare far end of the tail
        out = {a: head * (t / RatFun(a))}
        room = budget - a
        for b in range(1, room + 1):
            # straight through a two-edge point
            joint = head * Frac(a * b, a + b)
            for deg, val in self.plain_tail(far, b, room).items():
                _bump(out, a + deg, joint * val)
        for degs, sym, series in self._bundles(far, room, 2):
            s = len(degs)
            front = (
                head
                * RatFun(a * prod(degs) * (a + sum(degs)) ** (s - 2))
                * t ** (1 - s)
                * sym
            )
            for deg, val in series.items():
                _bump(out, a + deg, front * val)
        self._plain[key] = out
        return out

    def marked_tail(self, level: str, a: int, budget: int) -> dict:
        if a > budget:
            return {}
        key = (level, a, budget)
        got = self._marked.get(key)
        if got is not None:
            return got
        far = _flip(level)
        t = _tangent(far)
        head = _edge_factor(a) / RatFun(a)
        at_far = restrict_at(self.alpha, far)
        # marking sits at the far end of the edge
        out = {}
        _bump(out, a, head * at_far)
        room = budget - a
        for b in range(1, room + 1):
            # marking further down, through a two-edge point
            joint = head * Frac(a * b, a + b)
            for deg, val in self.marked_tail(far, b, room).items():
                _bump(out, a + deg, joint * val)
        for degs, sym, series in self._bundles(far, room, 1):
            # marking on the component where the side branches meet
            s = len(degs)
            front = (
                head
                * at_far
                * RatFun(a * prod(degs) * (a + sum(degs)) ** (s - 1))
                * t ** (-s)
                * sym
            )
            for deg, val in series.items():
                _bump(out, a + deg, front * val)
        for b0 in range(1, room):
            # marking beyond the component, down a distinguished branch
            down = self.marked_tail(far, b0, room)
            if not down:
                continue
            for degs, sym, series in self._bundles(far, room - b0, 1):
                s = len(degs)
                front = (
                    head
                    * RatFun(a * b0 * prod(degs) * (a + b0 + sum(degs)) ** (s - 1))
                    * t ** (-s)
                    * sym
                )
                for d1, v1 in down.items():
                    for d2, v2 in series.items():
                        if d1 + d2 <= room:
                            _bump(out, a + d1 + d2, front * v1 * v2)
        self._marked[key] = out
        return out

    def _bundles(self, level: str, room: int, least: int):
        """Multisets of unmarked side branches, keyed by first-edge degree.

        Yields (degrees, symmetry division, product series); the division by
        repeats implements the sum over unordered branches.
        """
        combos = []
        _degree_multisets(1, room, least, [], combos)
        for degs in combos:
            sym = Frac(1)
            for d in set(degs):
                sym /= factorial(degs.count(d))
            series = {0: RF_ONE}
            for d in degs:
                series = _dict_mul(series, self.plain_tail(level, d, room), room)
            yield degs, sym, series


def _degree_multisets(lo, left, least, chosen, out):
    """Append each nondecreasing extension of chosen (degrees >= lo, sum <= left,
    at least `least` entries) to out, depth first."""
    if len(chosen) >= least:
        out.append(tuple(chosen))
    for b in range(lo, left + 1):
        chosen.append(b)
        _degree_multisets(b, left - b, least, chosen, out)
        chosen.pop()


@dataclass(frozen=True)
class TreeSeries:
    """Series in the covering-degree variable; each coefficient is a rational
    function of lam and a polynomial in z up to z_order."""

    series: TruncSeries
    z_order: int

    @property
    def y_order(self) -> int:
        return self.series.order

    def coeff(self, k: int) -> RatFun:
        return self.series.coeff(k, RF_ZERO)


def _check_orders(y_order: int, z_order: int) -> None:
    if y_order < 0 or z_order < 0:
        raise ConfigError("truncation orders must be non-negative")
    if y_order > Y_ORDER_CAP or z_order > Z_ORDER_CAP:
        raise BoundsExceeded(
            f"truncation caps are y <= {Y_ORDER_CAP}, z <= {Z_ORDER_CAP}"
        )


def _smoothing(a: int, z_order: int) -> RatFun:
    # expansion in z of the reciprocal node-smoothing factor lam/a - z
    out = RF_ZERO
    for k in range(z_order + 1):
        out = out + RatFun(Frac(a) ** (k + 1)) * Z ** k / LAM ** (k + 1)
    return out


def tree_series_S(alpha: CohClass, y_order: int, z_order: int) -> TreeSeries:
    """One-marking tail series at the zero fixed point.

    The empty tail contributes the bare restriction of the insertion; every
    other tail enters through the smoothing of its first node against the
    cotangent variable.
    """
    _check_orders(y_order, z_order)
    _check_insertion(alpha)
    tails = _Tails(alpha)
    coeffs = {0: alpha.restrict_zero()}
    for a in range(1, y_order + 1):
        front = LAM * _smoothing(a, z_order)
        for deg, val in tails.marked_tail(LEVEL_ZERO, a, y_order).items():
            _bump(coeffs, deg, front * val)
    return TreeSeries(TruncSeries("y", y_order, coeffs), z_order)


def tree_series_eps(y_order: int, z_order: int) -> TreeSeries:
    """Unmarked tail series at the zero fixed point; starts at first order."""
    _check_orders(y_order, z_order)
    tails = _Tails()
    coeffs = {}
    for a in range(1, y_order + 1):
        front = LAM * _smoothing(a, z_order)
        for deg, val in tails.plain_tail(LEVEL_ZERO, a, y_order).items():
            _bump(coeffs, deg, front * val)
    return TreeSeries(TruncSeries("y", y_order, coeffs), z_order)


# ---------------------------------------------------------------------------
# rewrite against pulled-back cotangent classes


def _hat(ts: TreeSeries) -> dict:
    """Factorial transform over the cotangent variable: z^k maps to t^k/k!,
    giving {t power: {degree: weight}}."""
    out = {}
    for ydeg, c in ts.series.coeffs.items():
        for k, part in c.z_parts().items():
            slot = out.setdefault(k, {})
            _bump(slot, ydeg, part * Frac(1, factorial(k)))
    return out


def _hat_mul(a: dict, b: dict, cap: int) -> dict:
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


def _comb_collect(factors: dict, eps_hat: dict, y_order: int) -> TruncSeries:
    # sum over the number of unmarked tails l, reading off the t^l slot; the
    # transform turns the cotangent pairing into this diagonal extraction
    cur = factors
    coeffs = {}
    for l in range(y_order + 1):
        for ydeg, v in cur.get(l, {}).items():
            _bump(coeffs, ydeg, v)
        if l < y_order:
            cur = _hat_mul(cur, eps_hat, y_order)
    return TruncSeries("y", y_order, {k: v / LAM for k, v in coeffs.items()})


def comb_three_point(
    alpha1: CohClass, alpha2: CohClass, alpha3: CohClass, y_order: int
) -> TruncSeries:
    """Sum over fixed graphs whose three marked tails meet one contracted
    component at the zero fixed point, dressed by any number of unmarked
    tails."""
    _check_orders(y_order, 0)
    fac = None
    for alpha in (alpha1, alpha2, alpha3):
        h = _hat(tree_series_S(alpha, y_order, y_order))
        fac = h if fac is None else _hat_mul(fac, h, y_order)
    eps_hat = _hat(tree_series_eps(y_order, y_order))
    return _comb_collect(fac, eps_hat, y_order)


def comb_dressing(y_order: int) -> TruncSeries:
    """The unmarked-tail dressing alone, with no marked tails attached."""
    _check_orders(y_order, 0)
    eps_hat = _hat(tree_series_eps(y_order, y_order))
    return _comb_collect({0: {0: RF_ONE}}, eps_hat, y_order)


def stilde_at_zero(alpha: CohClass, y_order: int) -> TruncSeries:
    """Marked-tail value rewritten against pulled-back cotangent classes and
    evaluated at cotangent zero.

    Extracted from three-point sums: the unit value is the cube root of the
    normalized triple-unit sum, and general insertions divide off two unit
    factors.  Linear in the insertion.
    """
    _check_orders(y_order, 0)
    _check_insertion(alpha)
    one = unit_class()
    dressing = comb_dressing(y_order)
    base = series_root_pow(
        comb_three_point(one, one, one, y_order) / dressing, Frac(1, 3)
    )
    return comb_three_point(alpha, one, one, y_order) / dressing / (base * base)


def irr_ratio_check(y_order: int) -> dict:
    """Compare the ratio of the normalized fixed-point tail values with the
    closed square-root expression, order by order.

    Returns the per-order coefficients and their rational multiples of the
    forced lam powers; raises IdentityFailed on the first mismatch.
    """
    _check_orders(y_order, 0)
    ratio = stilde_at_zero(idempotent_infinity(), y_order) / stilde_at_zero(
        idempotent_zero(), y_order
    )
    disc = TruncSeries("y", y_order, {0: RF_ONE, 1: RatFun(4) / LAM ** 2})
    root = series_root_pow(disc, Frac(1, 2))
    one = TruncSeries("y", y_order, {0: RF_ONE})
    target = (one - root) / (one + root)
    coefficients = {}
    multiples = {}
    for k in range(y_order + 1):
        got = ratio.coeff(k, RF_ZERO)
        want = target.coeff(k, RF_ZERO)
        if got != want:
            raise IdentityFailed(f"ratio mismatch at order {k}: {got!r} vs {want!r}")
        coefficients[k] = got
        if k == 0:
            continue
        scaled = (got * LAM ** (2 * k)).as_frac()
        if scaled is None or scaled == 0:
            raise IdentityFailed(
                f"order-{k} coefficient is not a rational multiple of lam^(-{2 * k})"
            )
        multiples[k] = scaled
    return {
        "y_order": y_order,
        "coefficients": coefficients,
        "lambda_multiples": multiples,
    }
