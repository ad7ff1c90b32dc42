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

import functools
from dataclasses import dataclass
from fractions import Fraction as Frac
from math import factorial, prod
from typing import NamedTuple

from .algebra import (
    LAM,
    PROJLINE,
    RF_ONE,
    RF_ZERO,
    CohClass,
    RatFun,
    TruncSeries,
    series_root_pow,
)
from .errors import BoundsExceeded, ConfigError, IdentityFailed
from .graphs import LEVEL_INF, LEVEL_ZERO, LocGraph, _census, _compositions
from .model import GEOMETRIC, GlsmModel

N_CAP = 5
DELTA_CAP = 3
Y_ORDER_CAP = 12
Z_ORDER_CAP = 16

# the census model whose genus-zero, degree-zero fixed loci are the fixed
# loci of maps to the line: one field of weight one and d = 1, so every
# multiplicity is 0 and every isotropy order is 1
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
    return Frac(factorial(n - 3), prod(factorial(a) for a in exps))


# ---------------------------------------------------------------------------
# fixed-graph sums for maps to the line


def _edge_coefficient(d: int) -> Frac:
    # _edge_factor(d) over lam^(-2d)
    return Frac((-1) ** d * d ** (2 * d), factorial(d) ** 2)


def _edge_factor(d: int) -> RatFun:
    # reciprocal Euler class of the moving part along a degree-d cover of the
    # line joining the two fixed points
    return RatFun(_edge_coefficient(d)) / LAM ** (2 * d)


def _vertex_factor(sign: int, degs: tuple, ks: tuple) -> tuple:
    """Weight of one vertex of a fixed graph, less the insertions, as
    (rational, lam exponent): tangent weight t = sign*lam, one flag of
    weight omega = t/d for each degree d in degs, and one marking for each
    cotangent exponent in ks.  Every factor is a rational multiple of a lam
    power."""
    f = len(degs)
    if f + len(ks) >= 3:
        # contracted component: sum of psi integrals over prod omega^(b+1)
        # (each term lam^-(budget+f)), times t^(f-1) for its nodes; the
        # sum is empty when the exponents overfill the dimension
        budget = f + len(ks) - 3 - sum(ks)
        acc = 0
        for bs in _compositions(budget, f, 0):
            term = psi_integral_genus0(bs + ks)
            for d, b in zip(degs, bs):
                term *= (sign * d) ** (b + 1)
            acc += term
        # sign^(f+1) is sign^(f-1), and stays an int when f = 0
        return acc * sign ** (f + 1), -budget - 1
    if f == 2:  # t/(omega1 + omega2)
        return Frac(degs[0] * degs[1], degs[0] + degs[1]), 0
    if ks:  # (-omega)^k at a marked leaf
        return Frac(-sign, degs[0]) ** ks[0], ks[0]
    return Frac(sign, degs[0]), 1  # t/d at a bare leaf


class _Tree(NamedTuple):
    """One fixed-locus tree in a weight table: the part of its weight that
    no insertion changes, as coeff times lam^lam_exp (its edges over their
    degrees, 1/|Aut| and every unmarked vertex), the fixed point of each
    marking, and the profile index of each marked vertex."""

    graph: LocGraph
    coeff: Frac
    lam_exp: int
    levels: tuple
    marked: tuple


@functools.lru_cache(maxsize=None)
def _fixed_graphs(n: int, delta: int) -> tuple:
    """Weight table of the fixed-locus trees for n-pointed degree-delta
    maps, up to isomorphism: the census of the point model at genus zero
    and degree zero.  Returns (profiles, trees): the distinct marked-vertex
    profiles (sign, sorted flag degrees, leg labels), whose factors are all
    that the cotangent exponents change, and one _Tree per tree.  The
    census is bipartite, and at genus zero its graphs are trees, so they
    have no loops or parallel edges and its tie count is |Aut|.  The caps
    on n and delta bound the cache."""
    profiles = {}
    trees = []
    for graph, aut in _census(_POINT_MODEL, 0, n, 0, delta):
        coeff, lam_exp = Frac(1, aut), 0
        for e in graph.edges:
            coeff *= _edge_coefficient(e.delta) / e.delta
            lam_exp -= 2 * e.delta
        levels = [None] * n
        marked = []
        for vi, v in enumerate(graph.vertices):
            sign = 1 if v.level == LEVEL_ZERO else -1
            degs = tuple(sorted(e.delta for e in graph.edges if vi in e.ends))
            if v.legs:
                labels = tuple(label for label, _ in v.legs)
                for label in labels:
                    levels[label - 1] = v.level
                marked.append(profiles.setdefault((sign, degs, labels), len(profiles)))
            else:
                c, k = _vertex_factor(sign, degs, ())
                coeff *= c
                lam_exp += k
        trees.append(_Tree(graph, coeff, lam_exp, tuple(levels), tuple(marked)))
    return tuple(profiles), tuple(trees)


def p1_graph_sum(n: int, delta: int, insertions) -> RatFun:
    """Equivariant descendant integral over genus-zero n-pointed stable maps
    of degree delta to the line, summed over fixed-locus trees with
    automorphism division.  Each marked-vertex profile of the weight table
    is evaluated once for the cotangent exponents, and graph weights add up
    in one Laurent polynomial in lam per placement of the markings on the
    fixed points; the insertions' restrictions enter once per placement.

    insertions: one (class, cotangent exponent) pair per marking.
    """
    if n < 0 or delta < 0:
        raise ConfigError("marking count and degree must be non-negative")
    if n > N_CAP or delta > DELTA_CAP:
        raise BoundsExceeded(f"desk-scale bounds are n <= {N_CAP}, delta <= {DELTA_CAP}")
    pairs = list(insertions)
    if len(pairs) != n:
        raise ConfigError("need exactly one insertion per marking")
    for alpha, k in pairs:
        _check_insertion(alpha)
        if int(k) < 0:
            raise ConfigError("cotangent exponents must be non-negative")
    if delta == 0 and n < 3:
        raise ConfigError("degree zero needs at least three markings")
    exps = [int(k) for _, k in pairs]
    at = [{lv: restrict_at(alpha, lv) for lv in (LEVEL_ZERO, LEVEL_INF)} for alpha, _ in pairs]
    profiles, trees = _fixed_graphs(n, delta)
    factors = [
        _vertex_factor(sign, degs, tuple(exps[label - 1] for label in labels))
        for sign, degs, labels in profiles
    ]
    placements = {}
    for tree in trees:
        coeff, lam_exp = tree.coeff, tree.lam_exp
        for i in tree.marked:
            c, k = factors[i]
            if not c:
                break
            coeff *= c
            lam_exp += k
        else:
            poly = placements.setdefault(tree.levels, {})
            poly[lam_exp, 0] = poly.get((lam_exp, 0), 0) + coeff
    total = RF_ZERO
    for levels, poly in placements.items():
        total = total + prod((table[lv] for table, lv in zip(at, levels)), start=RatFun(poly))
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


def _far_weight(t: RatFun, flags, f: int) -> RatFun:
    """Weight of the far vertex of a tail's first edge, at tangent weight t,
    whose edges have degrees `flags` (the first edge's degree a, then the
    first-edge degrees d_i of the branches) and which holds f special points:
    its edges, plus one when the marking sits on it.  The cotangent
    integrals sum to a*prod(d_i)*(a+sum(d_i))^(f-3)*t^(2-f), which is also
    t/a at a bare leaf, ab/(a+b) at a two-edge point and 1 at a marked leaf."""
    return RatFun(prod(flags) * Frac(sum(flags)) ** (f - 3)) * t ** (2 - f)


@functools.lru_cache(maxsize=None)
def _tail(level: str, a: int, budget: int, at=None) -> dict:
    """Tail whose first edge leaves `level` with degree a, within a
    covering-degree budget for the whole tail: a {total degree: weight}
    table that includes the first edge's own degree.  `at` is None for an
    unmarked tail and otherwise the insertion's restrictions at (zero,
    infinity), which enter each term exactly once, so the marked tables are
    linear in them.  Budgets shrink strictly along the recursion, which
    grounds it.  The caps bound the budget, and `at` is only ever None or
    one of the two idempotents' pairs, so they bound the cache too."""
    if a > budget:
        return {}
    far = _flip(level)
    t = _tangent(far)
    head = _edge_factor(a) / RatFun(a)
    room = budget - a
    out = {}
    # the marking, if any, on the far vertex, among unmarked side branches
    if at is None:
        on_far, marks = head, 0
    else:
        on_far, marks = head * (at[0] if far == LEVEL_ZERO else at[1]), 1
    for degs, sym, series in _bundles(far, room):
        front = on_far * _far_weight(t, (a,) + degs, len(degs) + 1 + marks) * sym
        for deg, val in series.items():
            _bump(out, a + deg, front * val)
    if at is None:
        return out
    for b in range(1, room + 1):
        # the marking beyond the far vertex, down a distinguished branch
        down = _tail(far, b, room, at)
        for degs, sym, series in _bundles(far, room - b):
            front = head * _far_weight(t, (a, b) + degs, len(degs) + 2) * sym
            for d1, v1 in down.items():
                for d2, v2 in series.items():
                    if d1 + d2 <= room:
                        _bump(out, a + d1 + d2, front * v1 * v2)
    return out


@functools.lru_cache(maxsize=None)
def _bundles(level: str, room: int) -> tuple:
    """Multisets of unmarked side branches leaving `level`, the empty one
    included, keyed by first-edge degree, as (degrees, symmetry division,
    product series) triples; the division by repeats implements the sum
    over unordered branches."""
    combos = []
    _degree_multisets(1, room, [], combos)
    out = []
    for degs in combos:
        sym = Frac(1)
        for d in set(degs):
            sym /= factorial(degs.count(d))
        series = {0: RF_ONE}
        for d in degs:
            series = _dict_mul(series, _tail(level, d, room), room)
        out.append((degs, sym, series))
    return tuple(out)


def _degree_multisets(lo, left, chosen, out):
    """Append chosen and each nondecreasing extension of it (degrees >= lo,
    sum <= left) to out, depth first."""
    out.append(tuple(chosen))
    for b in range(lo, left + 1):
        chosen.append(b)
        _degree_multisets(b, left - b, chosen, out)
        chosen.pop()


@dataclass(frozen=True)
class TreeSeries:
    """Series in the covering-degree variable; each coefficient is a rational
    function of lam and a polynomial in z up to z_order."""

    series: TruncSeries
    z_order: int

    def coeff(self, k: int) -> RatFun:
        return self.series.coeff(k)


def _check_orders(y_order: int, z_order: int) -> None:
    if y_order < 0 or z_order < 0:
        raise ConfigError("truncation orders must be non-negative")
    if y_order > Y_ORDER_CAP or z_order > Z_ORDER_CAP:
        raise BoundsExceeded(
            f"truncation caps are y <= {Y_ORDER_CAP}, z <= {Z_ORDER_CAP}"
        )


def _smoothing(a: int, z_order: int) -> RatFun:
    # lam times the expansion in z of the reciprocal node-smoothing factor
    # lam/a - z: the sum of a^(k+1) z^k / lam^k for k up to z_order
    return RatFun({(-k, k): a ** (k + 1) for k in range(z_order + 1)})


def _tail_series(constant: RatFun, tables, y_order: int, z_order: int) -> TruncSeries:
    # the empty tail contributes the constant; every other tail enters
    # through the smoothing of its first node against the cotangent variable
    coeffs = {0: constant}
    for a, table in enumerate(tables, 1):
        front = _smoothing(a, z_order)
        for deg, val in table.items():
            _bump(coeffs, deg, front * val)
    return TruncSeries("y", y_order, coeffs)


@functools.lru_cache(maxsize=None)
def _marked_basis(y_order: int, z_order: int) -> tuple:
    """Marked tail series of the zero and the infinity idempotent."""
    out = []
    for idem in (idempotent_zero(), idempotent_infinity()):
        at = (idem.restrict_zero(), idem.restrict_infinity())
        tables = [_tail(LEVEL_ZERO, a, y_order, at) for a in range(1, y_order + 1)]
        out.append(_tail_series(at[0], tables, y_order, z_order))
    return tuple(out)


def tree_series_S(alpha: CohClass, y_order: int, z_order: int) -> TreeSeries:
    """One-marking tail series at the zero fixed point.

    The empty tail contributes the bare restriction of the insertion; every
    other tail enters through the smoothing of its first node against the
    cotangent variable.  The series is linear in the insertion, so it is
    read off the series of the two idempotents.
    """
    _check_orders(y_order, z_order)
    _check_insertion(alpha)
    zero, inf = _marked_basis(y_order, z_order)
    series = zero * alpha.restrict_zero() + inf * alpha.restrict_infinity()
    return TreeSeries(series, z_order)


@functools.lru_cache(maxsize=None)
def _unmarked_series(y_order: int, z_order: int) -> TreeSeries:
    tables = [_tail(LEVEL_ZERO, a, y_order) for a in range(1, y_order + 1)]
    return TreeSeries(_tail_series(RF_ZERO, tables, y_order, z_order), z_order)


def tree_series_eps(y_order: int, z_order: int) -> TreeSeries:
    """Unmarked tail series at the zero fixed point; starts at first order."""
    _check_orders(y_order, z_order)
    return _unmarked_series(y_order, z_order)


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


@functools.lru_cache(maxsize=None)
def _unmarked_hat(y_order: int) -> dict:
    return _hat(_unmarked_series(y_order, y_order))


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
    return _comb_collect(fac, _unmarked_hat(y_order), y_order)


@functools.lru_cache(maxsize=None)
def _dressing(y_order: int) -> TruncSeries:
    """The unmarked-tail dressing alone, with no marked tails attached."""
    return _comb_collect({0: {0: RF_ONE}}, _unmarked_hat(y_order), y_order)


@functools.lru_cache(maxsize=None)
def _rewrite_basis(y_order: int) -> tuple:
    """Rewritten values of the zero and the infinity idempotent, then the
    dressing and the square of the cube-root base that divide a three-point
    sum with two unit insertions into a rewritten value."""
    one = unit_class()
    zero, inf = (
        comb_three_point(idem, one, one, y_order)
        for idem in (idempotent_zero(), idempotent_infinity())
    )
    dressing = _dressing(y_order)
    # the unit is the sum of the idempotents, and the sum is linear in it
    base = series_root_pow((zero + inf) / dressing, Frac(1, 3))
    norm = base * base
    return zero / dressing / norm, inf / dressing / norm, dressing, norm


def stilde_at_zero(alpha: CohClass, y_order: int) -> TruncSeries:
    """Marked-tail value rewritten against pulled-back cotangent classes and
    evaluated at cotangent zero.

    Extracted from three-point sums: the unit value is the cube root of the
    normalized triple-unit sum, and general insertions divide off two unit
    factors.  Linear in the insertion, so it is read off the values of the
    two idempotents.
    """
    _check_orders(y_order, 0)
    _check_insertion(alpha)
    zero, inf, dressing, norm = _rewrite_basis(y_order)
    at_zero, at_inf = alpha.restrict_zero(), alpha.restrict_infinity()
    if not at_zero.z_parts().keys() <= {0} or not at_inf.z_parts().keys() <= {0}:
        # a z in the insertion moves the cotangent transform, so the
        # value is linear only over coefficients free of z
        one = unit_class()
        return comb_three_point(alpha, one, one, y_order) / dressing / norm
    return zero * at_zero + inf * at_inf


def irr_ratio_check(y_order: int) -> dict:
    """Compare the ratio of the normalized fixed-point tail values with the
    closed square-root expression, order by order.

    Returns the per-order coefficients and their rational multiples of the
    forced lam powers; raises IdentityFailed on the first mismatch.
    """
    _check_orders(y_order, 0)
    zero, inf, _, _ = _rewrite_basis(y_order)
    ratio = inf / zero
    disc = TruncSeries("y", y_order, {0: RF_ONE, 1: RatFun(4) / LAM ** 2})
    root = series_root_pow(disc, Frac(1, 2))
    one = TruncSeries("y", y_order, {0: RF_ONE})
    target = (one - root) / (one + root)
    coefficients = {}
    multiples = {}
    for k in range(y_order + 1):
        got = ratio.coeff(k)
        want = target.coeff(k)
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
