"""Genus-zero equivariant localization for stable maps to the projective
line.

Four layers, all over exact rationals: descendant integrals on the moduli of
pointed rational curves; one rooted recursion over the fixed-locus trees of
maps to the line, the trees of covers between the two fixed points; the
fixed-graph sums and the marked and unmarked tail series at the zero fixed
point, both read from that recursion; and the rewrite of the marked tail
against pulled-back cotangent classes, read as its cotangent transform at
the Lagrange root of the unmarked one.  The square-root ratio identity
between the two normalized fixed-point values lives there.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction as Frac
from math import factorial, gcd, prod

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
from .graphs import LEVEL_INF, LEVEL_ZERO

N_CAP = 5
DELTA_CAP = 3
Y_ORDER_CAP = 12
Z_ORDER_CAP = 16


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


def restrict_at(alpha: CohClass, level: str) -> RatFun:
    if level == LEVEL_ZERO:
        return alpha.restrict_zero()
    if level == LEVEL_INF:
        return alpha.restrict_infinity()
    raise ConfigError(f"unknown fixed point {level!r}")


def _check_insertion(alpha) -> None:
    if not isinstance(alpha, CohClass) or alpha.relation != PROJLINE:
        raise ConfigError("insertions must be classes on the projective line")


def _restrictions(alpha) -> tuple:
    """The insertion's restrictions (at zero, at infinity) and the highest
    power of z in them.  A tail series is read only up to a z order, which a
    negative power would cut off short, so such an insertion is refused."""
    _check_insertion(alpha)
    at = (alpha.restrict_zero(), alpha.restrict_infinity())
    top = 0
    for f in at:
        for _, j in f.num:
            if j < 0:
                raise ConfigError("insertions must not hold negative powers of z")
            if j > top:
                top = j
    return at, top


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
    # the reciprocal Euler class of the moving part along a degree-d cover
    # of the line joining the two fixed points, over lam^(-2d)
    return Frac((-1) ** d * d ** (2 * d), factorial(d) ** 2)


# (sign, flag count, degree sum, cotangent exponents) keys held by the
# vertex weight cache; the exponents have no cap, so the cache needs a bound
_VERTEX_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_VERTEX_CACHE_SIZE)
def _vertex_weight(sign: int, f: int, total: int, ks: tuple) -> Frac:
    """Weight of one vertex of a fixed graph, of tangent weight t = sign*lam,
    less the insertions, less its lam power and less prod(d_j) over its f
    flags, whose edges carry them: total is sum(d_j), each flag has omega =
    t/d_j, and ks holds one cotangent exponent per marking.  A marking with
    k = 0 weighs as one more flag would.  The lam power is 2 - f - len(ks)
    + sum(ks), so a tree's powers add up to the dimension count and no
    caller tracks them."""
    if f + len(ks) >= 3:
        # contracted component: the psi integrals over prod omega^(b+1),
        # summed over the compositions b of the budget, are by the
        # multinomial theorem one integral times prod(t d_j) (t sum d_j)^budget
        # over lam^(budget+f); times t^(f-1) for its nodes, which less
        # prod(d_j) and the lam power leaves sign^(budget+1) (sum d_j)^budget.
        # Nothing is left when the exponents overfill the dimension
        budget = f + len(ks) - 3 - sum(ks)
        if budget < 0:
            return Frac(0)
        exps = ks + (budget,) + (0,) * (f - 1) if f else ks
        return psi_integral_genus0(exps) * sign ** (budget + 1) * Frac(total) ** budget
    if ks:  # (-omega)^k at a marked leaf
        return Frac((-sign) ** ks[0], total ** (ks[0] + 1))
    # t/d at a bare leaf, t/(omega1 + omega2) at a two-edge point
    return Frac(sign**f, total ** (3 - f))


# Every fixed locus is a tree of covers between the two fixed points, and
# one rooted recursion builds them all: a vertex, the set of branches that
# hang from it, and a branch, its first edge and the vertex beyond.  Each
# table is (den, {zero mask: int}), the ints over one positive den in the
# normal form of RatFun._reduced, where bit i of a mask is set when marking
# i, of cotangent exponent exps[i], sits at the zero fixed point; every term
# stands at the lam power its degree and markings fix, so the recursion runs
# on ints.  A call that carries no marking passes exps = (), so the tails and
# every graph sum share the unmarked tables.

# (exponents, level, degrees, marking masks) keys held by the rooted-tree
# caches; the exponents have no cap, so the caches need a bound
_TREE_CACHE_SIZE = 4096


class _Sum:
    """A running sum of int tables over one denominator, raised to an lcm
    only when a term's denominator does not divide it."""

    __slots__ = ("den", "nums")

    def __init__(self):
        self.den, self.nums = 1, {}

    def add(self, den: int, table: dict, num: int = 1, own: int = 0) -> None:
        """Add num/den times table, each key or-ed with own."""
        nums = self.nums
        if self.den % den:
            up = den // gcd(self.den, den)
            for key in nums:
                nums[key] *= up
            self.den *= up
        num *= self.den // den
        for key, c in table.items():
            nums[key | own] = nums.get(key | own, 0) + num * c

    def normal(self) -> tuple:
        """(den, nums) less the zero entries, over their joint content."""
        nums = {key: c for key, c in self.nums.items() if c}
        g = gcd(self.den, *nums.values())
        return self.den // g, {key: c // g for key, c in nums.items()}


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def _vertex(exps: tuple, level: str, a: int, rest: int, free: int, fixed: int) -> tuple:
    """A vertex at `level`, entered by an edge of degree a (0 at the root),
    with branches of total degree `rest` below it.  It holds the markings
    in `fixed` and any subset of `free`, and its branches carry the rest of
    `free`."""
    sign = 1 if level == LEVEL_ZERO else -1
    out = _Sum()
    for on in _submasks(free):
        here = fixed | on
        ks = tuple(k for i, k in enumerate(exps) if here >> i & 1)
        own = here if sign == 1 else 0
        down = free & ~on
        for (f, s), (den, table) in _hanging(exps if down else (), level, down, rest).items():
            w = _vertex_weight(sign, f + (a > 0), a + s, ks)
            if w:
                out.add(w.denominator * den, table, w.numerator, own)
    return out.normal()


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def _hanging(exps: tuple, level: str, marks: int, rest: int) -> dict:
    """The sets of branches leaving a vertex at `level`, of total degree
    `rest`, that carry the markings in `marks` between them, as {(branch
    count, first-edge degree sum): table}.  A marked set splits off the
    branch that holds its lowest marking, so each set is met once; an
    unmarked set splits off any branch and is divided by its branch count,
    which sums ordered tuples over m! as a sum over sets must."""
    if not rest:
        return {} if marks else {(0, 0): (1, {0: 1})}
    low = marks & -marks
    out = defaultdict(_Sum)
    for e in range(1, rest + 1):
        for extra in _submasks(marks & ~low):
            mine = low | extra
            others = marks & ~mine
            sets = _hanging(exps if others else (), level, others, rest - e)
            for a in range(1, e + 1):
                bden, branch = _branch(exps if mine else (), level, a, e, mine)
                for (m, s), (tden, table) in sets.items():
                    for bm, bc in branch.items():
                        out[m + 1, s + a].add(bden * tden, table, bc, bm)
    if not marks:
        for (m, _), entry in out.items():
            entry.den *= m
    tables = {key: entry.normal() for key, entry in out.items()}
    return {key: table for key, table in tables.items() if table[1]}


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def _branch(exps: tuple, level: str, a: int, degree: int, marks: int) -> tuple:
    """A branch of total degree `degree` whose first edge leaves `level`
    with degree a, carrying the markings in `marks`: the edge's factor
    _edge_coefficient(a)/a, times the degree a of each of its two flags,
    which the vertex weights leave out, then the vertex beyond."""
    scale = _edge_coefficient(a) * a
    out = _Sum()
    out.add(*_vertex(exps, _flip(level), a, degree - a, marks, 0), scale.numerator)
    out.den *= scale.denominator
    return out.normal()


# (n, delta, sorted cotangent exponents) keys held by the placement cache;
# the exponents have no cap, so the cache needs a bound
_PLACEMENT_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_PLACEMENT_CACHE_SIZE)
def _placements(n: int, delta: int, exps: tuple) -> tuple:
    """The fixed-graph sum of n markings with cotangent exponents exps
    (sorted), less the insertions: one (fixed point of each marking, RatFun)
    pair per placement of the markings on the two fixed points.

    Each tree is rooted at the vertex of marking 0, which every automorphism
    fixes, so the rooted sums divide by |Aut| as the fixed-graph sum does.
    With no markings the vertex-rooted sum counts each tree |V| times, so
    the edge-rooted sum, which counts it |E| = |V| - 1 times, comes off;
    the levels make every edge one-sided.  Every term stands at the lam
    power the dimension fixes, 2 - n + sum(exps) - 2*delta, so the sums run
    on the int tables and each RatFun is built once."""
    full = (1 << n) - 1
    sums = _Sum()
    for level in (LEVEL_ZERO, LEVEL_INF):
        sums.add(*_vertex(exps, level, 0, delta, full & ~1, full & 1))
    if not n:
        for a in range(1, delta + 1):
            for r in range(delta - a + 1):
                bden, branch = _branch((), LEVEL_INF, a, a + r, 0)
                vden, vertex = _vertex((), LEVEL_INF, a, delta - a - r, 0, 0)
                sums.add(bden * vden, {0: -branch.get(0, 0) * vertex.get(0, 0)})
    lam = 2 - n + sum(exps) - 2 * delta
    den, nums = sums.normal()
    return tuple(
        (tuple(LEVEL_ZERO if mask >> i & 1 else LEVEL_INF for i in range(n)),
         RatFun({(lam, 0): c}, den))
        for mask, c in nums.items()
    )


def p1_graph_sum(n: int, delta: int, insertions) -> RatFun:
    """Equivariant descendant integral over genus-zero n-pointed stable maps
    of degree delta to the line, summed over fixed-locus trees with
    automorphism division.  The sum is symmetric in the markings, so the
    insertions are put in order of their cotangent exponents, and the
    placement table of those exponents is read from the cache; the
    insertions' restrictions enter once per placement.

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
    pairs.sort(key=lambda pair: int(pair[1]))
    at = [{lv: restrict_at(alpha, lv) for lv in (LEVEL_ZERO, LEVEL_INF)} for alpha, _ in pairs]
    total = RF_ZERO
    for levels, value in _placements(n, delta, tuple(int(k) for _, k in pairs)):
        total = total + prod((table[lv] for table, lv in zip(at, levels)), start=value)
    return total


# ---------------------------------------------------------------------------
# tail series at the zero fixed point

# A tail is a branch that leaves the zero fixed point.  Every factor of its
# weight is a rational multiple of a power of lam, and the power is fixed by
# the tail's total degree D: lam^(1 - marks - 2D), where marks is 1 for the
# tail that carries the marking and 0 otherwise.  So the tails run on int
# numerators over one denominator, and the lam powers come back once, where
# a series is built.


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


@functools.lru_cache(maxsize=None)
def _tail_terms(mark, degree: int) -> tuple:
    """The tails of degree `degree` as (den, ((a, numerator), ...)): the
    tail series at y^degree z^k, at lam^(1 - marks - 2*degree - k), is
    sum(a^k * numerator)/den, since every tail enters through the smoothing
    of its first node against the cotangent variable, whose z expansion
    times lam is sum_k a^(k+1) z^k / lam^k, one a of it the flag degree the
    branch carries.  The marking has cotangent exponent 0; `mark` is the
    fixed point that carries it, LEVEL_ZERO or LEVEL_INF, whose tails are
    the mask-1 or the mask-0 entries of the branch tables, or None for the
    unmarked tail."""
    marks = int(mark is not None)
    mask = int(mark == LEVEL_ZERO)
    out = _Sum()
    for a in range(1, degree + 1):
        den, table = _branch((0,) * marks, LEVEL_ZERO, a, degree, marks)
        out.add(den, {a: table.get(mask, 0)})
    den, nums = out.normal()
    return den, tuple(nums.items())


def _tail_series(mark, y_order: int, z_order: int) -> TruncSeries:
    """The tail series of `mark`, as in _tail_terms: each row is one RatFun
    of the int sums over den, the lam powers put back here, once per
    series.  The empty tail contributes 1 when the marking sits at zero."""
    marks = int(mark is not None)
    coeffs = {0: RF_ONE} if mark == LEVEL_ZERO else {}
    for degree in range(1, y_order + 1):
        den, terms = _tail_terms(mark, degree)
        coeffs[degree] = RatFun({
            (1 - marks - 2 * degree - k, k): sum(a**k * c for a, c in terms)
            for k in range(z_order + 1)
        }, den)
    return TruncSeries("y", y_order, coeffs)


@functools.lru_cache(maxsize=None)
def _marked_basis(y_order: int, z_order: int) -> tuple:
    """Marked tail series of the zero and the infinity idempotent: the
    marking at zero and at infinity."""
    return tuple(_tail_series(mark, y_order, z_order) for mark in (LEVEL_ZERO, LEVEL_INF))


def tree_series_S(alpha: CohClass, y_order: int, z_order: int) -> TreeSeries:
    """One-marking tail series at the zero fixed point.

    The empty tail contributes the bare restriction of the insertion; every
    other tail enters through the smoothing of its first node against the
    cotangent variable.  The series is linear in the insertion, so it is
    read off the series of the two idempotents.  A z in the insertion
    raises their z powers, and those past z_order are dropped.
    """
    _check_orders(y_order, z_order)
    (at_zero, at_inf), top = _restrictions(alpha)
    zero, inf = _marked_basis(y_order, z_order)
    series = zero * at_zero + inf * at_inf
    if top:
        series = TruncSeries("y", y_order, {
            d: RatFun({key: c for key, c in f.num.items() if key[1] <= z_order}, f.den[(0, 0)])
            for d, f in series.coeffs.items()
        })
    return TreeSeries(series, z_order)


def tree_series_eps(y_order: int, z_order: int) -> TreeSeries:
    """Unmarked tail series at the zero fixed point; starts at first order."""
    _check_orders(y_order, z_order)
    return TreeSeries(_tail_series(None, y_order, z_order), z_order)


# ---------------------------------------------------------------------------
# rewrite against pulled-back cotangent classes

# The rewritten value of an insertion is a three-point sum, its marked tail
# and two unit tails meeting one contracted component at the zero fixed
# point, dressed by any number of unmarked tails; divided by the dressing
# alone and by the square of the unit's value.  The factorial transform over
# the cotangent variable turns the sum into sum_l [t^l] F(t) E(t)^l, with F
# the product of the three marked transforms and E the unmarked one, and the
# Lagrange-Good formula sums that to F(tau)/(1 - E'(tau)) at the root
# tau = E(tau).  So the dressing is 1/(1 - E'(tau)), the unit factors are
# u(tau)^2, and the rewritten value is the marked transform at tau.  The
# root and the rewritten values are kept per degree, like the tails: E has
# no y^0 part, so tau at y^D reads only lower degrees, and tau^k starts at
# y^k.  Both run on Fractions at lam = 1, read off the tail rows.  A z^m in
# a restriction shifts the marked transform by m powers of t, so every
# insertion is a combination of the two idempotents' values at each shift.


def _weight(mark, degree: int, k: int, shift: int) -> Frac:
    """The factorial transform at t^k y^degree, at lam = 1, of a tail whose
    marking carries z^shift: the tail's z^(k - shift) coefficient over k!.
    The empty tail is 1 when the marking sits at zero."""
    j = k - shift
    if not degree:
        return Frac(int(mark == LEVEL_ZERO and not j), factorial(k))
    den, terms = _tail_terms(mark, degree)
    return Frac(sum(a**j * c for a, c in terms), den * factorial(k))


@functools.lru_cache(maxsize=None)
def _root_row(degree: int) -> dict:
    """{k: tau^k at y^degree} for the root tau = E(tau) of the unmarked
    transform E; E's weight at t^k y^D stands at lam^(1 - 2D - k), so tau^k
    at y^D stands at lam^(k - 2D).  tau reads E at y^e, e >= 1, against the
    powers at y^(degree - e), and tau^k for k >= 2 is tau times tau^(k-1),
    both at lower degrees."""
    if not degree:
        return {0: Frac(1)}
    row = {1: sum(
        _weight(None, e, k, 0) * p
        for e in range(1, degree + 1)
        for k, p in _root_row(degree - e).items()
    )}
    for k in range(2, degree + 1):
        row[k] = sum(
            _root_row(e)[1] * _root_row(degree - e)[k - 1] for e in range(1, degree - k + 2)
        )
    return row


@functools.lru_cache(maxsize=None)
def _rewritten(mark, degree: int, shift: int) -> Frac:
    """The rewritten value at y^degree, at lam^(shift - 2*degree), of the
    idempotent `mark` times z^shift: its marked transform, which starts at
    t^shift, at the root."""
    return sum(
        _weight(mark, e, k, shift) * p
        for e in range(degree + 1)
        for k, p in _root_row(degree - e).items()
        if k >= shift
    )


@functools.lru_cache(maxsize=None)
def _rewrite_basis(y_order: int, shift: int) -> tuple:
    """Rewritten values of the zero and the infinity idempotent times
    z^shift, the value at y^D put back at lam^(shift - 2D); tau^k starts at
    y^k, so they start at y^shift."""
    return tuple(
        TruncSeries("y", y_order, {
            d: RatFun({(shift - 2 * d, 0): _rewritten(mark, d, shift)})
            for d in range(shift, y_order + 1)
        })
        for mark in (LEVEL_ZERO, LEVEL_INF)
    )


def stilde_at_zero(alpha: CohClass, y_order: int) -> TruncSeries:
    """Marked-tail value rewritten against pulled-back cotangent classes and
    evaluated at cotangent zero: the insertion's marked transform at the
    Lagrange root of the unmarked one.  It sums, over the z parts of the
    two restrictions, each lam-only part times the value of that fixed
    point's idempotent at the part's shift; a shift past y_order adds
    nothing, and a zero insertion gives the zero series.
    """
    _check_orders(y_order, 0)
    terms = [
        _rewrite_basis(y_order, shift)[i] * part
        for i, at in enumerate(_restrictions(alpha)[0])
        for shift, part in at.z_parts().items()
        if shift <= y_order
    ]
    return sum(terms[1:], terms[0]) if terms else TruncSeries("y", y_order)


def irr_ratio_check(y_order: int) -> dict:
    """Compare the ratio of the normalized fixed-point tail values with the
    closed square-root expression, order by order.

    Returns the per-order coefficients and their rational multiples of the
    forced lam powers; raises IdentityFailed on the first mismatch.
    """
    _check_orders(y_order, 0)
    zero, inf = _rewrite_basis(y_order, 0)
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
