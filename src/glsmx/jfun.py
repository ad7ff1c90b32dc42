"""Unstable quasimap contributions on the parameterized line.

Three pieces, all in exact arithmetic: the unstable coefficients of the
small I-function together with the state-space sector each one lands in,
the mirror-map tables whose entries measure the gap between stability
chambers, and the localization factor carried by each edge of a decorated
graph.  Coefficients live in rational functions of the framing weight and
the series variable over a nilpotent hyperplane class whose order is the
rank of the relevant state space.

The I-coefficients run on ints.  The moving weights come straight from the
section and obstruction windows of each field bundle on the football, every
degree scaled by d.  Each moving weight a*z + c*H contributes a factor
(1 + x*u)^+-1 with x = c/a and u = H/z, and the u^j coefficient of the
product is homogeneous of degree j in the x's.  Degrees and the c's lie on
the 1/d grid, so scaling every a and c by d and putting every x
over L, the lcm of the scaled a's, turns the u^j coefficient into an int
over L^j; one int denominator then serves every hyperplane power.  The edge
factors expand those rows on ints too, over one denominator per factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction as Frac

from .algebra import (
    LAM,
    NILPOTENT,
    RF_ZERO,
    Z,
    CohClass,
    RatFun,
)
from .errors import (
    BoundsExceeded,
    ConfigError,
    DegreeViolation,
    OutOfUnstableRange,
    check_record,
)
from .graphs import LEVEL_INF, LEVEL_ZERO
from .model import (
    LG,
    GlsmModel,
    check_off_wall,
    graph_multiplicities,
    isotropy_order,
    make_sector,
)

Q_CAP = 8

# (model, beta, twisted) keys held by each coefficient cache; the four
# acceptance models at beta <= Q_CAP, both twists, need 72
_LADDER_CACHE_SIZE = 256

# ---------------------------------------------------------------------------
# state-space conventions shared by every series in this module


def state_rank(model: GlsmModel) -> int:
    """Nilpotency order of the hyperplane class on the model's state space."""
    return model.N if model.phase == LG else len(model.weights)


def state_unit(model: GlsmModel) -> CohClass:
    return CohClass.unit(NILPOTENT, state_rank(model))


def state_hyperplane(model: GlsmModel) -> CohClass:
    return CohClass.hyperplane(NILPOTENT, state_rank(model))


def _level_sign(level) -> int:
    if level == LEVEL_ZERO:
        return 1
    if level == LEVEL_INF:
        return -1
    raise ConfigError(f"unknown level {level!r}")


def lambda_level(model: GlsmModel, level) -> CohClass:
    """Equivariant normal weight of a graph level: lam - H at zero and its
    negative at infinity."""
    sign = _level_sign(level)
    return (state_unit(model) * LAM - state_hyperplane(model)) * sign


def j_sector(model: GlsmModel, beta: int) -> Frac:
    """Sector receiving the degree-beta coefficient: the multiplicity on the
    basepoint side of the parameterized component."""
    return graph_multiplicities(model, beta)[1]


def _int_row(row, den):
    """The RatFun row/den, for row a dict of ints and den a positive int,
    with the zero terms dropped."""
    return RatFun._reduced({k: v for k, v in row.items() if v}, den)


# ---------------------------------------------------------------------------
# unstable J-coefficients


def unstable_J_coefficient(model, beta, epsilon=None, twisted=False):
    """Degree-beta coefficient of the J-function inside the unstable range.

    beta may be at most Q_CAP.  epsilon = None selects the asymptotic small
    chamber where every degree is unstable; otherwise epsilon must be
    positive and off every wall, and beta must satisfy beta <= 1/epsilon.
    Inside that range the coefficient does not depend on epsilon (the
    chamber truncates the I-function), so epsilon only gates the range:
    after the checks the value comes from a per-process cache keyed by
    (model, beta, twisted), where the model's own epsilon is dropped from
    the key because the coefficient never reads it.  Cached values are
    immutable and shared between callers.
    """
    if beta < 0:
        raise OutOfUnstableRange(f"negative degree {beta}")
    if beta > Q_CAP:
        raise BoundsExceeded(f"degree {beta} above cap {Q_CAP}")
    if epsilon is not None:
        if epsilon <= 0:
            raise ConfigError(f"stability parameter {epsilon} must be positive")
        if beta * Frac(epsilon) > 1:
            raise OutOfUnstableRange(f"degree {beta} is stable for epsilon {epsilon}")
        check_off_wall(epsilon)
    return _ladder(_without_epsilon(model), beta, twisted)


def _without_epsilon(model):
    # the coefficient caches key on the model less its epsilon; most callers
    # pass a model that has none, and need no copy
    return model if model.epsilon is None else replace(model, epsilon=None)


@functools.lru_cache(maxsize=_LADDER_CACHE_SIZE)
def _ladder(model, beta, twisted):
    # The value is assembled from the moving weights of the field bundles on
    # the parameterized component: obstruction weights multiply, section
    # weights divide.  Each weight is a*z + c*H with c fixed per field, and
    # it moves exactly when a != 0.  Writing it as a*z*(1 + (c/a)*u) with
    # u = H/z, the value is scale * z^e * p(u), where the a's and the weight
    # count give scale and e, and p is the product of the (1 + (c/a)*u)^+-1
    # truncated at u^r, so H^j carries scale * p_j * z^(e - j).
    #
    # Everything runs on ints.  Degrees and the c's lie on the 1/d
    # grid, so every quantity is scaled by d: a weight's z-coefficient a
    # becomes A = d*a, and x = c/a = C/A with C = d*c.  The u^j coefficient
    # p_j is homogeneous of degree j in the x's, so with L = lcm of the A's
    # and X = C*(L/A), p_j = Q_j/L^j where Q runs the same recurrences on
    # the X's.  The scale is sn/sd, so every row sits over the one
    # denominator sd*L^(r-1).  Below, a, c and x name the scaled A, C and X.
    r = state_rank(model)
    if model.phase == LG and not make_sector(model, j_sector(model, beta)).narrow:
        # broad sectors carry no state, so their coefficients vanish
        return state_unit(model) * RF_ZERO
    d = model.d
    # (degree, C, multiplicity) of each field bundle on the parameterized
    # component, degree times d; the auxiliary one counts N times
    if model.phase == LG:
        fields = [(-w * (beta + 1), -w, 1) for w in model.weights]
        fields.append((d * beta, d, model.N))
    else:
        fields = [(d * w * beta, d * w, 1) for w in model.weights]
        fields.append((-d * (d * beta + 1), -d * d, model.N))
    # (A, C, multiplicity, +1 for an obstruction, -1 for a section) of each
    # moving weight, in the order the factors are applied.  With tangent
    # weight d and fiber weight D at zero, the sections sit at D, D - d, ...
    # while positive and the obstructions at D + d, D + 2d, ... while
    # negative: the age at infinity is D mod d, so the pushforward always
    # has an integral degree, and the one weight of the ladder that can
    # vanish does not move.
    moving = []
    for degree, c, mult in fields:
        moving += [(a, c, mult, 1) for a in range(degree + d, 0, d)]
        moving += [(a, c, mult, -1) for a in range(degree, 0, -d)]
    lcm_a = 1
    for a, _, _, _ in moving:
        lcm_a = math.lcm(lcm_a, a)
    # each obstruction multiplies the scale by A/d, each section divides it
    sn = sd = 1
    e = 1
    q = [1] + [0] * (r - 1)
    for a, c, mult, side in moving:
        x = c * (lcm_a // a)
        e += side * mult
        if side > 0:
            sn *= a**mult
            sd *= d**mult
            for _ in range(mult):
                for j in range(r - 1, 0, -1):
                    q[j] += x * q[j - 1]
        else:
            sn *= d**mult
            sd *= a**mult
            for _ in range(mult):
                for j in range(1, r):
                    q[j] -= x * q[j - 1]
    if model.phase == LG:
        # gerbe normalization: stabilizer order of the marked point over the
        # full orbifold structure group
        sn *= isotropy_order(d, graph_multiplicities(model, beta)[0])
        sd *= d
    rows = [{(0, e - j): sn * q[j] * lcm_a ** (r - 1 - j)} for j in range(r)]
    for b in range(beta if twisted else 0):
        # the framing twist, the Euler class of the twisted obstruction of the
        # distinguished line: c*lam^l*z^n*H^j times (lam - b*z - H), cut at H^r
        out = [{} for _ in range(r)]
        for j, row in enumerate(rows):
            for (l, n), c in row.items():
                out[j][l + 1, n] = out[j].get((l + 1, n), 0) + c
                out[j][l, n + 1] = out[j].get((l, n + 1), 0) - b * c
                if j + 1 < r:
                    out[j + 1][l, n] = out[j + 1].get((l, n), 0) - c
        rows = out
    den = sd * lcm_a ** (r - 1)
    return CohClass([_int_row(row, den) for row in rows], NILPOTENT, r)


# ---------------------------------------------------------------------------
# I-function and mirror-map tables


def positive_z_part(value: CohClass) -> CohClass:
    """Drop every negative z power from each hyperplane coefficient."""
    kept = [
        RatFun._reduced({k: v for k, v in f.num.items() if k[1] >= 0}, f.den[(0, 0)])
        for f in value.coeffs
    ]
    return CohClass(kept, value.relation, value.r)


@functools.lru_cache(maxsize=_LADDER_CACHE_SIZE)
def _ladder_plus(model, beta, twisted):
    """The mirror-map entry of degree beta: the z >= 0 part of the
    coefficient, less z times the unit at degree 0, so the degree-0 entry
    is zero.  Every chamber holding beta shares this one value."""
    plus = positive_z_part(_ladder(model, beta, twisted))
    return plus - state_unit(model) * Z if beta == 0 else plus


def _check_q_max(q_max):
    if q_max < 0:
        raise ConfigError(f"series order {q_max} must be non-negative")
    if q_max > Q_CAP:
        raise BoundsExceeded(f"series order {q_max} above cap {Q_CAP}")


def i_function(model, q_max, twisted=False):
    """The small-chamber coefficients through degree q_max, as {beta:
    CohClass}, with the framing twist inserted when twisted."""
    _check_q_max(q_max)
    return {
        beta: unstable_J_coefficient(model, beta, None, twisted)
        for beta in range(q_max + 1)
    }


def _chamber_bound(epsilon):
    """Largest unstable degree floor(1/epsilon) of the chamber containing
    epsilon, once epsilon is positive, within Q_CAP and off every wall."""
    if epsilon <= 0:
        raise ConfigError(f"stability parameter {epsilon} must be positive")
    bound = math.floor(1 / Frac(epsilon))
    if bound > Q_CAP:
        raise BoundsExceeded(
            f"chamber of {epsilon} has {bound} unstable degrees, cap is {Q_CAP}"
        )
    check_off_wall(epsilon)
    return bound


def mu_table(model, epsilon, twisted=False):
    """Mirror-map table of the chamber containing epsilon, as {beta:
    CohClass} for beta = 0..floor(1/epsilon): the degree-by-degree
    non-negative parts of -z + J, one entry per unstable degree.  The bound
    checks epsilon once and keeps every degree in range, so the entries,
    the -z of degree 0 included, are read from the cache with no further
    gate.  The dict is new on each call; its values are shared."""
    bound = _chamber_bound(epsilon)
    model = _without_epsilon(model)
    return {beta: _ladder_plus(model, beta, twisted) for beta in range(bound + 1)}


# ---------------------------------------------------------------------------
# edge factors for decorated graphs


def edge_contribution(
    model, delta_e, beta_e, epsilon=None, twisted=False, unstable_vertex=None
):
    """Localization factor of an edge covering the line delta_e times with
    basepoint degree beta_e at its zero end.

    The degree-beta_e chamber coefficient is evaluated at the tangent weight
    of the cover and divided by the Euler class of the cover's own moving
    deformations; the twist enters exactly once, through the framing
    obstruction evaluated at the same tangent weight.  Passing a level as
    unstable_vertex multiplies in the normal weight of a valence-one vertex
    there over the cover's automorphism order.  The coefficient's own gates
    apply, so beta_e is at most Q_CAP and unstable for epsilon.
    """
    if delta_e < 1:
        raise ConfigError(f"cover degree {delta_e} must be at least 1")
    if beta_e > 0 and delta_e <= beta_e:
        raise DegreeViolation(
            f"cover degree {delta_e} must exceed basepoint degree {beta_e}"
        )
    coefficient = unstable_J_coefficient(model, beta_e, epsilon)
    # Every factor is a rational times a power of the tangent weight
    # t = (lam - H)/delta_e: the coefficient over z at z = t, the twist
    # (delta_e - b)*t for b < beta_e, the moving cover sections
    # -b^2 t^2 for b <= delta_e, and the normal weight +-t of the vertex.
    # The rational is fn/fd, on ints.
    fn = (-1) ** delta_e
    fd = isotropy_order(model.d, j_sector(model, beta_e)) * math.factorial(delta_e) ** 2
    shift = -1 - 2 * delta_e
    if twisted:
        for b in range(beta_e):
            fn *= delta_e - b
        shift += beta_e
    if unstable_vertex is not None:
        fn *= _level_sign(unstable_vertex)
        shift += 1
    # a term c*lam^l*z^n*H^j becomes c*lam^l*t^m*H^j with m = n + shift, and
    # t^m = delta_e^-m lam^m sum_i C(m, i) (-H/lam)^i, cut at H^r.  Each row
    # sits over fd * delta_e^top * lcm(row denominators), with top the
    # largest m or 0, so every term is an int and C(m, i) runs exactly.
    r = state_rank(model)
    coeffs = coefficient.coeffs
    top = max([0] + [n + shift for f in coeffs for _, n in f.num])
    lcm_den = math.lcm(*(f.den[(0, 0)] for f in coeffs))
    out = [{} for _ in range(r)]
    for j, f in enumerate(coeffs):
        scale = fn * (lcm_den // f.den[(0, 0)])
        for (l, n), c in f.num.items():
            m = n + shift
            term = c * scale * delta_e ** (top - m)
            for i in range(r - j):
                key = (l + m - i, 0)
                out[j + i][key] = out[j + i].get(key, 0) + term
                term = -term * (m - i) // (i + 1)
    den = fd * delta_e**top * lcm_den
    return CohClass([_int_row(row, den) for row in out], NILPOTENT, r)


# ---------------------------------------------------------------------------
# chamber comparison


def _is_plus_part(entry, coefficient, beta):
    """Whether a mirror-map entry of degree beta holds exactly the z >= 0
    terms of the coefficient, with the -z of degree 0 added back.  Runs term
    by term on the int numerators, cross-multiplied by the two
    denominators, so it shares no step with positive_z_part."""
    for j, (f, g) in enumerate(zip(entry.coeffs, coefficient.coeffs)):
        a, b = f.den[(0, 0)], g.den[(0, 0)]
        have = {k: v * b for k, v in f.num.items()}
        if beta == 0 and j == 0:
            have[0, 1] = have.get((0, 1), 0) + a * b
        want = {k: v * a for k, v in g.num.items() if k[1] >= 0}
        if {k: v for k, v in have.items() if v} != want:
            return False
    return True


def jwc_check(model, epsilon_1, epsilon_2, q_max):
    """Compare two stability chambers degree by degree.

    Two families of checks, each run untwisted and twisted.
    plus_part_vs_i compares every entry of each chamber's mirror-map
    table, up to q_max, with the z-non-negative part of the small-chamber
    I-coefficient of its degree, taken term by term here rather than
    through positive_z_part.  mu_wall_crossing compares the two tables at
    every degree both chambers hold.  Both read mu_table through the
    module, so a corrupted table fails them.  Each check's first mismatch
    is recorded in the report, whose "passed" is false if any check failed.
    """
    _check_q_max(q_max)
    bound_1 = _chamber_bound(epsilon_1)
    bound_2 = _chamber_bound(epsilon_2)
    checks = []
    for twisted in (False, True):
        flavor = "twisted" if twisted else "untwisted"
        table_1 = mu_table(model, epsilon_1, twisted)
        table_2 = mu_table(model, epsilon_2, twisted)

        failure = None
        chambers = ((epsilon_1, bound_1, table_1), (epsilon_2, bound_2, table_2))
        for eps, bound, table in chambers:
            for beta in range(min(bound, q_max) + 1):
                coefficient = unstable_J_coefficient(model, beta, None, twisted)
                if not _is_plus_part(table[beta], coefficient, beta):
                    failure = f"epsilon={eps} beta={beta}"
                    break
            if failure is not None:
                break
        checks.append(check_record(f"plus_part_vs_i_{flavor}", failure is None, failure))

        failure = None
        for beta in range(min(bound_1, bound_2, q_max) + 1):
            if table_1[beta] != table_2[beta]:
                failure = f"beta={beta} differs between chambers"
                break
        checks.append(check_record(f"mu_wall_crossing_{flavor}", failure is None, failure))

    low, high = sorted((bound_1, bound_2))
    return {
        "epsilon_1": epsilon_1,
        "epsilon_2": epsilon_2,
        "q_max": q_max,
        "checks": checks,
        "gained": list(range(low + 1, min(high, q_max) + 1)),
        "passed": all(c["status"] == "pass" for c in checks),
    }
