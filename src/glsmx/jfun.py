"""Unstable quasimap contributions on the parameterized line.

Four pieces, all in exact arithmetic: torus weight tables for the section
and obstruction spaces of a line bundle on a football curve, the unstable
coefficients of the small I-function together with the state-space sector
each one lands in, the mirror-map tables whose entries measure the gap
between stability chambers, and the localization factors carried by edges
and nodes of a decorated graph.  Coefficients live in rational functions of
the framing weight and the series variable over a nilpotent hyperplane
class whose order is the rank of the relevant state space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction as Frac

from .algebra import (
    LAM,
    NILPOTENT,
    RF_ZERO,
    Z,
    CohClass,
    RatFun,
    TruncSeries,
    substitute_z,
)
from .errors import (
    BoundsExceeded,
    ConfigError,
    DegreeViolation,
    IdentityFailed,
    InconsistentOrbData,
    OutOfUnstableRange,
    WrongMultiplicity,
)
from .graphs import LEVEL_INF, LEVEL_ZERO
from .model import (
    LG,
    GlsmModel,
    check_off_wall,
    frac_bracket,
    graph_multiplicities,
    isotropy_order,
    line_bundle_degree,
    make_sector,
    p_bundle_degree,
)

Q_CAP = 8

# (model, beta, twisted) keys held by each coefficient cache; the four
# acceptance models at beta <= Q_CAP, both twists, need 72
_LADDER_CACHE_SIZE = 256

# placeholder for a smoothing term that stays a cotangent class until the
# vertex moduli are integrated out
PSI = "psi"


# ---------------------------------------------------------------------------
# weight tables for line bundles on the parameterized component


@dataclass(frozen=True)
class WeightTable:
    """Torus weights on the sections and obstructions of a line bundle."""

    h0_weights: tuple
    h1_weights: tuple

    @property
    def euler_char(self):
        return len(self.h0_weights) - len(self.h1_weights)


def _checked_age(age):
    age = Frac(age)
    if not 0 <= age < 1:
        raise InconsistentOrbData(f"age {age} outside [0, 1)")
    return age


def bundle_weights(rational_degree, age0, age_inf, tangent_weight, fiber_weight_0):
    """Weight table of a line bundle on a football with orbifold points at
    zero and infinity.

    Sections push down to the coarse line with degree
    D = rational_degree - age0 - age_inf, which must be an integer.  The
    exponent-k section monomial at the zero point carries weight
    fiber_weight_0 - k * tangent_weight for k = 0..D, and the obstruction
    weights continue the same ladder through the window between D and zero.
    Weights may be RatFun or CohClass valued.
    """
    age0 = _checked_age(age0)
    age_inf = _checked_age(age_inf)
    coarse = Frac(rational_degree) - age0 - age_inf
    if coarse.denominator != 1:
        raise InconsistentOrbData(
            f"degree {rational_degree} with ages {age0}, {age_inf} "
            "has no integral pushforward"
        )
    degree = int(coarse)
    h0 = tuple(fiber_weight_0 - k * tangent_weight for k in range(degree + 1))
    h1 = tuple(fiber_weight_0 + (k + 1) * tangent_weight for k in range(-degree - 1))
    return WeightTable(h0, h1)


# ---------------------------------------------------------------------------
# state-space conventions shared by every series in this module


def state_rank(model: GlsmModel) -> int:
    """Nilpotency order of the hyperplane class on the model's state space."""
    return model.N if model.phase == LG else len(model.weights)


def state_unit(model: GlsmModel) -> CohClass:
    return CohClass.unit(NILPOTENT, state_rank(model))


def state_hyperplane(model: GlsmModel) -> CohClass:
    return CohClass.hyperplane(NILPOTENT, state_rank(model))


def lambda_level(model: GlsmModel, level) -> CohClass:
    """Equivariant normal weight of a graph level: lam - H at zero and its
    negative at infinity."""
    at_zero = state_unit(model) * LAM - state_hyperplane(model)
    if level == LEVEL_ZERO:
        return at_zero
    if level == LEVEL_INF:
        return -at_zero
    raise ConfigError(f"unknown level {level!r}")


def j_sector(model: GlsmModel, beta: int) -> Frac:
    """Sector receiving the degree-beta coefficient: the multiplicity on the
    basepoint side of the parameterized component."""
    return graph_multiplicities(model, beta)[1]


def _moving(weight) -> bool:
    # a weight with no z part points along the fixed locus and is dropped
    # from normal-direction Euler products
    if isinstance(weight, CohClass):
        return any(_moving(c) for c in weight.coeffs)
    return any(e != 0 and not part.is_zero() for e, part in weight.z_parts().items())


# ---------------------------------------------------------------------------
# unstable J-coefficients


def unstable_J_coefficient(model, beta, epsilon=None, twisted=False):
    """Degree-beta coefficient of the J-function inside the unstable range.

    epsilon = None selects the asymptotic small chamber where every degree
    is unstable; otherwise epsilon must be positive and off every wall, and
    beta must satisfy beta <= 1/epsilon.  Inside that range the coefficient
    does not depend on epsilon (the chamber truncates the I-function), so
    epsilon only gates the range: after the checks the value comes from a
    per-process cache keyed by (model, beta, twisted), where the model's own
    epsilon is dropped from the key because the coefficient never reads it.
    Cached values are immutable and shared between callers.
    """
    if beta < 0:
        raise OutOfUnstableRange(f"negative degree {beta}")
    if epsilon is not None:
        if epsilon <= 0:
            raise ConfigError(f"stability parameter {epsilon} must be positive")
        if beta * Frac(epsilon) > 1:
            raise OutOfUnstableRange(f"degree {beta} is stable for epsilon {epsilon}")
        check_off_wall(epsilon)
    return _ladder(replace(model, epsilon=None), beta, twisted)


@functools.lru_cache(maxsize=_LADDER_CACHE_SIZE)
def _ladder(model, beta, twisted):
    # The value is assembled from the moving weights of the field bundles on
    # the parameterized component: obstruction weights multiply, section
    # weights divide, weights without a z part are fixed directions and are
    # skipped.
    unit = state_unit(model)
    hyper = state_hyperplane(model)
    z_class = unit * Z
    if model.phase == LG and not make_sector(model, j_sector(model, beta)).narrow:
        # broad sectors carry no state, so their coefficients vanish
        return unit * RF_ZERO
    marked_mult = graph_multiplicities(model, beta)[0]
    deg_l = line_bundle_degree(model, 0, 1, beta)
    deg_p = p_bundle_degree(model, 0, 1, beta)
    numerator = unit
    denominator = unit
    for w in model.weights:
        if model.phase == LG:
            age_inf = frac_bracket(w * marked_mult)
            fiber_inf = hyper * Frac(-w, model.d)
        else:
            age_inf = Frac(0)
            fiber_inf = hyper * w
        table = bundle_weights(
            w * deg_l,
            Frac(0),
            age_inf,
            z_class,
            fiber_inf + Frac(w * deg_l) * z_class,
        )
        for weight in table.h0_weights:
            if _moving(weight):
                denominator = denominator * weight
        for weight in table.h1_weights:
            if _moving(weight):
                numerator = numerator * weight
    if model.phase == LG:
        p_age_inf = frac_bracket(-model.d * marked_mult)
        p_fiber_inf = hyper
    else:
        p_age_inf = Frac(0)
        p_fiber_inf = hyper * (-model.d)
    table = bundle_weights(
        deg_p, Frac(0), p_age_inf, z_class, p_fiber_inf + Frac(deg_p) * z_class
    )
    for weight in table.h0_weights:
        if _moving(weight):
            denominator = denominator * weight**model.N
    for weight in table.h1_weights:
        if _moving(weight):
            numerator = numerator * weight**model.N
    value = z_class * numerator / denominator
    if model.phase == LG:
        # gerbe normalization: stabilizer order of the marked point over the
        # full orbifold structure group
        value = value * Frac(isotropy_order(model.d, marked_mult), model.d)
    if twisted:
        value = value * _twist_factor(model, beta)
    return value


def _twist_factor(model, beta):
    # Euler class of the framing-twisted obstruction of the distinguished
    # line, inserted once; no moving filter here since the prefactor and the
    # degree-zero section are both honest normal directions
    at_zero = lambda_level(model, LEVEL_ZERO)
    z_class = state_unit(model) * Z
    table = bundle_weights(
        -beta, Frac(0), Frac(0), z_class, at_zero - beta * z_class
    )
    value = at_zero
    for weight in table.h1_weights:
        value = value * weight
    for weight in table.h0_weights:
        value = value / weight
    return value


# ---------------------------------------------------------------------------
# I-function and mirror-map tables


def positive_z_part(value: CohClass) -> CohClass:
    """Drop every negative z power from each hyperplane coefficient."""
    kept = []
    for f in value.coeffs:
        kept.append(RatFun({k: v for k, v in f.laurent_terms().items() if k[1] >= 0}))
    return CohClass(kept, value.relation, value.r)


@functools.lru_cache(maxsize=_LADDER_CACHE_SIZE)
def _ladder_plus(model, beta, twisted):
    return positive_z_part(_ladder(model, beta, twisted))


def _plus_part(model, beta, epsilon, twisted):
    """positive_z_part of unstable_J_coefficient, computed once per
    (model, beta, twisted); the public entry still runs every check."""
    unstable_J_coefficient(model, beta, epsilon, twisted)
    return _ladder_plus(replace(model, epsilon=None), beta, twisted)


@dataclass(frozen=True)
class JSeries:
    """I-function coefficients, indexed by degree in the series variable."""

    model: GlsmModel
    twisted: bool
    series: TruncSeries

    def coefficient(self, beta):
        return self.series.coeff(beta, state_unit(self.model) * RF_ZERO)

    def sector(self, beta):
        return j_sector(self.model, beta)


def _check_q_max(q_max):
    if q_max < 0:
        raise ConfigError(f"series order {q_max} must be non-negative")
    if q_max > Q_CAP:
        raise BoundsExceeded(f"series order {q_max} above cap {Q_CAP}")


def i_function(model, q_max, twisted=False):
    """Collect the small-chamber coefficients through degree q_max, with the
    framing twist inserted when twisted."""
    _check_q_max(q_max)
    coeffs = {
        beta: unstable_J_coefficient(model, beta, None, twisted)
        for beta in range(q_max + 1)
    }
    return JSeries(model, twisted, TruncSeries("q", q_max, coeffs))


@dataclass(frozen=True)
class MuTable:
    """Mirror-map table of one chamber: degree-by-degree non-negative parts
    of -z + J, one entry per unstable degree."""

    model: GlsmModel
    epsilon: Frac
    twisted: bool
    entries: tuple

    @property
    def beta_max(self):
        return self.entries[-1][0]

    def betas(self):
        return [beta for beta, _ in self.entries]

    def entry(self, beta):
        for b, value in self.entries:
            if b == beta:
                return value
        return state_unit(self.model) * RF_ZERO

    def sector(self, beta):
        return j_sector(self.model, beta)


def mu_table(model, epsilon, twisted=False):
    """Tabulate the mirror-map entries of the chamber containing epsilon."""
    if epsilon <= 0:
        raise ConfigError(f"stability parameter {epsilon} must be positive")
    beta_max = math.floor(1 / Frac(epsilon))
    if beta_max > Q_CAP:
        raise BoundsExceeded(
            f"chamber of {epsilon} has {beta_max} unstable degrees, cap is {Q_CAP}"
        )
    check_off_wall(epsilon)
    entries = []
    for beta in range(beta_max + 1):
        value = _plus_part(model, beta, epsilon, twisted)
        if beta == 0:
            value = value - state_unit(model) * Z
        entries.append((beta, value))
    return MuTable(model, Frac(epsilon), twisted, tuple(entries))


# ---------------------------------------------------------------------------
# edge and node factors for decorated graphs


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
    there over the cover's automorphism order.
    """
    if delta_e < 1:
        raise ConfigError(f"cover degree {delta_e} must be at least 1")
    if beta_e > 0 and delta_e <= beta_e:
        raise DegreeViolation(
            f"cover degree {delta_e} must exceed basepoint degree {beta_e}"
        )
    coefficient = unstable_J_coefficient(model, beta_e, epsilon)
    tangent = lambda_level(model, LEVEL_ZERO) * Frac(1, delta_e)
    value = substitute_z(coefficient / Z, tangent)
    value = value * Frac(1, isotropy_order(model.d, j_sector(model, beta_e)))
    if twisted:
        for b in range(beta_e):
            value = value * (delta_e * tangent - b * tangent)
    cover_sections = state_unit(model)
    for b in range(1, delta_e + 1):
        cover_sections = cover_sections * (b * tangent) * (-b * tangent)
    value = value / cover_sections
    if unstable_vertex is not None:
        value = value * (lambda_level(model, unstable_vertex) * Frac(1, delta_e))
    return value


@dataclass(frozen=True, repr=False)
class NodeSmoothing:
    """Reciprocal smoothing factor of a node: the stabilizer order over the
    sum of the two tangent weights at the node, with the vertex side left
    symbolic until an explicit class is supplied."""

    d_m: int
    edge_term: CohClass
    vertex_term: object

    def explicit(self):
        if self.vertex_term is None:
            raise ConfigError("vertex side of the smoothing is symbolic")
        return self.d_m * (self.edge_term + self.vertex_term).inverse()

    def __repr__(self):
        if self.vertex_term is None:
            return f"NodeSmoothing({self.d_m} / ({self.edge_term!r} - psi))"
        return (
            f"NodeSmoothing({self.d_m} / "
            f"({self.edge_term!r} + {self.vertex_term!r}))"
        )


def node_contribution(model, m_h, j_v, delta_e, vertex_side_psi=PSI):
    """Factors attached to a node joining an edge to a vertex at a level.

    Returns the Euler class of the vertex normal direction, which multiplies
    the graph contribution, and the smoothing factor as structured data: the
    edge-side tangent weight is the level weight over the cover degree, the
    vertex side stays a cotangent class unless an explicit value is passed.
    """
    if delta_e < 1:
        raise ConfigError(f"cover degree {delta_e} must be at least 1")
    mult = Frac(m_h)
    if not 0 <= mult < 1 or (mult * model.d).denominator != 1:
        raise WrongMultiplicity(f"{m_h} is not a multiplicity mod {model.d}")
    if isinstance(vertex_side_psi, str):
        if vertex_side_psi != PSI:
            raise ConfigError(f"unknown symbolic vertex term {vertex_side_psi!r}")
        vertex_term = None
    else:
        vertex_term = vertex_side_psi
    normal = lambda_level(model, j_v)
    smoothing = NodeSmoothing(
        isotropy_order(model.d, mult),
        normal * Frac(1, delta_e),
        vertex_term,
    )
    return normal, smoothing


# ---------------------------------------------------------------------------
# chamber comparison


def jwc_check(model, epsilon_1, epsilon_2, q_max, strict=True):
    """Compare two stability chambers degree by degree.

    Two families of checks, each run untwisted and twisted: the non-negative
    part of every chamber coefficient must match the corresponding
    I-coefficient truncation, and the mirror-map tables of the two chambers
    must agree where both are defined, reduce to plain I-coefficient parts
    where only one is, and vanish beyond both.  With strict the first
    mismatch raises IdentityFailed; otherwise it is recorded in the report.

    Both sides of the first family read the same cached coefficient, since
    epsilon only gates its range, so that family checks the range gates and
    not the values; the second family reads mu_table through the module, so
    a corrupted table still fails.
    """
    _check_q_max(q_max)
    for eps in (epsilon_1, epsilon_2):
        if eps <= 0:
            raise ConfigError(f"stability parameter {eps} must be positive")
    bound_1 = math.floor(1 / Frac(epsilon_1))
    bound_2 = math.floor(1 / Frac(epsilon_2))
    if max(bound_1, bound_2) > Q_CAP:
        raise BoundsExceeded(
            f"chamber holds {max(bound_1, bound_2)} unstable degrees, "
            f"cap is {Q_CAP}"
        )
    for eps in (epsilon_1, epsilon_2):
        check_off_wall(eps)
    checks = []

    def record(name, first_failure):
        entry = {
            "name": name,
            "status": "pass" if first_failure is None else "fail",
            "first_failure": first_failure,
        }
        checks.append(entry)
        if strict and first_failure is not None:
            raise IdentityFailed(f"{name}: {first_failure}")

    for twisted in (False, True):
        flavor = "twisted" if twisted else "untwisted"

        failure = None
        for eps, bound in ((epsilon_1, bound_1), (epsilon_2, bound_2)):
            for beta in range(min(bound, q_max) + 1):
                chamber = _plus_part(model, beta, eps, twisted)
                target = _plus_part(model, beta, None, twisted)
                if chamber != target:
                    failure = f"epsilon={eps} beta={beta}"
                    break
            if failure is not None:
                break
        record(f"plus_part_vs_i_{flavor}", failure)

        table_1 = mu_table(model, epsilon_1, twisted)
        table_2 = mu_table(model, epsilon_2, twisted)
        failure = None
        for beta in range(q_max + 1):
            in_1 = beta <= bound_1
            in_2 = beta <= bound_2
            if in_1 and in_2:
                if table_1.entry(beta) != table_2.entry(beta):
                    failure = f"beta={beta} differs between chambers"
                    break
            elif in_1 or in_2:
                one_sided = table_1 if in_1 else table_2
                target = _plus_part(model, beta, None, twisted)
                if one_sided.entry(beta) != target:
                    failure = f"beta={beta} one-sided entry is not the plus part"
                    break
            else:
                if not (table_1.entry(beta).is_zero() and table_2.entry(beta).is_zero()):
                    failure = f"beta={beta} nonzero beyond both chambers"
                    break
        record(f"mu_wall_crossing_{flavor}", failure)

    low, high = sorted((bound_1, bound_2))
    return {
        "epsilon_1": epsilon_1,
        "epsilon_2": epsilon_2,
        "q_max": q_max,
        "checks": checks,
        "gained": list(range(low + 1, min(high, q_max) + 1)),
        "passed": all(c["status"] == "pass" for c in checks),
    }
