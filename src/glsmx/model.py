"""GLSM input datum and the sector / multiplicity arithmetic attached to it:
sector classification, compatibility of marked-point multiplicities, orbifold
Euler characteristics, virtual-dimension bookkeeping, and the stability-gap
margin used by the light-marking device."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac

from .errors import ConfigError, NonIntegralChi, OnWall

LG = "lg"
GEOMETRIC = "geometric"


def frac_bracket(a) -> Frac:
    """Unique representative of a mod 1 in [0, 1)."""
    a = Frac(a)
    return a - math.floor(a)


def isotropy_order(d: int, mult) -> int:
    """Order of the cyclic isotropy acting with multiplicity mult on the
    fiber of a d-th root bundle: d / gcd(d*mult, d)."""
    k = Frac(mult) * d
    if k.denominator != 1:
        raise ConfigError(f"multiplicity {mult} has denominator not dividing {d}")
    return d // math.gcd(int(k) % d, d)


def check_off_wall(epsilon) -> Frac:
    """epsilon as a Fraction, once it is known to be positive and off every
    wall (1/epsilon not an integer)."""
    epsilon = Frac(epsilon)
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    if (1 / epsilon).denominator == 1:
        raise OnWall(f"epsilon = {epsilon} sits on a wall")
    return epsilon


@dataclass(frozen=True)
class GlsmModel:
    """One C*-action datum: coordinate fields of positive weights plus N
    auxiliary fields of weight -d, a phase choice, and a stability parameter
    (None means the infinity chamber)."""

    weights: tuple
    N: int
    d: int
    phase: str
    epsilon: Frac | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if not self.weights or any(w <= 0 for w in self.weights):
            raise ConfigError("weights must be a non-empty list of positive integers")
        if self.N < 1 or self.d < 1:
            raise ConfigError("N and d must be positive")
        for w in self.weights:
            if self.d % w:
                raise ConfigError(f"weight {w} does not divide d={self.d}")
        if self.phase not in (LG, GEOMETRIC):
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", check_off_wall(self.epsilon))

    @property
    def unit_sector_mult(self) -> Frac:
        """Multiplicity carried by a forgettable marking."""
        return Frac(1, self.d) if self.phase == LG else Frac(0)


@dataclass(frozen=True)
class Sector:
    """One d-torsion sector: its multiplicity in [0,1), the coordinate
    fields it fixes, and the order of its isotropy action."""

    mult: Frac
    fixed_coords: frozenset
    narrow: bool
    isotropy_order: int


def make_sector(model: GlsmModel, mult) -> Sector:
    mult = frac_bracket(mult)
    fixed = frozenset(
        i + 1 for i, w in enumerate(model.weights) if (mult * w).denominator == 1
    )
    return Sector(
        mult=mult,
        fixed_coords=fixed,
        narrow=not fixed,
        isotropy_order=isotropy_order(model.d, mult),
    )


def list_sectors(model: GlsmModel) -> list:
    """All d sectors m = k/d, classified narrow/broad by fixed coordinates."""
    return [make_sector(model, Frac(k, model.d)) for k in range(model.d)]


def check_compatibility(model: GlsmModel, genus: int, beta, mults) -> bool:
    """Whether a multiplicity tuple is realized by an actual line bundle of
    the given degree: the defect must be an integer."""
    return _compat_defect(model, genus, beta, mults).denominator == 1


def solve_last_multiplicity(model: GlsmModel, genus: int, beta, mults) -> Frac:
    """The unique multiplicity in [0,1) whose appending makes the tuple
    compatible (the marking count includes the appended one)."""
    defect = _compat_defect(model, genus, beta, tuple(mults) + (Frac(0),))
    return frac_bracket(defect)


def _compat_defect(model, genus, beta, mults):
    """Gauge-bundle degree minus the multiplicities (the marking count is
    len(mults)).  Callers only test it for integrality or reduce it mod 1,
    so a multiplicity may be off by an integer."""
    return line_bundle_degree(model, genus, len(mults), beta) - sum(mults, Frac(0))


def graph_multiplicities(model: GlsmModel, beta: int):
    """Marked-point multiplicity on the parameterized-component fixed locus,
    and the multiplicity recorded when that marking becomes a basepoint.
    The two always sum to an integer (they sit on the two sides of a node).
    In the geometric phase markings and basepoints carry no orbifold
    structure, so both are zero."""
    if beta < 0:
        raise ConfigError("degree must be non-negative")
    if model.phase == GEOMETRIC:
        return Frac(0), Frac(0)
    marked = frac_bracket(Frac(-beta - 1, model.d))
    basepoint = frac_bracket(Frac(beta + 1, model.d))
    return marked, basepoint


@dataclass(frozen=True)
class OrbiBundleData:
    """A line bundle on an orbifold curve, reduced to the numbers that enter
    Euler-characteristic bookkeeping: genus, rational degree, and the ages
    at the orbifold points."""

    genus: int
    rational_degree: Frac
    ages: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rational_degree", Frac(self.rational_degree))
        object.__setattr__(
            self, "ages", tuple(frac_bracket(a) for a in self.ages)
        )

    @property
    def coarse_degree(self) -> Frac:
        return self.rational_degree - sum(self.ages, Frac(0))


def euler_char(data: OrbiBundleData) -> int:
    """chi of the coarse pushforward: 1 - g + (rational degree - sum of ages)."""
    coarse = data.coarse_degree
    if coarse.denominator != 1:
        raise NonIntegralChi(f"coarse degree {coarse} is not an integer")
    return 1 - data.genus + int(coarse)


def line_bundle_degree(model: GlsmModel, genus: int, n: int, beta) -> Frac:
    """Rational degree of the gauge bundle for the given discrete data."""
    beta = Frac(beta)
    if model.phase == LG:
        return Frac(2 * genus - 2 + n - beta, 1) / model.d
    return beta


def p_bundle_degree(model: GlsmModel, genus: int, n: int, beta) -> Frac:
    """Rational degree of one auxiliary-field bundle (the dual d-th power
    twisted by the log canonical)."""
    if model.phase == LG:
        return Frac(beta)
    return -model.d * Frac(beta) + 2 * genus - 2 + n


def virtual_dimension(model: GlsmModel, genus: int, mults, beta) -> int:
    """Expected dimension: base-stack dimension 4g-4+n plus the Euler
    characteristics of the coordinate-field and auxiliary-field bundles.
    Only differences between components are convention-free."""
    mults = tuple(frac_bracket(m) for m in mults)
    n = len(mults)
    deg_l = line_bundle_degree(model, genus, n, beta)
    total = 4 * genus - 4 + n
    for w in model.weights:
        # w-th power, twisted down by the full marking divisor
        data = OrbiBundleData(
            genus, w * deg_l - n, tuple(frac_bracket(w * m) for m in mults)
        )
        total += euler_char(data)
    deg_p = p_bundle_degree(model, genus, n, beta)
    p_ages = tuple(frac_bracket(-model.d * m) for m in mults)
    total += model.N * euler_char(OrbiBundleData(genus, deg_p, p_ages))
    return total


def choose_delta(epsilon) -> Frac:
    """A margin small enough that shifting k*eps - 1 by it never changes
    sign: half the minimal positive gap 1 - k*eps, or 1/2 when every
    positive multiple of eps already exceeds 1."""
    epsilon = check_off_wall(epsilon)
    gaps = [1 - k * epsilon for k in range(1, int(1 / epsilon) + 1)]
    if not gaps:
        return Frac(1, 2)
    return min(gaps) / 2
