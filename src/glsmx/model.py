"""GLSM input datum and the sector / multiplicity arithmetic attached to it:
sector classification, compatibility of marked-point multiplicities, the
degree of the gauge bundle, and the stability-gap margin used by the
light-marking device."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Frac

from .errors import ConfigError, OnWall

LG = "lg"
GEOMETRIC = "geometric"


def frac_bracket(a) -> Frac:
    """Unique representative of a mod 1 in [0, 1)."""
    if type(a) is Frac and 0 <= a.numerator < a.denominator:
        return a
    a = Frac(a)
    return a - math.floor(a)


def isotropy_order(d: int, mult) -> int:
    """Order of the cyclic isotropy acting with multiplicity mult on the
    fiber of a d-th root bundle: d / gcd(d*mult, d)."""
    m = mult if type(mult) is Frac else Frac(mult)
    if d % m.denominator:
        raise ConfigError(f"multiplicity {mult} has denominator not dividing {d}")
    return d // math.gcd(m.numerator * (d // m.denominator) % d, d)


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


def solve_last_multiplicity(model: GlsmModel, genus: int, beta, mults) -> Frac:
    """The unique multiplicity in [0,1) whose appending makes the tuple
    compatible (the marking count includes the appended one)."""
    residue = Frac(compat_residue(model, genus, len(mults) + 1, beta), model.d)
    return frac_bracket(residue - sum(mults, Frac(0)))


def compat_residue(model: GlsmModel, genus: int, n: int, beta: int) -> int:
    """d times the gauge-bundle degree, reduced mod d: multiplicities k_i/d
    at n markings are compatible iff the k_i sum to it mod d."""
    # d * (2g - 2 + n - beta) / d in the LG phase, d * beta otherwise
    return (2 * genus - 2 + n - beta) % model.d if model.phase == LG else 0


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
    d = model.d
    return Frac(-(beta + 1) % d, d), Frac((beta + 1) % d, d)


def bundle_degree_numerator(model: GlsmModel, genus: int, n: int, beta: int) -> int:
    """d times the rational degree of the gauge bundle for the given
    discrete data: 2g - 2 + n - beta in the LG phase, d * beta otherwise."""
    return 2 * genus - 2 + n - beta if model.phase == LG else model.d * beta


def choose_delta(epsilon) -> Frac:
    """A margin small enough that shifting k*eps - 1 by it never changes
    sign: half the minimal positive gap 1 - k*eps, or 1/2 when every
    positive multiple of eps already exceeds 1."""
    epsilon = check_off_wall(epsilon)
    gaps = [1 - k * epsilon for k in range(1, int(1 / epsilon) + 1)]
    if not gaps:
        return Frac(1, 2)
    return min(gaps) / 2
