"""Fraction reference arithmetic for line bundles on orbifold curves.

The package tests multiplicities on integer residues (`compat_residue`) and
reads section weights off the int ladder of `jfun._ladder`; these oracles
redo the same bookkeeping on `Fraction`s from the defining formulas, so the
tests can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from math import floor

from glsmx.model import LG


def _bracket(a):
    a = Frac(a)
    return a - floor(a)


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
        object.__setattr__(self, "ages", tuple(_bracket(a) for a in self.ages))

    @property
    def coarse_degree(self) -> Frac:
        return self.rational_degree - sum(self.ages, Frac(0))


def euler_char(data: OrbiBundleData) -> int:
    """chi of the coarse pushforward: 1 - g + (rational degree - sum of ages);
    ValueError when the coarse degree is not an integer."""
    coarse = data.coarse_degree
    if coarse.denominator != 1:
        raise ValueError(f"coarse degree {coarse} is not an integer")
    return 1 - data.genus + int(coarse)


def check_compatibility(model, genus: int, beta, mults) -> bool:
    """Whether a multiplicity tuple is realized by an actual line bundle of
    the given degree: the gauge-bundle degree, (2g - 2 + n - beta)/d in the
    LG phase and beta otherwise, minus the multiplicities must be an
    integer."""
    n = len(mults)
    if model.phase == LG:
        degree = Frac(2 * genus - 2 + n) - Frac(beta)
        degree /= model.d
    else:
        degree = Frac(beta)
    return (degree - sum(mults, Frac(0))).denominator == 1
