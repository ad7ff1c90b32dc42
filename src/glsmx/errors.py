"""Exception hierarchy shared by all glsmx modules."""

from __future__ import annotations


class GlsmxError(Exception):
    """Base class for every error raised by this package."""


class DivisionByNonUnit(GlsmxError):
    """Division requested by an element that is not invertible in its ring."""


class BadConstantTerm(GlsmxError):
    """Series operation requiring constant term 1 got something else."""


class SubstitutionPole(GlsmxError):
    """A negative power of z met a vanishing value under substitution."""


class NonIntegralChi(GlsmxError):
    """Orbifold bundle data whose coarse degree bookkeeping is inconsistent."""


class OnWall(GlsmxError):
    """Stability parameter sits on a wall (some k*epsilon = 1)."""


class NotInfinityStable(GlsmxError):
    """Contraction input must come from the infinity-stable chamber."""


class WrongMultiplicity(GlsmxError):
    """A leg multiplicity disagrees with the value forced by its order."""


class BoundsExceeded(GlsmxError):
    """Requested enumeration is above the documented desk scale."""


class DegreeViolation(GlsmxError):
    """Edge degree must exceed the basepoint order it carries."""


class OutOfUnstableRange(GlsmxError):
    """Coefficient requested outside 0 <= beta <= 1/epsilon."""


class InconsistentOrbData(GlsmxError):
    """Weight enumeration got degree/age data that cannot coexist."""


class IdentityFailed(GlsmxError):
    """An exact identity check found a mismatching coefficient."""


class ConfigError(GlsmxError):
    """Malformed configuration input."""
