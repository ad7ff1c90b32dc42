"""Exception hierarchy shared by all glsmx modules, and the record that
reports one named check."""

from __future__ import annotations


class GlsmxError(Exception):
    """Base class for every error raised by this package."""


class DivisionByNonUnit(GlsmxError):
    """Division requested by an element that is not invertible in its ring."""


class OnWall(GlsmxError):
    """Stability parameter sits on a wall (some k*epsilon = 1)."""


class NotInfinityStable(GlsmxError):
    """Contraction input must come from the infinity-stable chamber."""


class BoundsExceeded(GlsmxError):
    """Requested enumeration is above the documented desk scale."""


class DegreeViolation(GlsmxError):
    """Edge degree must exceed the basepoint order it carries."""


class OutOfUnstableRange(GlsmxError):
    """Coefficient requested outside 0 <= beta <= 1/epsilon."""


class IdentityFailed(GlsmxError):
    """An exact identity check found a mismatching coefficient."""


class ConfigError(GlsmxError):
    """Malformed configuration input."""


def check_record(name, ok, first_failure=None):
    """A report's entry for one named check: it passes when ok, and
    otherwise names its first failure ("failed" when none is given)."""
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "first_failure": None if ok else (first_failure or "failed"),
    }
