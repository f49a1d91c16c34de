"""Error types shared across the package.

Everything numeric that can fail in a structured way raises a subclass of
SsrLabError so the CLI can map failures onto stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "SsrLabError",
    "DimensionMismatch",
    "RankDeficient",
    "RankMismatch",
    "DegenerateGeodesic",
    "DegenerateRow",
    "AlphaOutOfRange",
    "LengthMismatch",
    "NonFiniteAffinity",
    "InvalidScore",
    "InvalidScenario",
    "ConfigInvalid",
    "NUMERIC_ERRORS",
]


class SsrLabError(Exception):
    """Base class for all package-specific errors; frame is the failing frame, if known."""

    frame: int | None = None


class DimensionMismatch(SsrLabError):
    """Operands live in different ambient dimensions."""


class RankDeficient(SsrLabError):
    """Input matrix does not have full column rank."""


class RankMismatch(SsrLabError):
    """Subspace ranks differ where equal ranks are required."""


class DegenerateGeodesic(SsrLabError):
    """Geodesic is not unique (a principal angle reaches pi/2)."""


class DegenerateRow(SsrLabError):
    """Raw-sum affinity row sum is too close to zero to normalize."""


class AlphaOutOfRange(SsrLabError):
    """Blend coefficient outside [0, 1]."""


class LengthMismatch(SsrLabError):
    """Paired sequences have different lengths."""


class NonFiniteAffinity(SsrLabError):
    """Window states are so large that their dot products overflow."""


class InvalidScore(SsrLabError):
    """A per-frame score is not a finite nonnegative number."""


class InvalidScenario(SsrLabError):
    """A generated state or basis is not finite, or breaks its subspace invariants."""


class ConfigInvalid(SsrLabError):
    """Configuration error; message names the offending field path."""


# Errors that the CLI reports as numeric degeneracy (exit code 3).
NUMERIC_ERRORS = (
    DimensionMismatch,
    RankDeficient,
    RankMismatch,
    DegenerateGeodesic,
    DegenerateRow,
    AlphaOutOfRange,
    LengthMismatch,
    NonFiniteAffinity,
    InvalidScore,
    InvalidScenario,
)


def annotated(exc: SsrLabError, context: str) -> SsrLabError:
    """exc's type and frame, message prefixed "(context): "; shared, not in __all__."""
    named = type(exc)(f"({context}): {exc}")
    named.frame = exc.frame
    return named
