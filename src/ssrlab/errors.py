"""Error types shared across the package.

Everything that can fail in a structured way raises a subclass of
SsrLabError so the CLI can map failures onto stable exit codes: a
ConfigInvalid exits 2, and every numeric failure is a NumericError,
which exits 3. The class statements below are the only place that
decides which errors are numeric.
"""

from __future__ import annotations

__all__ = [
    "SsrLabError",
    "NumericError",
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
]


class SsrLabError(Exception):
    """Base class for all package-specific errors; frame is the failing frame, if known."""

    frame: int | None = None


class NumericError(SsrLabError):
    """A numeric failure during a run; the CLI reports it with exit code 3."""


class DimensionMismatch(NumericError):
    """Operands live in different ambient dimensions."""


class RankDeficient(NumericError):
    """Input matrix does not have full column rank."""


class RankMismatch(NumericError):
    """Subspace ranks differ where equal ranks are required."""


class DegenerateGeodesic(NumericError):
    """Geodesic is not unique (a principal angle reaches pi/2)."""


class DegenerateRow(NumericError):
    """Raw-sum affinity row sum is too close to zero to normalize."""


class AlphaOutOfRange(NumericError):
    """Blend coefficient outside [0, 1]."""


class LengthMismatch(NumericError):
    """Paired sequences have different lengths."""


class NonFiniteAffinity(NumericError):
    """Window states are so large that their dot products overflow."""


class InvalidScore(NumericError):
    """A per-frame score is not a finite nonnegative number."""


class InvalidScenario(NumericError):
    """A generated state or basis is not finite, or breaks its subspace invariants."""


class ConfigInvalid(SsrLabError):
    """Configuration error; message names the offending field path."""


def frame_named(context: str, exc: SsrLabError) -> str:
    """context, then ", frame=N" when exc names its frame; shared, not in __all__."""
    return context if exc.frame is None else f"{context}, frame={exc.frame}"


def annotated(exc: SsrLabError, context: str) -> SsrLabError:
    """exc's type and frame, message prefixed "(context): "; shared, not in __all__."""
    named = type(exc)(f"({context}): {exc}")
    named.frame = exc.frame
    return named
