"""Window affinities for streaming state vectors.

A window is an L x d float array of L states, oldest first, with the
current state in the last row. Pairwise similarity is the plain dot
product phi(x, y) = <x, y>; each row of the L x L affinity is that row's
similarities normalized to sum to one, either through a softmax (entries
nonnegative, numerically stable) or by dividing by the raw row sum
(entries may be negative). A raw-sum row whose sum is tiny next to the
magnitudes it sums, |sum phi| <= DEGENERATE_ROW_TOL * sum |phi|, is a
hard error: its entries, and so the corrected state, would blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRow, DimensionMismatch, NonFiniteAffinity

__all__ = [
    "MODE_SOFTMAX",
    "MODE_RAW_SUM",
    "AFFINITY_MODES",
    "DEGENERATE_ROW_TOL",
    "StateVector",
    "default_temperature",
    "compute_affinity",
    "self_expressive_residual",
]

MODE_SOFTMAX = "softmax"
MODE_RAW_SUM = "raw-sum"
AFFINITY_MODES = frozenset({MODE_SOFTMAX, MODE_RAW_SUM})

# Raw-sum rows with |sum phi| <= this times sum |phi| cannot be normalized.
# Accepted rows have sum_j |C_ij| <= 1 / tol and sum to 1 within L*eps/tol.
DEGENERATE_ROW_TOL = 1e-4

_NORM_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """A single finite state vector of dimension >= 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError(f"state must be a nonempty vector, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("state entries must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def default_temperature(dim: int) -> float:
    """Default softmax temperature sqrt(d) for state dimension d."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return math.sqrt(float(dim))


def compute_affinity(
    window: np.ndarray,
    mode: str = MODE_SOFTMAX,
    temperature: float | None = None,
) -> np.ndarray:
    """Row-normalized affinity of a window with itself.

    Args:
        window: L x d float array, L >= 1, oldest state first.
        mode: "softmax" (row softmax of dot products / temperature) or
            "raw-sum" (each row divided by its plain sum).
        temperature: softmax temperature; defaults to sqrt(d). Must be
            omitted in raw-sum mode.

    Returns:
        The read-only L x L affinity; row i weighs the window for state i.

    Raises:
        NonFiniteAffinity: some dot product is not finite.
        DegenerateRow: raw-sum mode and some row has
            |sum phi| <= DEGENERATE_ROW_TOL * sum |phi|.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 2 or window.shape[0] < 1 or window.shape[1] < 1:
        raise ValueError(f"window must be a nonempty L x d array, got shape {window.shape}")
    if mode not in AFFINITY_MODES:
        raise ValueError(f"unknown affinity mode {mode!r}")
    with np.errstate(over="ignore"):
        gram = window @ window.T
    if not np.isfinite(gram).all():
        raise NonFiniteAffinity("window dot products overflow float64")
    if mode == MODE_SOFTMAX:
        if temperature is None:
            temperature = default_temperature(window.shape[1])
        if not temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        logits = gram / temperature
        # Shift by the row max so exp never overflows.
        shifted = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        entries = weights / weights.sum(axis=1, keepdims=True)
    else:
        if temperature is not None:
            raise ValueError("temperature applies to softmax mode only")
        row_sums = gram.sum(axis=1)
        magnitudes = np.abs(gram).sum(axis=1)
        # <= so that an all-zero row (a zero state) is degenerate too.
        bad = np.flatnonzero(np.abs(row_sums) <= DEGENERATE_ROW_TOL * magnitudes)
        if bad.size:
            row = int(bad[0])
            raise DegenerateRow(
                f"row {row} has |sum phi| = {abs(float(row_sums[row])):.3e}, at most"
                f" {DEGENERATE_ROW_TOL:.0e} of sum |phi| = {float(magnitudes[row]):.3e}"
            )
        entries = gram / row_sums[:, None]
    entries.flags.writeable = False
    return entries


def self_expressive_residual(window: np.ndarray, affinity: np.ndarray) -> float:
    """Relative reconstruction defect ||S - C S||_F / max(||S||_F, 1e-12).

    S is the L x d window and C its L x L affinity.
    """
    if len(window) == 0:
        raise ValueError("cannot score an empty window")
    if affinity.shape != (len(window), len(window)):
        raise DimensionMismatch(
            f"affinity has shape {affinity.shape}, window has {len(window)} states"
        )
    defect = window - affinity @ window
    return float(np.linalg.norm(defect) / max(np.linalg.norm(window), _NORM_FLOOR))
