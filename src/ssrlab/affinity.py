"""Window affinities for streaming state vectors.

A window is an L x d float array of L states, oldest first, with the
current state in the last row. Pairwise similarity is the plain dot
product phi(x, y) = <x, y>; each row of the L x L affinity is that row's
similarities normalized to sum to one, either through a softmax (entries
nonnegative, numerically stable) or by dividing by the raw row sum
(entries may be negative). A raw-sum row whose sum is tiny next to the
magnitudes it sums, |sum phi| <= DEGENERATE_ROW_TOL * sum |phi|, is a
hard error: its entries, and so the corrected state, would blow up.

compute_affinity and self_expressive_residual also take a stack of
windows, (..., L, d), and treat every window exactly as they treat one,
so a block of a stream's windows costs one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRow, DimensionMismatch, NonFiniteAffinity, SsrLabError

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
    """Row-normalized affinity of a window, or of a stack of windows, with itself.

    Args:
        window: L x d float array, L >= 1, oldest state first, or a
            stack of such windows with shape (..., L, d).
        mode: "softmax" (row softmax of dot products / temperature) or
            "raw-sum" (each row divided by its plain sum).
        temperature: softmax temperature; defaults to sqrt(d). Must be
            omitted in raw-sum mode.

    Returns:
        The read-only (..., L, L) affinity; row i weighs the window for
        state i.

    Raises:
        NonFiniteAffinity: some dot product is not finite.
        DegenerateRow: raw-sum mode and some row has
            |sum phi| <= DEGENERATE_ROW_TOL * sum |phi|.
        For a stack, the error is the one of the first failing window in
        C order, and its frame attribute is that window's flat index.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2 or window.shape[-2] < 1 or window.shape[-1] < 1:
        raise ValueError(f"window must be a nonempty L x d array, got shape {window.shape}")
    if mode not in AFFINITY_MODES:
        raise ValueError(f"unknown affinity mode {mode!r}")
    if mode == MODE_SOFTMAX:
        if temperature is None:
            temperature = default_temperature(window.shape[-1])
        if not temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
    elif temperature is not None:
        raise ValueError("temperature applies to softmax mode only")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = window @ np.swapaxes(window, -1, -2)
        finite = np.isfinite(gram).all(axis=(-2, -1))
        failed = ~finite
        if mode == MODE_RAW_SUM:
            row_sums = gram.sum(axis=-1)
            magnitudes = np.abs(gram).sum(axis=-1)
            # <= so that an all-zero row (a zero state) is degenerate too.
            degenerate = np.abs(row_sums) <= DEGENERATE_ROW_TOL * magnitudes
            failed |= degenerate.any(axis=-1)
    if failed.any():
        index = int(np.flatnonzero(failed)[0])
        if not finite.reshape(-1)[index]:
            exc: SsrLabError = NonFiniteAffinity("window dot products overflow float64")
        else:
            size = gram.shape[-1]
            row = int(np.flatnonzero(degenerate.reshape(-1, size)[index])[0])
            row_sum = float(row_sums.reshape(-1, size)[index, row])
            magnitude = float(magnitudes.reshape(-1, size)[index, row])
            exc = DegenerateRow(
                f"row {row} has |sum phi| = {abs(row_sum):.3e}, at most"
                f" {DEGENERATE_ROW_TOL:.0e} of sum |phi| = {magnitude:.3e}"
            )
        if window.ndim > 2:
            exc.frame = index
        raise exc
    if mode == MODE_SOFTMAX:
        # In place: the same operations as out of place, one temporary.
        entries = gram / temperature
        # Shift by the row max so exp never overflows.
        entries -= entries.max(axis=-1, keepdims=True)
        np.exp(entries, out=entries)
        entries /= entries.sum(axis=-1, keepdims=True)
    else:
        entries = gram / row_sums[..., None]
    entries.flags.writeable = False
    return entries


def self_expressive_residual(
    window: np.ndarray, affinity: np.ndarray
) -> float | np.ndarray:
    """Relative reconstruction defect ||S - C S||_F / max(||S||_F, 1e-12).

    S is the L x d window and C its L x L affinity, or stacks of both
    with shapes (..., L, d) and (..., L, L). S is first scaled by the
    power of two just above its largest |entry|: the scaling is exact,
    so the ratio is that of S itself, and no square can overflow.

    Returns:
        A float for one window, an array of shape (...) for a stack.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2 or window.shape[-2] == 0:
        raise ValueError("cannot score an empty window")
    if affinity.shape != window.shape[:-1] + (window.shape[-2],):
        raise DimensionMismatch(
            f"affinity has shape {affinity.shape}, window has shape {window.shape}"
        )
    peak = np.maximum(window.max(axis=(-2, -1)), -window.min(axis=(-2, -1)))
    scaled = np.ldexp(window, -np.frexp(peak)[1][..., None, None])
    defect = scaled - affinity @ scaled
    flat = window.shape[:-2] + (-1,)
    value = vector_norms(defect.reshape(flat)) / np.maximum(
        vector_norms(scaled.reshape(flat)), _NORM_FLOOR
    )
    return float(value) if window.ndim == 2 else value


def vector_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bit for bit np.linalg.norm of each vector.

    A numeric helper shared with ssrlab.metrics, not part of __all__.
    """
    return np.sqrt((vectors[..., None, :] @ vectors[..., :, None])[..., 0, 0])
