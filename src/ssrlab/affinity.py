"""Window affinities for streaming state vectors.

A window of L states is stacked into an L x d matrix (oldest first, the
current state in the last row). Pairwise similarity is the plain dot
product phi(x, y) = <x, y>; each row of the affinity matrix is that
row's similarities normalized to sum to one, either through a softmax
(entries nonnegative, numerically stable) or by dividing by the raw row
sum (entries may be negative; a near-zero row sum is a hard error).
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
    "ROW_SUM_TOL",
    "DEGENERATE_ROW_TOL",
    "StateVector",
    "StateWindow",
    "AffinityMatrix",
    "default_temperature",
    "compute_affinity",
    "self_expressive_residual",
]

MODE_SOFTMAX = "softmax"
MODE_RAW_SUM = "raw-sum"
AFFINITY_MODES = frozenset({MODE_SOFTMAX, MODE_RAW_SUM})

# Allowed deviation of each affinity row sum from 1.
ROW_SUM_TOL = 1e-9
# Raw-sum rows with |sum phi| below this cannot be normalized.
DEGENERATE_ROW_TOL = 1e-12

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


@dataclass(frozen=True, eq=False)
class StateWindow:
    """Bounded FIFO of states, oldest first; index L-1 is the current frame.

    The window may be empty only as the initial state of a stream; every
    affinity operation requires at least one state.
    """

    states: tuple[StateVector, ...]
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if len(self.states) > self.capacity:
            raise ValueError(
                f"window holds {len(self.states)} states, capacity {self.capacity}"
            )
        dims = {s.dim for s in self.states}
        if len(dims) > 1:
            raise DimensionMismatch(f"states have mixed dims {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        if not self.states:
            raise ValueError("empty window has no dimension")
        return self.states[0].dim

    @property
    def current(self) -> StateVector:
        if not self.states:
            raise ValueError("empty window has no current state")
        return self.states[-1]

    def push(self, state: StateVector) -> "StateWindow":
        """Append a state, evicting the oldest when at capacity."""
        if self.states and state.dim != self.dim:
            raise DimensionMismatch(
                f"incoming dim {state.dim} vs window dim {self.dim}"
            )
        states = (self.states + (state,))[-self.capacity:]
        return StateWindow(states=states, capacity=self.capacity)

    def replace_current(self, state: StateVector) -> "StateWindow":
        """Replace the newest entry (used by the store-corrected policy)."""
        if not self.states:
            raise ValueError("cannot replace in an empty window")
        if state.dim != self.dim:
            raise DimensionMismatch(
                f"replacement dim {state.dim} vs window dim {self.dim}"
            )
        return StateWindow(states=self.states[:-1] + (state,), capacity=self.capacity)

    def as_matrix(self) -> np.ndarray:
        """Stack the window into an L x d matrix, oldest row first."""
        if not self.states:
            raise ValueError("cannot stack an empty window")
        # np.array copies the same rows as np.stack with far less per-call overhead.
        return np.array([s.values for s in self.states])


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Row-normalized L x L affinity over a window.

    Softmax rows are convex weights; raw-sum rows sum to one but entries
    may be negative. temperature is set only in softmax mode.
    """

    entries: np.ndarray
    mode: str
    temperature: float | None = None

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"affinity must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("affinity must be at least 1 x 1")
        if not np.all(np.isfinite(entries)):
            raise ValueError("affinity entries must be finite")
        if self.mode not in AFFINITY_MODES:
            raise ValueError(f"unknown affinity mode {self.mode!r}")
        if self.mode == MODE_SOFTMAX:
            if self.temperature is None or not self.temperature > 0.0:
                raise ValueError("softmax mode requires a positive temperature")
            if np.any(entries < 0.0):
                raise ValueError("softmax affinity entries must be nonnegative")
        elif self.temperature is not None:
            raise ValueError("temperature applies to softmax mode only")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.abs(row_sums - 1.0).max())
            raise ValueError(f"affinity rows must sum to 1, worst defect {worst:.3e}")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def current_row(self) -> np.ndarray:
        """Weights the current frame assigns across the window."""
        return self.entries[-1]


def default_temperature(dim: int) -> float:
    """Default softmax temperature sqrt(d) for state dimension d."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return math.sqrt(float(dim))


def compute_affinity(
    window: StateWindow,
    mode: str = MODE_SOFTMAX,
    temperature: float | None = None,
) -> AffinityMatrix:
    """Row-normalized affinity of a nonempty window with itself.

    Args:
        window: nonempty StateWindow.
        mode: "softmax" (row softmax of dot products / temperature) or
            "raw-sum" (each row divided by its plain sum).
        temperature: softmax temperature; defaults to sqrt(d). Must be
            omitted in raw-sum mode.

    Raises:
        NonFiniteAffinity: some dot product overflows float64.
        DegenerateRow: raw-sum mode and some |row sum| < 1e-12.
    """
    if len(window) == 0:
        raise ValueError("cannot compute affinity of an empty window")
    if mode not in AFFINITY_MODES:
        raise ValueError(f"unknown affinity mode {mode!r}")
    stacked = window.as_matrix()
    with np.errstate(over="ignore"):
        gram = stacked @ stacked.T
    if not np.isfinite(gram).all():
        raise NonFiniteAffinity("window dot products overflow float64")
    if mode == MODE_SOFTMAX:
        if temperature is None:
            temperature = default_temperature(window.dim)
        if not temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        logits = gram / temperature
        # Shift by the row max so exp never overflows.
        shifted = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        entries = weights / weights.sum(axis=1, keepdims=True)
        return AffinityMatrix(entries=entries, mode=mode, temperature=float(temperature))
    if temperature is not None:
        raise ValueError("temperature applies to softmax mode only")
    row_sums = gram.sum(axis=1)
    bad = np.where(np.abs(row_sums) < DEGENERATE_ROW_TOL)[0]
    if bad.size:
        raise DegenerateRow(
            f"row {int(bad[0])} has |sum phi| = {abs(float(row_sums[bad[0]])):.3e}"
            f" < {DEGENERATE_ROW_TOL:.0e}"
        )
    entries = gram / row_sums[:, None]
    return AffinityMatrix(entries=entries, mode=mode, temperature=None)


def self_expressive_residual(window: StateWindow, affinity: AffinityMatrix) -> float:
    """Relative reconstruction defect ||S - C S||_F / max(||S||_F, 1e-12)."""
    if len(window) == 0:
        raise ValueError("cannot score an empty window")
    if affinity.size != len(window):
        raise DimensionMismatch(
            f"affinity is {affinity.size} x {affinity.size}, window has {len(window)} states"
        )
    stacked = window.as_matrix()
    defect = stacked - affinity.entries @ stacked
    return float(np.linalg.norm(defect) / max(np.linalg.norm(stacked), _NORM_FLOOR))

