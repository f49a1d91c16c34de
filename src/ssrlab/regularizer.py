"""Closed-form streaming correction of latent-state sequences.

run_stream stacks a sequence into one T x d buffer and walks it once.
At frame t the window is the current state plus its window_k most recent
predecessors, a row-normalized affinity is computed over it, and the
corrected state is the current frame's affinity row applied to the
window. No training, no iteration: one small matrix product per frame.

Two buffer policies control what the window holds: "store-raw" keeps the
observed states (the default; feedback cannot compound smoothing),
"store-corrected" writes each corrected state back into the buffer once
its frame is done.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .affinity import (
    AFFINITY_MODES,
    MODE_SOFTMAX,
    StateVector,
    compute_affinity,
    self_expressive_residual,
)
from .errors import NUMERIC_ERRORS, AlphaOutOfRange, DimensionMismatch

__all__ = [
    "STORE_RAW",
    "STORE_CORRECTED",
    "BUFFER_POLICIES",
    "SsrConfig",
    "ssr_step",
    "run_stream",
    "ema_fuse",
    "passthrough_step",
]

STORE_RAW = "store-raw"
STORE_CORRECTED = "store-corrected"
BUFFER_POLICIES = frozenset({STORE_RAW, STORE_CORRECTED})


@dataclass(frozen=True)
class SsrConfig:
    """Settings for the sliding-window corrector.

    Attributes:
        window_k: history length; the window holds at most window_k + 1
            states (history plus the current frame).
        mode: affinity normalization, "softmax" or "raw-sum".
        temperature: softmax temperature; None means sqrt(d), resolved
            from the first incoming state.
        buffer_policy: "store-raw" or "store-corrected".
    """

    window_k: int = 8
    mode: str = MODE_SOFTMAX
    temperature: float | None = None
    buffer_policy: str = STORE_RAW

    def __post_init__(self) -> None:
        if self.window_k < 1:
            raise ValueError("window_k must be at least 1")
        if self.mode not in AFFINITY_MODES:
            raise ValueError(f"unknown affinity mode {self.mode!r}")
        if self.temperature is not None and not self.temperature > 0.0:
            raise ValueError("temperature must be positive when given")
        if self.buffer_policy not in BUFFER_POLICIES:
            raise ValueError(f"unknown buffer policy {self.buffer_policy!r}")


def ssr_step(window: np.ndarray, config: SsrConfig) -> tuple[np.ndarray, np.ndarray]:
    """Correct the current (last) state of an L x d window.

    The corrected state is the current frame's affinity row applied to
    the window. A single-state window yields affinity [[1.0]] and
    returns its state unchanged.

    Returns:
        (corrected state, read-only L x L affinity)
    """
    affinity = compute_affinity(window, config.mode, config.temperature)
    if len(window) == 1:
        return window[0], affinity
    return affinity[-1] @ window, affinity


def run_stream(
    config: SsrConfig, states: Sequence[StateVector]
) -> tuple[np.ndarray, list[np.ndarray], list[float]]:
    """Correct a sequence in arrival order over one T x d buffer.

    The window at frame t is the view buf[max(0, t - k) : t + 1]. Under
    store-corrected, buf[t] takes the corrected state only after frame t
    is scored, so each affinity and residual sees the raw current state.

    Returns:
        (T x d corrected states, per-frame read-only affinities,
        per-frame self-expression residuals). A numeric error raised on
        the way has its frame attribute set to the failing frame.
    """
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionMismatch(f"states have mixed dims {sorted(dims)}")
    k = config.window_k
    buf = np.array([s.values for s in states])
    corrected = buf if config.buffer_policy == STORE_CORRECTED else np.empty_like(buf)
    affinities: list[np.ndarray] = []
    residuals: list[float] = []
    for t in range(len(buf)):
        window = buf[max(0, t - k) : t + 1]
        try:
            row, affinity = ssr_step(window, config)
        except NUMERIC_ERRORS as exc:
            exc.frame = t
            raise
        residuals.append(self_expressive_residual(window, affinity))
        affinities.append(affinity)
        corrected[t] = row
    return corrected, affinities, residuals


def ema_fuse(
    current: StateVector, previous: StateVector, alpha: float
) -> StateVector:
    """Two-frame exponential blend alpha * current + (1 - alpha) * previous.

    The endpoints are exact: alpha=1 returns current, alpha=0 returns
    previous, bit for bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    if current.dim != previous.dim:
        raise DimensionMismatch(
            f"current dim {current.dim} vs previous dim {previous.dim}"
        )
    if alpha == 1.0:
        return current
    if alpha == 0.0:
        return previous
    return StateVector(alpha * current.values + (1.0 - alpha) * previous.values)


def passthrough_step(incoming: StateVector) -> StateVector:
    """Identity baseline; returns the input unchanged."""
    return incoming
