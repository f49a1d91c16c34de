"""Closed-form streaming correction of latent-state sequences.

run_stream corrects a T x d stream of states in arrival order. At frame t
the window is the current state plus its window_k most recent
predecessors, a row-normalized affinity is computed over it, and the
corrected state is the current frame's affinity row applied to the
window. No training, no iteration.

Two buffer policies control what the window holds: "store-raw" keeps the
observed states (the default; feedback cannot compound smoothing),
"store-corrected" writes each corrected state back into the buffer once
its frame is done.

Frames past the first window_k all have full windows, which are views
into the buffer taken in blocks of BLOCK_FRAMES. Under store-raw a
block's windows are known up front, so one compute_affinity call
corrects the whole block. Under store-corrected each output enters the
next windows, so the block's frames go through ssr_step one at a time,
as do the first window_k frames (shorter windows) under either policy.
Residuals are taken per block in both cases.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# Full windows handled per block. At window_k = 64 each (BLOCK_FRAMES, 65,
# 65) temporary takes about 0.5 MB; larger blocks ran no faster on the
# window sweep but raised its peak RSS.
BLOCK_FRAMES = 16


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
    config: SsrConfig,
    states: np.ndarray,
    *,
    residuals: bool = True,
    keep_affinities: Iterable[int] = (),
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray | None]:
    """Correct a T x d stream of states in arrival order.

    The window at frame t is rows max(0, t - k) .. t of the buffer. Under
    store-corrected, row t takes the corrected state only after frame t
    is scored, so each affinity and residual sees the raw current state.

    Args:
        config: corrector settings.
        states: T x d array of incoming states (not modified).
        residuals: also compute the per-frame self-expression residuals.
        keep_affinities: frames whose affinities to return.

    Returns:
        (T x d corrected states, {frame: read-only affinity} for the
        kept frames, the T residuals or None). A numeric error raised on
        the way has its frame attribute set to the failing frame.
    """
    raw = np.asarray(states, dtype=np.float64)
    if raw.ndim != 2:
        raise DimensionMismatch(f"states must form a T x d array, got shape {raw.shape}")
    length, k = len(raw), config.window_k
    feedback = config.buffer_policy == STORE_CORRECTED
    if feedback:
        # the windows read the outputs, written over a copy of the inputs
        buf = corrected = raw.copy()
    else:
        buf, corrected = raw, np.empty_like(raw)
    scores = np.empty(length) if residuals else None
    keep = set(keep_affinities)
    kept: dict[int, np.ndarray] = {}
    frame = 0
    try:
        # Warm-up: windows shorter than k + 1, one frame at a time.
        for frame in range(min(k, length)):
            window = buf[: frame + 1]
            row, affinity = ssr_step(window, config)
            if scores is not None:
                scores[frame] = self_expressive_residual(window, affinity)
            if frame in keep:
                kept[frame] = affinity
            corrected[frame] = row
        if length > k:
            # windows[i] is the (k + 1) x d view of buffer rows i .. i + k
            windows = sliding_window_view(buf, k + 1, axis=0).swapaxes(1, 2)
        for start in range(k, length, BLOCK_FRAMES):
            block = windows[start - k : start - k + BLOCK_FRAMES]
            stop = start + len(block)
            if feedback:
                # Each output enters the next windows, so frames go one by one.
                affinity = np.empty((len(block), k + 1, k + 1))
                for frame in range(start, stop):
                    buf[frame], affinity[frame - start] = ssr_step(block[frame - start], config)
                if scores is not None:
                    # the windows as each frame saw them: raw current state last
                    block = block.copy()
                    block[:, -1] = raw[start:stop]
            else:
                frame = start
                affinity = compute_affinity(block, config.mode, config.temperature)
                corrected[start:stop] = (affinity[:, -1:] @ block)[:, 0]
            if scores is not None:
                scores[start:stop] = self_expressive_residual(block, affinity)
            for t in keep.intersection(range(start, stop)):
                kept[t] = affinity[t - start].copy()
                kept[t].flags.writeable = False
    except NUMERIC_ERRORS as exc:
        exc.frame = frame + (exc.frame or 0)
        raise
    return corrected, kept, scores


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


def passthrough_step(incoming: StateVector | np.ndarray) -> StateVector | np.ndarray:
    """Identity baseline; returns its input (a state or a stream) unchanged."""
    return incoming
