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

Correction forms only each window's current affinity row. One
affinity.correct_current call corrects all full windows under store-raw;
a row loop that repeats its operations bit for bit corrects the first
window_k (shorter) windows and, under store-corrected, every frame. The
full L x L affinities, all of whose rows are then checked, are formed
only for residuals and kept affinities, BLOCK_FRAMES windows per call.

The two baselines take and return T x d streams as well: ema_fuse runs
the exponential recurrence over the rows, passthrough_step is the identity.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .affinity import (
    AFFINITY_MODES,
    DEGENERATE_ROW_TOL,
    MODE_SOFTMAX,
    compute_affinity,
    correct_current,
    default_temperature,
    self_expressive_residual,
)
from .errors import AlphaOutOfRange, DimensionMismatch, NumericError

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

# Full windows per compute_affinity call for residuals and affinities; at
# window_k = 64 each (BLOCK_FRAMES, 65, 65) temporary takes about 0.5 MB.
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
    window = np.asarray(window, dtype=np.float64)[None]
    return correct_current(window, config.mode, config.temperature)[0], affinity


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
    is corrected, so each affinity and residual sees the raw current state.

    Args:
        config: corrector settings.
        states: T x d array of incoming states (not modified).
        residuals: also compute the per-frame self-expression residuals.
        keep_affinities: frames whose affinities to return.

    Returns:
        (T x d corrected states, {frame: read-only affinity} for the
        kept frames, the T residuals or None). A numeric error raised on
        the way has its frame attribute set to the first failing frame.
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
    if length > k:
        # windows[i] is the (k + 1) x d view of buffer rows i .. i + k
        windows = sliding_window_view(buf, k + 1, axis=0).swapaxes(1, 2)
    # The row loop takes windows shorter than k + 1 (padded with zeros, their
    # sums would round differently) and every store-corrected frame. Each row is
    # correct_current of its window bit for bit (same two-row gemm, same row
    # ops) without its per-call checks; correct_current raises a failing row's error.
    looped = length if feedback else min(k, length)
    mode, tau = config.mode, config.temperature
    if mode == MODE_SOFTMAX and tau is None and length:  # an empty T x 0 stream passes
        tau = default_temperature(raw.shape[1])
    frame, stop, failure = 0, length, None
    try:
        with np.errstate(all="ignore"):
            for frame in range(looped):
                window = buf[max(frame - k, 0) : frame + 1]
                row = (window[-2:] @ window.T)[-1]
                if mode == MODE_SOFTMAX:
                    row /= tau
                    peak, low = row.max(), row.min()
                    # min and max apart: NaN reaches both, their sum can overflow
                    ok = math.isfinite(peak) and math.isfinite(low)
                    row -= peak
                    np.exp(row, out=row)
                    row /= row.sum()
                else:
                    total = row.sum()
                    # False for a non-finite entry too: its magnitude is inf or NaN
                    ok = abs(total) > DEGENERATE_ROW_TOL * np.abs(row).sum()
                    row /= total
                corrected[frame] = (
                    row[None] @ window if ok else correct_current(window[None], mode, tau)[0]
                )
        if looped < length:
            frame = k
            corrected[k:] = correct_current(windows, mode, tau)
    except NumericError as exc:
        exc.frame += frame
        # An earlier frame's full affinity may fail first; it is formed below.
        failure, stop = exc, exc.frame + 1
    scores = np.empty(length) if residuals else None
    keep = set(keep_affinities)
    kept: dict[int, np.ndarray] = {}
    if residuals or keep:
        # The frames up to the first failure, warm-up frames one by one.
        starts = [*range(min(k, stop)), *range(k, stop, BLOCK_FRAMES)]
        for start, end in zip(starts, starts[1:] + [stop]):
            block = buf[: start + 1][None] if start < k else windows[start - k : end - k]
            if feedback:
                # the windows as each frame saw them: raw current state last
                block = block.copy()
                block[:, -1] = raw[start:end]
            try:
                affinity = compute_affinity(block, config.mode, config.temperature)
            except NumericError as exc:
                exc.frame += start
                raise
            if scores is not None:
                scores[start:end] = self_expressive_residual(block, affinity)
            for t in keep.intersection(range(start, end)):
                kept[t] = affinity[t - start].copy()
                kept[t].flags.writeable = False
    if failure is not None:
        raise failure
    return corrected, kept, scores


def ema_fuse(states: np.ndarray, alpha: float) -> np.ndarray:
    """EMA baseline over a T x d stream: row t is alpha x_t + (1 - alpha) y_{t-1}.

    Row 0 passes through. At alpha=1 the output equals the stream; at
    alpha=0 every row equals row 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise DimensionMismatch(f"states must form a T x d array, got shape {states.shape}")
    fused = np.empty_like(states)
    weighted = alpha * states
    decay = 1.0 - alpha
    fused[:1] = states[:1]
    for t in range(1, len(states)):
        fused[t] = weighted[t] + decay * fused[t - 1]
    return fused


def passthrough_step(states: np.ndarray) -> np.ndarray:
    """Identity baseline; returns its T x d stream unchanged."""
    return states
