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

Correction forms only each window's current affinity row, in one flow
for a stream and a (B, T, d) stack: a stream is a stack of one, and the
buffer policy alone picks the path. Under store-raw every window is known
before correction starts, so affinity.correct_current corrects them all:
one call per warm-up frame index over the B windows of that length, then
one call per stream over its full windows. Under store-corrected each
window holds earlier outputs, so a row loop corrects every frame, stream
by stream: a softmax row repeats correct_current's operations bit for
bit, a raw-sum row is a correct_current call.

Softmax residuals come from lag bands: the dot products x_t . x_{t-j},
j <= k, taken once over the stream, hold every window's Gram matrix G,
gathered in frame chunks; ||S - CS||^2 = tr((I - C) G (I - C)^T) then
needs no L x d product. Every raw-sum window, a window the Gram form
cannot vouch for to 1e-12, one with more rows than the state has entries
and a kept frame take the direct path instead: compute_affinity and
self_expressive_residual over a stack of equal-length windows. That path
checks every row of the windows it takes and raises each numeric error,
so with residuals or kept affinities every affinity is checked in full.

The two baselines take and return T x d streams as well: ema_fuse runs
the exponential recurrence over blocks of rows, passthrough_step is the
identity.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .affinity import (
    AFFINITY_MODES,
    MODE_SOFTMAX,
    compute_affinity,
    correct_current,
    default_temperature,
    self_expressive_residual,
)
from .errors import AlphaOutOfRange, DimensionMismatch, NumericError

__all__ = [
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

# float64 entries in each (frames, W, W) or (frames, L, d) temporary of the
# residual pass: 256 kB.
_CHUNK_ENTRIES = 2**15
# Gram traces outside this range go to the direct path: below it, underflow
# in the bands is no longer far below the trace's last bit; above it, the
# products and error estimates of the Gram form might overflow.
_GRAM_RANGE = (2.0**-900, 2.0**900)
# Softmax windows whose largest logit, |x|^2 / tau, exceeds this go to the
# direct path; below it no row's weights underflow, and no logit overflows.
_LOGIT_SPAN = 2048.0
# Rows of the EMA taken by one lower-triangular product.
_EMA_BLOCK = 32


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
        if self.temperature is not None and self.mode != MODE_SOFTMAX:
            raise ValueError("temperature applies to softmax mode only")
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
        states: T x d array of incoming states (not modified), or a
            (B, T, d) stack of streams, corrected into a (B, T, d) stack
            with residuals=False and no kept frames (else ValueError).
        residuals: also compute the per-frame self-expression residuals.
        keep_affinities: frames whose affinities to return; with any
            frame in range, every window is checked in full.

    Returns:
        (T x d corrected states, {frame: read-only affinity} for the
        kept frames, the T residuals or None). A numeric error raised on
        the way has its frame attribute set to the first failing frame,
        for a stack the first of some failing stream.
    """
    raw = np.asarray(states, dtype=np.float64)
    if raw.ndim == 3:
        if residuals or list(keep_affinities):
            raise ValueError("a (B, T, d) stack takes no residuals and no kept frames")
    elif raw.ndim != 2:
        raise DimensionMismatch(f"states must be T x d or (B, T, d), got shape {raw.shape}")
    streams = raw if raw.ndim == 3 else raw[None]  # a stream is a stack of one
    length, k = streams.shape[1], config.window_k
    feedback = config.buffer_policy == STORE_CORRECTED
    # with feedback the windows read the outputs, written over a copy of the inputs
    corrected = streams.copy() if feedback else np.empty_like(streams)
    mode, tau = config.mode, config.temperature
    if mode == MODE_SOFTMAX and tau is None and length:  # an empty T x 0 stream passes
        tau = default_temperature(streams.shape[2])
    frame, stop, failure = 0, length, None
    try:
        with np.errstate(all="ignore"):
            if feedback:
                # Each window holds earlier outputs: one row at a time, stream by stream.
                # A softmax row is correct_current of its window bit for bit (same
                # two-row gemm, same row ops) without its per-call checks;
                # correct_current forms raw-sum rows and raises a failing row's error.
                for out in corrected:
                    for frame in range(length):
                        window = out[max(frame - k, 0) : frame + 1]
                        if mode == MODE_SOFTMAX:
                            row = (window[-2:] @ window.T)[-1] / tau
                            peak, low = row.max(), row.min()
                            # min and max apart: NaN reaches both, their sum can overflow
                            if math.isfinite(peak) and math.isfinite(low):
                                row -= peak
                                np.exp(row, out=row)
                                row /= row.sum()
                                out[frame] = row[None] @ window
                                continue
                        out[frame] = correct_current(window[None], mode, tau)[0]
            else:
                # Every window is known: the B warm-up windows of each length (zero rows
                # padding them to k + 1 would change how their sums round), then each
                # stream's full windows, as the (k + 1) x d views of its rows i .. i + k
                for frame in range(min(k, length)):
                    corrected[:, frame] = correct_current(streams[:, : frame + 1], mode, tau)
                if k < length:
                    frame = k
                    for buf, out in zip(streams, corrected):
                        windows = sliding_window_view(buf, k + 1, axis=0).swapaxes(1, 2)
                        out[k:] = correct_current(windows, mode, tau)
    except NumericError as exc:
        # exc.frame indexes the call's windows: a row's call holds one, a warm-up
        # call one per stream, a full-window call those of frames k, k + 1, ...
        exc.frame = frame if frame < k else frame + exc.frame
        # An earlier frame's full affinity may fail first; it is formed below.
        failure, stop = exc, exc.frame + 1
    keep = {t for t in keep_affinities if 0 <= t < length}
    scores, kept = None, {}
    if residuals or keep:
        # Every window up to the first failure is checked in full, kept frames past it
        # or not; raw-sum ones and those the banded pass cannot vouch for go direct.
        buf, keep = (corrected if feedback else streams)[0], {t for t in keep if t < stop}
        if mode == MODE_SOFTMAX:
            scores = _banded_residuals(buf, raw, k, tau, stop, feedback)
        else:
            scores = np.full(stop, np.nan)
        direct = np.isnan(scores)
        direct[list(keep)] = True
        frames = np.flatnonzero(direct)
        sizes = np.minimum(frames, k) + 1  # window lengths, ascending with the frames
        # not np.unique, which imports numpy.ma (about 1.5 MB of peak RSS)
        for size in sorted(set(sizes.tolist())):
            group = frames[sizes == size]
            step = max(1, _CHUNK_ENTRIES // (size * max(size, raw.shape[1])))
            for i in range(0, len(group), step):
                t = group[i : i + step]
                stack = buf[t[:, None] + np.arange(1 - size, 1)]
                # the windows as each frame saw them: raw current state last
                stack[:, -1] = raw[t]
                try:
                    affinity = compute_affinity(stack, config.mode, config.temperature)
                except NumericError as exc:
                    exc.frame = int(t[exc.frame])
                    raise
                scores[t] = self_expressive_residual(stack, affinity)
                for j, frame in enumerate(t.tolist()):
                    if frame in keep:
                        kept[frame] = affinity[j].copy()
                        kept[frame].flags.writeable = False
    if failure is not None:
        raise failure
    return corrected if raw.ndim == 3 else corrected[0], kept, scores if residuals else None


def _banded_residuals(buf, raw, k, tau, stop, feedback) -> np.ndarray:
    """Residuals of frames 0 .. stop - 1 from lag bands; NaN where the Gram form cannot vouch.

    Window t has the L = min(t, k) + 1 rows buf[t - L + 1 .. t - 1] and
    raw[t] (buf holds the corrected states with feedback, else the raw
    ones), and its Gram matrix G holds only dot products of rows at most
    k apart: the lag bands x_s . x_{s-j}, j <= k, taken once over the
    stream. Windows up to W = min(k + 1, d) rows are gathered W x W, a
    shorter one after W - L zero rows whose logits are -inf (weight
    exactly 0), W^2 entries per frame where the direct form takes L d.
    With D = I - C, ||S - CS||^2 = sum((D G) * D) needs no L x d product.

    The value's error estimate (probabilistic rounding constants, sqrt(n)
    per n-term sum; Higham & Mary, SIAM J. Sci. Comput. 2019) covers the
    rounding of the bands against the direct Gram matrix, its effect on C,
    the cancellation in the Gram form and the direct form's own rounding.
    A window is NaN (for the direct path to decide) unless that estimate
    is below 1e-12 of the value, tr G lies in _GRAM_RANGE and no logit
    exceeds _LOGIT_SPAN, so every window that could fail a check reaches
    the direct path. Non-finite bands give NaN too. The Gram form serves
    softmax windows only; run_stream sends raw-sum windows direct.
    """
    d = buf.shape[1]
    width = min(k + 1, d)
    scores = np.full(stop, np.nan)
    # frames whose window fits in width rows: all of them when width = k + 1
    count = stop if width == k + 1 else min(stop, width)
    if count == 0:
        return scores
    with np.errstate(all="ignore"):
        # history[t] holds stream rows t - W + 1 .. t, zero rows before the start
        padded = np.zeros((count + width - 1, d))
        padded[width - 1 :] = buf[:count]
        history = sliding_window_view(padded, width, axis=0).swapaxes(1, 2)
        # bands[W - 1 + s, i] = x_s . x_{s-W+1+i}: lag W - 1 - i, zero rows ahead
        bands = np.zeros((count + width - 1, width))
        bands[width - 1 :] = (history @ buf[:count, :, None])[..., 0]
        if feedback:
            # the raw current state against the corrected history, then itself
            current = (history @ raw[:count, :, None])[..., 0]
            current[:, -1] = np.einsum("ij,ij->i", raw[:count], raw[:count])
        index = np.arange(width)
        lag = np.abs(index[:, None] - index)
        gather = np.maximum.outer(index, index) * width + width - 1 - lag
        step = max(1, _CHUNK_ENTRIES // width**2)
        for start in range(0, count, step):
            t = np.arange(start, min(count, start + step))
            gram = bands.ravel()[t[:, None, None] * width + gather]
            if feedback:
                gram[:, -1] = gram[:, :, -1] = current[t]
            scores[t] = _gram_residuals(gram, t, tau, d)
    return scores


def _gram_residuals(gram, t, tau, d) -> np.ndarray:
    """Residuals of frames t from their W x W Gram matrices, or NaN; see _banded_residuals.

    A frame t < W - 1 has W - 1 - t zero rows ahead of its first state.
    The error estimate of r = ||S - CS||, in units of u = 2**-53, is
    nu sum v^2 / 2r + |e| with v = |I - C| n over the row norms n: nu
    covers the rounding of the bands, of (I - C) G and of the two sums,
    and e_a the change in row a of CS that C's rounding in either form
    and the direct form's own product can make.
    """
    width = gram.shape[-1]
    index = np.arange(width)
    head = np.count_nonzero(t < width - 1)
    pad = index < (width - 1 - t[:head])[:, None]
    norms2 = gram[:, index, index]
    trace = norms2.sum(axis=-1)
    norms = np.sqrt(norms2)
    root_d, root_w = math.sqrt(d), math.sqrt(width)
    # |x_a . x_b| <= |x_a| max|x|: a shift at or above each row's max logit
    peak = norms.max(axis=-1)
    shift = norms * peak[:, None] / tau
    weights = gram / tau
    weights -= shift[..., None]
    np.copyto(weights[:head], -np.inf, where=pad[:, None, :])
    np.exp(weights, out=weights)
    weights /= np.einsum("fab->fa", weights)[..., None]
    np.copyto(weights[:head], 0.0, where=pad[..., None])
    reach = np.einsum("fab,fb->fa", weights, norms)
    # |I - C| n, as every C_ab >= 0 and C_aa <= 1
    spread = reach + (1.0 - 2.0 * weights[:, index, index]) * norms
    # logits move by about (2 sqrt d + 3) u |logit| in either form
    rounding = 2.0 * (2.0 * root_d + 3.0) * shift * spread
    rounding += (3.0 * root_w + 5.0) * reach
    defect = -weights  # I - C
    defect[:, index, index] += 1.0
    r2 = np.einsum("fab,fab->fa", defect @ gram, defect).sum(axis=-1)
    r = np.sqrt(r2)
    nu = root_d + 2.0 * root_w + 2.0
    estimate = nu * np.einsum("fa,fa->f", spread, spread)
    estimate += 2.0 * r * np.linalg.norm(rounding, axis=-1)
    vouched = (
        (2.0**-53 * estimate <= 2e-12 * r2)
        & ((r2 > 0.0) | (t == 0))  # frame 0: C = [[1]], exactly 0 in both forms
        & (trace >= _GRAM_RANGE[0])
        & (trace <= _GRAM_RANGE[1])
        # a row's largest weight is at least exp(-peak^2 / 4 tau): no underflow
        & (peak * peak / tau <= _LOGIT_SPAN)
    )
    return np.where(vouched, np.sqrt(r2 / trace), np.nan)


def ema_fuse(states: np.ndarray, alpha: float) -> np.ndarray:
    """EMA baseline over a T x d stream: row t is alpha x_t + (1 - alpha) y_{t-1}.

    Row 0 passes through. At alpha=1 the output equals the stream; at
    alpha=0 every row equals row 0. After row 0 the rows go in blocks of
    _EMA_BLOCK: with a = alpha and b = 1 - alpha, block rows s .. s + m - 1
    are one lower-triangular product P X, P_ij = a b^(i - j), plus b^(i + 1)
    times row s - 1. That rounds differently from the recurrence, within a
    bound that scales with the data; alpha 0 and 1 give P = 0 and P = I, so
    they stay exact. A non-finite entry spreads NaN to earlier rows of its
    block (0 * inf), so wherever the output is not finite, as non-finite
    input always leaves it, the rows come from the recurrence itself.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise DimensionMismatch(f"states must form a T x d array, got shape {states.shape}")
    fused = np.empty_like(states)
    fused[:1] = states[:1]
    decay = 1.0 - alpha
    with np.errstate(all="ignore"):
        lag = np.subtract.outer(np.arange(_EMA_BLOCK), np.arange(_EMA_BLOCK))
        blend = np.where(lag >= 0, alpha * decay ** np.maximum(lag, 0), 0.0)
        carry = decay ** np.arange(1, _EMA_BLOCK + 1)
        for start in range(1, len(states), _EMA_BLOCK):
            stop = min(start + _EMA_BLOCK, len(states))
            block = fused[start:stop]
            np.matmul(blend[: stop - start, : stop - start], states[start:stop], out=block)
            block += carry[: stop - start, None] * fused[start - 1]
        if np.isfinite(fused).all():
            return fused
        weighted = alpha * states
        for t in range(1, len(states)):
            fused[t] = weighted[t] + decay * fused[t - 1]
    return fused


def passthrough_step(states: np.ndarray) -> np.ndarray:
    """Identity baseline; returns its T x d stream unchanged."""
    return states
