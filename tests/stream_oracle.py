"""Plain-list reference for the streaming corrector, written from the definition.

At each frame the window S is the last window_k stored rows plus the raw
incoming state. C is softmax(S S^T / tau) row by row (tau defaults to
sqrt(d)) or S S^T divided by its row sums. The frame reports C, the
residual ||S - C S||_F / ||S||_F and the output C[-1] @ S, then stores
the output (store-corrected) or the raw state (store-raw).

A window fails when some dot product is not finite, or, in softmax mode,
some dot product divided by tau; in raw-sum mode also when some row has
|sum phi| <= DEGENERATE_ROW_TOL * sum |phi|. Only the current row is
checked unless full is set, as when the caller asks for residuals or
affinities and so for every row of C. The oracle then raises
WindowFailure naming the frame.

padded_banded_residuals is the residual pass's lag bands taken over a
zero-padded copy of the stream, the form the pass had before it took
views of the stream itself.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import ssrlab.regularizer as regularizer
from ssrlab.affinity import DEGENERATE_ROW_TOL


class WindowFailure(Exception):
    """The window at frame cannot be normalized; kind names the error type."""

    def __init__(self, kind, frame):
        super().__init__(f"{kind} at frame {frame}")
        self.kind = kind
        self.frame = frame


def list_oracle(states, window_k, mode="softmax", temperature=None, policy="store-raw", full=True):
    """Returns (outputs, affinities, residuals), one entry per frame.

    Without full, rows past the current one are left unchecked, and so
    are the affinities and residuals they enter.
    """
    checked = slice(None) if full else slice(-1, None)
    stored, outputs, affinities, residuals = [], [], [], []
    for frame, incoming in enumerate(states):
        window = np.array(stored[-window_k:] + [np.asarray(incoming, dtype=np.float64)])
        tau = temperature if temperature is not None else math.sqrt(window.shape[1])
        with np.errstate(all="ignore"):
            gram = window @ window.T
            logits = gram / tau
            if not np.isfinite((gram if mode == "raw-sum" else logits)[checked]).all():
                raise WindowFailure("NonFiniteAffinity", frame)
            if mode == "softmax":
                weights = np.exp(logits - logits.max(axis=1, keepdims=True))
                c = weights / weights.sum(axis=1, keepdims=True)
            else:
                sums = gram.sum(axis=1)
                magnitudes = np.abs(gram).sum(axis=1)
                if np.any((np.abs(sums) <= DEGENERATE_ROW_TOL * magnitudes)[checked]):
                    raise WindowFailure("DegenerateRow", frame)
                c = gram / sums[:, None]
            residuals.append(np.linalg.norm(window - c @ window) / np.linalg.norm(window))
        out = c[-1] @ window
        affinities.append(c)
        outputs.append(out)
        stored.append(out if policy == "store-corrected" else window[-1])
    return outputs, affinities, residuals


def padded_banded_residuals(buf, raw, window_k, tau, stop, feedback):
    """regularizer._banded_residuals with its stream zero-padded to (T + W - 1) x d.

    The banded pass as first written: every frame's W x d history is a
    view of one padded copy of buf, with W - 1 zero rows ahead of frame 0.
    The residuals of each chunk of Gram matrices come from
    regularizer._gram_residuals, so a comparison checks how the lag bands
    are taken, not the Gram form.
    """
    d = buf.shape[1]
    width = min(window_k + 1, d)
    scores = np.full(stop, np.nan)
    count = stop if width == window_k + 1 else min(stop, width)
    if count == 0:
        return scores
    with np.errstate(all="ignore"):
        padded = np.zeros((count + width - 1, d))
        padded[width - 1 :] = buf[:count]
        history = sliding_window_view(padded, width, axis=0).swapaxes(1, 2)
        bands = np.zeros((count + width - 1, width))
        bands[width - 1 :] = (history @ buf[:count, :, None])[..., 0]
        if feedback:
            current = (history @ raw[:count, :, None])[..., 0]
            current[:, -1] = np.einsum("ij,ij->i", raw[:count], raw[:count])
        index = np.arange(width)
        lag = np.abs(index[:, None] - index)
        gather = np.maximum.outer(index, index) * width + width - 1 - lag
        step = max(1, regularizer._CHUNK_ENTRIES // width**2)
        for start in range(0, count, step):
            t = np.arange(start, min(count, start + step))
            gram = bands.ravel()[t[:, None, None] * width + gather]
            if feedback:
                gram[:, -1] = gram[:, :, -1] = current[t]
            scores[t] = regularizer._gram_residuals(gram, t, tau, d)
    return scores
