"""Plain-list reference for the streaming corrector, written from the definition.

At each frame the window S is the last window_k stored rows plus the raw
incoming state. C is softmax(S S^T / tau) row by row (tau defaults to
sqrt(d)) or S S^T divided by its row sums. The frame reports C, the
residual ||S - C S||_F / ||S||_F and the output C[-1] @ S, then stores
the output (store-corrected) or the raw state (store-raw).

A window fails when some dot product is not finite, or, in raw-sum mode,
when some row has |sum phi| <= DEGENERATE_ROW_TOL * sum |phi|; the
oracle then raises WindowFailure naming the frame.
"""

import math

import numpy as np

from ssrlab.affinity import DEGENERATE_ROW_TOL


class WindowFailure(Exception):
    """The window at frame cannot be normalized; kind names the error type."""

    def __init__(self, kind, frame):
        super().__init__(f"{kind} at frame {frame}")
        self.kind = kind
        self.frame = frame


def list_oracle(states, window_k, mode="softmax", temperature=None, policy="store-raw"):
    """Returns (outputs, affinities, residuals), one entry per frame."""
    stored, outputs, affinities, residuals = [], [], [], []
    for frame, incoming in enumerate(states):
        window = np.array(stored[-window_k:] + [np.asarray(incoming, dtype=np.float64)])
        with np.errstate(over="ignore", invalid="ignore"):
            gram = window @ window.T
        if not np.isfinite(gram).all():
            raise WindowFailure("NonFiniteAffinity", frame)
        if mode == "softmax":
            tau = temperature if temperature is not None else math.sqrt(window.shape[1])
            logits = gram / tau
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            c = weights / weights.sum(axis=1, keepdims=True)
        else:
            sums = gram.sum(axis=1)
            if np.any(np.abs(sums) <= DEGENERATE_ROW_TOL * np.abs(gram).sum(axis=1)):
                raise WindowFailure("DegenerateRow", frame)
            c = gram / sums[:, None]
        out = c[-1] @ window
        affinities.append(c)
        residuals.append(np.linalg.norm(window - c @ window) / np.linalg.norm(window))
        outputs.append(out)
        stored.append(out if policy == "store-corrected" else window[-1])
    return outputs, affinities, residuals
