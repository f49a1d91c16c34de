"""Plain-list reference for the streaming corrector, written from the definition.

At each frame the window S is the last window_k stored rows plus the raw
incoming state. C is softmax(S S^T / tau) row by row (tau defaults to
sqrt(d)) or S S^T divided by its row sums. The frame reports C, the
residual ||S - C S||_F / ||S||_F and the output C[-1] @ S, then stores
the output (store-corrected) or the raw state (store-raw).
"""

import math

import numpy as np


def list_oracle(states, window_k, mode="softmax", temperature=None, policy="store-raw"):
    """Returns (outputs, affinities, residuals), one entry per frame."""
    stored, outputs, affinities, residuals = [], [], [], []
    for incoming in states:
        window = np.array(stored[-window_k:] + [np.asarray(incoming, dtype=np.float64)])
        gram = window @ window.T
        if mode == "softmax":
            tau = temperature if temperature is not None else math.sqrt(window.shape[1])
            logits = gram / tau
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            c = weights / weights.sum(axis=1, keepdims=True)
        else:
            c = gram / gram.sum(axis=1, keepdims=True)
        out = c[-1] @ window
        affinities.append(c)
        residuals.append(np.linalg.norm(window - c @ window) / np.linalg.norm(window))
        outputs.append(out)
        stored.append(out if policy == "store-corrected" else window[-1])
    return outputs, affinities, residuals
