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
so a stack of a stream's windows costs one call. They are run_stream's
direct path for every raw-sum window and for the softmax windows its
banded Gram form of the residual cannot vouch for, and the oracle that
form is tested against. correct_current (and, bit for bit, run_stream's
row loop) forms only each window's current row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateRow, DimensionMismatch, NonFiniteAffinity, SsrLabError

__all__ = [
    "MODE_SOFTMAX",
    "MODE_RAW_SUM",
    "AFFINITY_MODES",
    "default_temperature",
    "compute_affinity",
    "correct_current",
    "self_expressive_residual",
]

MODE_SOFTMAX = "softmax"
MODE_RAW_SUM = "raw-sum"
AFFINITY_MODES = frozenset({MODE_SOFTMAX, MODE_RAW_SUM})

# Raw-sum rows with |sum phi| <= this times sum |phi| cannot be normalized.
# Accepted rows have sum_j |C_ij| <= 1 / tol and sum to 1 within L*eps/tol.
DEGENERATE_ROW_TOL = 1e-4

# Below this norm a vector's squares may lose bits to underflow; above it
# their sum is at least 2**-968, and the at most 2**-1075 that each
# underflowing square loses lies far below the sum's last bit.
_SCALED_NORM_BELOW = 2.0**-484


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
        NonFiniteAffinity: some dot product, or in softmax mode some
            dot product divided by the temperature, is not finite.
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
    entries = _normalized(window, np.swapaxes(window, -1, -2), mode, temperature)
    entries.flags.writeable = False
    return entries


def correct_current(
    windows: np.ndarray, mode: str = MODE_SOFTMAX, temperature: float | None = None
) -> np.ndarray:
    """F x d current states of an F x L x d stack, each corrected by its affinity row.

    Forms that row alone, under compute_affinity's checks (mode and
    temperature are not validated again); an error's frame is the first
    failing window's index.
    """
    if mode == MODE_SOFTMAX and temperature is None:
        temperature = default_temperature(windows.shape[-1])
    # Two rows, not one: numpy hands a one-row product to gemv, but a
    # two-row one to gemm, which on small windows rounds exactly as the
    # Gram matrix of compute_affinity does.
    right = np.swapaxes(windows, 1, 2)
    weights = _normalized(windows[:, -2:], right, mode, temperature, current=True)
    return (weights @ windows)[:, 0]


def _normalized(left, right, mode, temperature, current=False) -> np.ndarray:
    """Rows of left @ right (only the last with current), checked and normalized.

    A stack's error has its frame set to the first failing window's flat index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dots = left @ right
        if current:
            dots = dots[..., -1:, :]
        # Softmax logits can overflow where the dot products do not.
        logits = dots / temperature if mode == MODE_SOFTMAX else dots
        finite = np.isfinite(logits).all(axis=(-2, -1))
        failed = ~finite
        if mode == MODE_RAW_SUM:
            row_sums = dots.sum(axis=-1)
            magnitudes = np.abs(dots).sum(axis=-1)
            # <= so that an all-zero row (a zero state) is degenerate too.
            degenerate = np.abs(row_sums) <= DEGENERATE_ROW_TOL * magnitudes
            failed |= degenerate.any(axis=-1)
            if not failed.any():
                return dots / row_sums[..., None]
        elif not failed.any():
            # In place: the same operations as out of place, one temporary.
            # Shift by the row max so exp never overflows; a shifted logit
            # may round to -inf, whose weight is exactly 0.
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=-1, keepdims=True)
            return logits
    index = int(np.flatnonzero(failed)[0])
    rows = dots.shape[-2]
    if not finite.reshape(-1)[index]:
        what = "dot products" if mode == MODE_RAW_SUM else "logits (dot products / temperature)"
        exc: SsrLabError = NonFiniteAffinity(f"window {what} overflow float64")
    else:
        row = int(np.flatnonzero(degenerate.reshape(-1, rows)[index])[0])
        exc = DegenerateRow(
            f"{f'row {row}' if rows > 1 else 'the current row'} has |sum phi| ="
            f" {abs(row_sums.reshape(-1, rows)[index, row]):.3e}, at most"
            f" {DEGENERATE_ROW_TOL:.0e} of sum |phi| ="
            f" {magnitudes.reshape(-1, rows)[index, row]:.3e}"
        )
    if left.ndim > 2:
        exc.frame = index
    raise exc


def self_expressive_residual(
    window: np.ndarray, affinity: np.ndarray
) -> float | np.ndarray:
    """Relative reconstruction defect ||S - C S||_F / ||S||_F; an all-zero S gives 0.

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
    norms = vector_norms(scaled.reshape(flat))
    value = vector_norms(defect.reshape(flat)) / np.where(norms > 0.0, norms, 1.0)
    return float(value) if window.ndim == 2 else value


def vector_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, measured so that it scales with the data.

    A vector gets np.linalg.norm's plain sum of squares, bit for bit;
    one whose norm comes out inf, NaN or below 2**-484, where squares may
    overflow or underflow, is measured again after exact scaling by the
    power of two just above its largest |entry| (Blue 1978; LAPACK
    dnrm2). Shared with ssrlab.metrics and ssrlab.grassmann, not in __all__.
    """

    def plain(v: np.ndarray) -> np.ndarray:
        return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])

    with np.errstate(over="ignore"):
        norms = np.asarray(plain(vectors))
        redo = ~((norms >= _SCALED_NORM_BELOW) & (norms < np.inf))
        if redo.any():
            rows = vectors[redo]
            shift = np.frexp(np.abs(rows).max(axis=-1))[1]
            norms[redo] = np.ldexp(plain(np.ldexp(rows, -shift[:, None])), shift)
    return norms
