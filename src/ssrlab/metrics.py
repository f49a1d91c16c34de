"""Scoring of corrected streams against ground truth.

score_run scores a whole stream against a StackedScenario (the
scenario's clean and noisy states, stacked once and shared by every
method scored on it) in one array pass and returns the per-frame
scores as one T x 4 array, columns SCORE_COLUMNS: the raw and corrected
distances to the clean state, the corrected state's relative distance
from the true subspace, and the self-expression residual.

improvement_ratio compares mean corrected error to mean raw error:
1 - mean_corrected / max(mean_raw, 1e-12), except that equal means give
exactly 0 (so an identity method scores 0 even on a noiseless run where
the guarded division would otherwise report spurious improvement).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .affinity import vector_norms
from .errors import DimensionMismatch, InvalidScore, LengthMismatch
from .regularizer import SsrConfig, run_stream
from .synth import (
    NoiseModel,
    ScenarioFrame,
    TrajectoryConfig,
    derive_trial_seed,
    generate_scenario,
)

__all__ = [
    "SCORE_COLUMNS",
    "StackedScenario",
    "RunSummary",
    "AblationRow",
    "score_run",
    "improvement_ratio",
    "ablate_window",
]

SCORE_COLUMNS = ("raw_error", "corrected_error", "subspace_residual", "se_residual")

_RAW_FLOOR = 1e-12
_NORM_FLOOR = 1e-12
# Frames per stacked block of subspace bases in score_run.
_BASIS_BLOCK = 64


@dataclass(frozen=True, eq=False)
class StackedScenario:
    """A scenario with its clean and noisy states stacked as read-only T x n arrays.

    Stack a scenario once: the methods run on its noisy array, and every
    method and window size scored against it reads the same arrays.
    """

    frames: list[ScenarioFrame]
    clean: np.ndarray = field(init=False)
    noisy: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("clean", "noisy"):
            states = np.array([getattr(f, f"{name}_state").values for f in self.frames])
            states.flags.writeable = False
            object.__setattr__(self, name, states)


@dataclass(frozen=True)
class RunSummary:
    """Aggregate scores for one corrected stream."""

    mean_raw_error: float
    mean_corrected_error: float
    improvement_ratio: float
    tail_error_mean: float
    win_fraction: float

    def __post_init__(self) -> None:
        if self.improvement_ratio > 1.0:
            raise ValueError("improvement_ratio cannot exceed 1")
        if not 0.0 <= self.win_fraction <= 1.0:
            raise ValueError("win_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class AblationRow:
    """Mean and spread of improvement_ratio for one window size."""

    window_k: int
    mean_improvement_ratio: float
    std_improvement_ratio: float


def improvement_ratio(mean_raw: float, mean_corrected: float) -> float:
    """Fraction of mean raw error removed; equal means give exactly 0."""
    if mean_corrected == mean_raw:
        return 0.0
    return 1.0 - mean_corrected / max(mean_raw, _RAW_FLOOR)


def score_run(
    scenario: StackedScenario,
    corrected: np.ndarray,
    se_residuals: np.ndarray | None = None,
) -> tuple[np.ndarray, RunSummary]:
    """Score a corrected stream against its scenario in one array pass.

    Args:
        scenario: the stacked scenario that produced the stream.
        corrected: the method's outputs, a T x d array aligned with frames.
        se_residuals: optional per-frame self-expression residuals
            (methods without a window report 0).

    Returns:
        (T x 4 scores, columns SCORE_COLUMNS; the run's summary).

    Raises:
        LengthMismatch: the run is empty or input lengths differ.
        DimensionMismatch: corrected is not shaped like the clean states.
        InvalidScore: some score is not finite and nonnegative; its frame
            attribute is the first such frame.
    """
    corrected = np.asarray(corrected, dtype=np.float64)
    frames, clean, noisy = scenario.frames, scenario.clean, scenario.noisy
    length = len(frames)
    if len(corrected) != length:
        raise LengthMismatch(f"{length} frames but {len(corrected)} corrected states")
    if se_residuals is not None and len(se_residuals) != length:
        raise LengthMismatch(f"{length} frames but {len(se_residuals)} residuals")
    if length == 0:
        raise LengthMismatch("cannot summarize an empty run")
    if corrected.shape != clean.shape:
        raise DimensionMismatch(
            f"corrected states have shape {corrected.shape}, the scenario {clean.shape}"
        )
    scores = np.zeros((length, len(SCORE_COLUMNS)))
    with np.errstate(over="ignore", invalid="ignore"):
        scores[:, 0] = vector_norms(noisy - clean)
        scores[:, 1] = vector_norms(corrected - clean)
        for start in range(0, length, _BASIS_BLOCK):
            stop = min(start + _BASIS_BLOCK, length)
            bases = np.array([f.truth_subspace.basis for f in frames[start:stop]])
            scores[start:stop, 2] = _span_residuals(corrected[start:stop], bases)
    if se_residuals is not None:
        scores[:, 3] = se_residuals
    valid = (np.isfinite(scores) & (scores >= 0.0)).all(axis=1)
    if not valid.all():
        frame = int(np.flatnonzero(~valid)[0])
        exc = InvalidScore(
            f"frame scores {dict(zip(SCORE_COLUMNS, scores[frame].tolist()))}"
            " are not all finite and nonnegative"
        )
        exc.frame = frame
        raise exc
    raw, corr = scores[:, 0], scores[:, 1]
    mean_raw = float(raw.mean())
    mean_corr = float(corr.mean())
    summary = RunSummary(
        mean_raw_error=mean_raw,
        mean_corrected_error=mean_corr,
        improvement_ratio=improvement_ratio(mean_raw, mean_corr),
        tail_error_mean=float(corr[int(0.75 * length) :].mean()),
        win_fraction=float(np.mean(corr < raw)),
    )
    return scores, summary


def _span_residuals(vectors: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """grassmann.span_membership_residual of B vectors against B (n, r) bases."""
    coords = np.swapaxes(bases, 1, 2) @ vectors[:, :, None]
    leftover = vectors - (bases @ coords)[:, :, 0]
    value = vector_norms(leftover) / np.maximum(vector_norms(vectors), _NORM_FLOOR)
    return np.minimum(value, 1.0)


def ablate_window(
    sizes: list[int],
    trajectory: TrajectoryConfig,
    noise: NoiseModel,
    trials: int,
    ssr: SsrConfig | None = None,
) -> list[AblationRow]:
    """Sweep window_k over fresh trials of the same scenario family.

    Trial i runs on the scenario seeded by derive_trial_seed(seed, i),
    identical across sizes, so rows differ only through window_k. The
    std is the sample standard deviation across trials (0 for a single
    trial).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    base = ssr if ssr is not None else SsrConfig()
    scenarios = [
        StackedScenario(
            generate_scenario(
                replace(trajectory, seed=derive_trial_seed(trajectory.seed, i)), noise
            )
        )
        for i in range(trials)
    ]
    rows = []
    for k in sizes:
        config = replace(base, window_k=k)
        ratios = []
        for scenario in scenarios:
            corrected = run_stream(config, scenario.noisy, residuals=False)[0]
            _, summary = score_run(scenario, corrected)
            ratios.append(summary.improvement_ratio)
        values = np.array(ratios)
        std = float(values.std(ddof=1)) if trials > 1 else 0.0
        rows.append(
            AblationRow(
                window_k=k,
                mean_improvement_ratio=float(values.mean()),
                std_improvement_ratio=std,
            )
        )
    return rows
