"""Scoring of corrected streams against ground truth.

improvement_ratio compares mean corrected error to mean raw error:
1 - mean_corrected / max(mean_raw, 1e-12), except that equal means give
exactly 0 (so an identity method scores 0 even on a noiseless run where
the guarded division would otherwise report spurious improvement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import LengthMismatch
from .grassmann import span_membership_residual
from .regularizer import SsrConfig, run_stream
from .synth import (
    NoiseModel,
    ScenarioFrame,
    TrajectoryConfig,
    derive_trial_seed,
    generate_scenario,
)

__all__ = [
    "StepRecord",
    "RunSummary",
    "AblationRow",
    "score_run",
    "improvement_ratio",
    "ablate_window",
]

_RAW_FLOOR = 1e-12


@dataclass(frozen=True)
class StepRecord:
    """Per-frame scores; all fields are finite and nonnegative."""

    frame: int
    raw_error: float
    corrected_error: float
    subspace_residual: float
    se_residual: float

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("frame index must be nonnegative")
        for name in ("raw_error", "corrected_error", "subspace_residual", "se_residual"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")


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
    frames: list[ScenarioFrame],
    corrected: np.ndarray,
    se_residuals: list[float] | None = None,
) -> tuple[list[StepRecord], RunSummary]:
    """Score a corrected stream frame by frame.

    Args:
        frames: the scenario that produced the stream.
        corrected: the method's outputs, a T x d array aligned with frames.
        se_residuals: optional per-frame self-expression residuals
            (methods without a window report 0).

    Raises:
        LengthMismatch: input lengths differ.
    """
    if len(corrected) != len(frames):
        raise LengthMismatch(
            f"{len(frames)} frames but {len(corrected)} corrected states"
        )
    if se_residuals is None:
        se_residuals = [0.0] * len(frames)
    elif len(se_residuals) != len(frames):
        raise LengthMismatch(
            f"{len(frames)} frames but {len(se_residuals)} residuals"
        )
    records = []
    for t, (frame, state, se) in enumerate(zip(frames, corrected, se_residuals)):
        clean = frame.clean_state.values
        records.append(
            StepRecord(
                frame=t,
                raw_error=float(np.linalg.norm(frame.noisy_state.values - clean)),
                corrected_error=float(np.linalg.norm(state - clean)),
                subspace_residual=span_membership_residual(state, frame.truth_subspace),
                se_residual=float(se),
            )
        )
    return records, summarize(records)


def summarize(records: list[StepRecord]) -> RunSummary:
    """Fold per-frame records into a RunSummary."""
    if not records:
        raise LengthMismatch("cannot summarize an empty run")
    raw = np.array([r.raw_error for r in records])
    corr = np.array([r.corrected_error for r in records])
    mean_raw = float(raw.mean())
    mean_corr = float(corr.mean())
    tail_start = int(0.75 * len(records))
    return RunSummary(
        mean_raw_error=mean_raw,
        mean_corrected_error=mean_corr,
        improvement_ratio=improvement_ratio(mean_raw, mean_corr),
        tail_error_mean=float(corr[tail_start:].mean()),
        win_fraction=float(np.mean(corr < raw)),
    )


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
        generate_scenario(
            replace(trajectory, seed=derive_trial_seed(trajectory.seed, i)), noise
        )
        for i in range(trials)
    ]
    rows = []
    for k in sizes:
        config = replace(base, window_k=k)
        ratios = []
        for frames in scenarios:
            corrected, _, _ = run_stream(config, [f.noisy_state for f in frames])
            _, summary = score_run(frames, corrected)
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
