"""Scoring of corrected streams against ground truth.

score_run scores a whole stream against its synth.Scenario (the clean
and noisy states as read-only arrays and the truth path as geodesic
pieces, shared by every method scored on it) in one array pass and
returns the per-frame scores as one T x 4 array, columns SCORE_COLUMNS:
the raw and corrected distances to the clean state, the corrected
state's relative distance from the true subspace (a few products per
piece, see grassmann.span_membership_residual), and the
self-expression residual.

Both runners, ablate_window and harness.run_experiment, take their
trials' scenarios in order from trial_scenarios, which steps the
coefficient walks of a block of trials together, and take means and
sample stds with mean_and_std. ablate_window corrects its trials as one
(trials, T, d) stack, one run_stream call per window size. It reports
improvement ratios alone, from each trial's mean raw error, taken once,
and each size's corrected errors: where every raw and corrected error
is finite, score_run's checks pass, and anywhere else score_run itself
scores the trial. So the ratios, and any error, are score_run's.

improvement_ratio compares mean corrected error to mean raw error:
1 - mean_corrected / mean_raw, with no floor, so it reads the same at
any scale of the data. Equal means give exactly 0 (an identity method
scores 0 even on a noiseless run). Where no finite ratio exists, a raw
error of exactly 0 under a positive corrected one or a quotient beyond
float64, it raises InvalidScore.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .affinity import _CHUNK_ENTRIES, vector_norms
from .errors import (
    DimensionMismatch,
    InvalidScenario,
    InvalidScore,
    LengthMismatch,
    NumericError,
    annotated,
    frame_named,
)
from .grassmann import span_membership_residual
from .regularizer import SsrConfig, run_stream
from .synth import (
    NoiseModel,
    Scenario,
    TrajectoryConfig,
    coefficient_walks,
    derive_trial_seed,
    generate_scenario,
)

__all__ = [
    "SCORE_COLUMNS",
    "RunSummary",
    "AblationRow",
    "score_run",
    "improvement_ratio",
    "ablate_window",
]

SCORE_COLUMNS = ("raw_error", "corrected_error", "subspace_residual", "se_residual")


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


def scaled_stat(values: np.ndarray, ddof: int | None = None) -> float:
    """values.mean(), or values.std(ddof=ddof), measured so that it scales with the data.

    The plain value is kept, bit for bit, unless it is not finite, as
    when a sum or square overflows though every value is finite; then it
    is taken again after exact scaling by the power of two just above the
    largest |value|, as in affinity.vector_norms. Shared with
    ssrlab.harness, not in __all__.
    """

    def plain(v: np.ndarray) -> np.floating:
        return v.mean() if ddof is None else v.std(ddof=ddof)

    with np.errstate(over="ignore", invalid="ignore"):
        value = plain(values)
        if not np.isfinite(value):
            shift = np.frexp(np.abs(values).max())[1]
            value = np.ldexp(plain(np.ldexp(values, -shift)), shift)
    return float(value)


def improvement_ratio(mean_raw: float, mean_corrected: float) -> float:
    """Fraction of mean raw error removed, 1 - mean_corrected / mean_raw; equal means give 0.

    Raises:
        InvalidScore: mean_raw is 0 under a positive mean_corrected, or
            the quotient overflows float64.
    """
    if mean_corrected == mean_raw:
        return 0.0
    quotient = mean_corrected / mean_raw if mean_raw > 0.0 else math.inf
    if not math.isfinite(quotient):
        raise InvalidScore(
            f"no finite improvement ratio: mean corrected error {mean_corrected:.3e}"
            f" over mean raw error {mean_raw:.3e}"
        )
    return 1.0 - quotient


def score_run(
    scenario: Scenario,
    corrected: np.ndarray,
    se_residuals: np.ndarray | None = None,
) -> tuple[np.ndarray, RunSummary]:
    """Score a corrected stream against its scenario in one array pass.

    The raw and corrected distances to the clean states are taken in row
    chunks of affinity._CHUNK_ENTRIES entries, so neither forms a
    T x n difference.

    Args:
        scenario: the scenario that produced the stream.
        corrected: the method's outputs, a T x d array aligned with frames.
        se_residuals: optional per-frame self-expression residuals
            (methods without a window report 0).

    Returns:
        (T x 4 scores, columns SCORE_COLUMNS; the run's summary).

    Raises:
        LengthMismatch: the run is empty or input lengths differ.
        DimensionMismatch: corrected is not shaped like the clean states.
        InvalidScore: some score is not finite and nonnegative; its frame
            attribute is the first such frame. The subspace residual
            scales with the data, so where the raw and corrected errors
            are finite every score is.
    """
    corrected = np.asarray(corrected, dtype=np.float64)
    clean, noisy, bases = scenario
    length = len(clean)
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
    scores[:, 0] = _distances(noisy, clean)
    scores[:, 1] = _distances(corrected, clean)
    with np.errstate(over="ignore", invalid="ignore"):
        scores[:, 2] = span_membership_residual(corrected, bases)
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
    mean_raw = scaled_stat(raw)
    mean_corr = scaled_stat(corr)
    summary = RunSummary(
        mean_raw_error=mean_raw,
        mean_corrected_error=mean_corr,
        improvement_ratio=improvement_ratio(mean_raw, mean_corr),
        tail_error_mean=scaled_stat(corr[int(0.75 * length) :]),
        win_fraction=float(np.mean(corr < raw)),
    )
    return scores, summary


def _distances(states: np.ndarray, clean: np.ndarray) -> np.ndarray:
    """vector_norms(states - clean), bit for bit, taken in row chunks of _CHUNK_ENTRIES entries.

    Each row's norm depends on that row alone, so the chunks keep every
    bit, the rescaled pass for an overflowing row included, and no T x n
    difference is formed.
    """
    distances = np.empty(len(states))
    step = max(1, _CHUNK_ENTRIES // max(1, states.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(states), step):
            rows = slice(start, start + step)
            distances[rows] = vector_norms(states[rows] - clean[rows])
    return distances


def trial_scenarios(
    trajectory: TrajectoryConfig, noise: NoiseModel, trials: int, noise_needed: bool = False
) -> Iterator[Scenario]:
    """Trial i's scenario, seeded by derive_trial_seed(seed, i), for i = 0 .. trials - 1.

    The coefficient walks of up to affinity._CHUNK_ENTRIES / (W r) trials
    are stepped together, one coefficient_walks call per block, so memory
    does not grow with trials; W is a walk's rows, T with a coefficient
    walk (state_drift > 0), else 1. Each trial's seed is derived just
    before its scenario is built. A numeric error is re-raised as "(scenario
    generation, trial=i): ...", keeping its frame. With noise_needed, a
    trial whose noisy states equal its clean ones bit for bit (every raw
    error exactly 0, at sigma 0 or where sigma rounds away) raises
    InvalidScenario naming noise.sigma, before any correction: no
    corrected error would have a finite improvement ratio. Shared with
    ssrlab.harness and ssrlab.cli, not in __all__.
    """
    rows = trajectory.length if trajectory.state_drift > 0.0 else 1
    block = max(1, _CHUNK_ENTRIES // (rows * trajectory.r))
    for first in range(0, trials, block):
        chunk = range(first, min(first + block, trials))
        for trial, walk in zip(chunk, coefficient_walks(trajectory, chunk)):
            yield _trial_scenario(trajectory, noise, trial, walk, noise_needed)


def _trial_scenario(trajectory, noise, trial, walk, noise_needed) -> Scenario:
    """One trial of trial_scenarios.

    A call of its own, so that the generator holds no trial's scenario
    while it builds the next (peak RSS). perfbench's tracer starts trial i
    at its derive_trial_seed call.
    """
    seed = derive_trial_seed(trajectory.seed, trial)
    try:
        scenario = generate_scenario(replace(trajectory, seed=seed), noise, walk)
        if noise_needed and not (scenario.noisy != scenario.clean).any():
            raise InvalidScenario(
                f"noise.sigma = {noise.sigma:.3e} leaves every noisy state equal to its clean"
                " state bit for bit, so every raw error is exactly 0 and only passthrough"
                " can be scored"
            )
    except NumericError as exc:
        raise annotated(exc, f"scenario generation, trial={trial}") from exc
    return scenario


def mean_and_std(values: np.ndarray) -> tuple[float, float]:
    """scaled_stat mean and sample std of values (std 0 for one value); shared, not in __all__."""
    std = scaled_stat(values, ddof=1) if len(values) > 1 else 0.0
    return scaled_stat(values), std


def _sweep_ratio(scenario: Scenario, corrected: np.ndarray, mean_raw: float) -> float:
    """score_run(scenario, corrected)'s improvement ratio, from the corrected errors alone.

    Where mean_raw and every corrected error are finite, every check in
    score_run passes (a Scenario's pieces are checked orthonormal);
    anywhere else score_run itself scores the trial.
    """
    errors = _distances(corrected, scenario.clean)
    if math.isfinite(mean_raw) and np.isfinite(errors).all():
        return improvement_ratio(mean_raw, scaled_stat(errors))
    return score_run(scenario, corrected)[1].improvement_ratio


def ablate_window(
    sizes: list[int],
    trajectory: TrajectoryConfig,
    noise: NoiseModel,
    trials: int,
    ssr: SsrConfig | None = None,
    timings: dict[str, float | dict[int, float]] | None = None,
) -> list[AblationRow]:
    """Sweep window_k over fresh trials of the same scenario family.

    Trial i runs on the i-th of trial_scenarios(trajectory, noise, trials,
    noise_needed=True), as every size corrects it, identical across sizes,
    so rows differ only through window_k. The noisy states fill one
    read-only (trials, T, d) stack, each scenario holding its row, and
    each size corrects it in one run_stream call. Each trial's mean raw
    error is taken once, and each size only the corrected errors: where
    every raw and corrected error is finite, score_run's checks pass, and
    anywhere else score_run itself scores the trial. So the ratios, and
    any error, are score_run's. The std is the sample standard deviation
    across trials (0 for a single trial). A numeric error names the
    window size, trial and frame: only when the stacked call raised is
    each trial corrected on its own, so the first failing trial raises.
    timings, if given, receives generate_s, correct_s, score_s,
    frames_per_s and correct_s_by_k, the correction seconds of each
    window size.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    base = ssr if ssr is not None else SsrConfig()
    start = perf_counter()
    try:
        noisy = np.empty((trials, trajectory.length, trajectory.n))
    except ValueError as exc:  # more entries than numpy can index: no memory holds them
        raise MemoryError(str(exc)) from exc
    scenarios = []
    for row, scenario in zip(noisy, trial_scenarios(trajectory, noise, trials, noise_needed=True)):
        row[...] = scenario.noisy
        row.flags.writeable = False
        scenarios.append(scenario._replace(noisy=row))
    noisy.flags.writeable = False
    seconds = {"generate_s": perf_counter() - start, "correct_s": 0.0}
    start = perf_counter()
    mean_raws = [scaled_stat(_distances(sc.noisy, sc.clean)) for sc in scenarios]
    seconds["score_s"] = perf_counter() - start
    correct_s_by_k: dict[int, float] = {}
    rows = []
    for k in sizes:
        config = replace(base, window_k=k)
        start = perf_counter()
        try:
            stack = run_stream(config, noisy, residuals=False)[0]
        except NumericError:
            stack = None  # each trial is corrected on its own below
        scoring = perf_counter()
        ratios = []
        for i, scenario in enumerate(scenarios):
            try:
                if stack is None:
                    corrected = run_stream(config, scenario.noisy, residuals=False)[0]
                else:
                    corrected = stack[i]
                ratios.append(_sweep_ratio(scenario, corrected, mean_raws[i]))
            except NumericError as exc:
                raise annotated(exc, frame_named(f"window_k={k}, trial={i}", exc)) from exc
        seconds["correct_s"] += scoring - start
        correct_s_by_k[k] = correct_s_by_k.get(k, 0.0) + scoring - start
        seconds["score_s"] += perf_counter() - scoring
        del stack, corrected  # before the next size's stack is allocated (peak RSS)
        rows.append(AblationRow(k, *mean_and_std(np.array(ratios))))
    if timings is not None:
        frames = len(sizes) * trials * trajectory.length
        timings.update(
            seconds, correct_s_by_k=correct_s_by_k, frames_per_s=frames / sum(seconds.values())
        )
    return rows
