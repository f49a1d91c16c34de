"""Experiment runner and deterministic result writers.

A run stacks each trial's scenario once (metrics.StackedScenario),
passes its T x d noisy array through every configured method (the
corrector is one run_stream call, which also yields the heatmaps and
residuals; the EMA baseline is one recurrence over the rows) and scores
each output against the same stacked scenario with one score_run pass,
which gives a T x 4 array of per-frame scores. All emitted payloads
(CSV, summary JSON, heatmap grids, ablation tables) are byte-identical
across reruns; the wall-clock timestamp lives in its own run_meta.json,
outside the determinism guarantee. Every file is written to a temp name
and atomically renamed.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from ._version import TOOL_VERSION
from .config import (
    METHOD_EMA,
    METHOD_PASSTHROUGH,
    METHOD_SSR,
    ExperimentConfig,
    config_to_dict,
)
from .errors import ConfigInvalid, NUMERIC_ERRORS
from .metrics import SCORE_COLUMNS, AblationRow, RunSummary, StackedScenario, score_run
from .regularizer import passthrough_step, run_stream
from .synth import derive_trial_seed, generate_scenario

__all__ = [
    "CSV_HEADER",
    "MethodResult",
    "ResultBundle",
    "run_experiment",
    "dump_csv",
    "dump_summary_json",
    "dump_heatmaps",
    "write_experiment_outputs",
    "write_ablation_outputs",
    "summary_table",
    "heatmap_filename",
]

CSV_HEADER = ",".join(("frame", "method", "trial") + SCORE_COLUMNS)

_SUMMARY_FIELDS = tuple(f.name for f in fields(RunSummary))


@dataclass(frozen=True)
class MethodResult:
    """Everything one method produced across all trials.

    scores holds one T x 4 array per trial, columns metrics.SCORE_COLUMNS.
    """

    scores: tuple[np.ndarray, ...]
    summaries: tuple[RunSummary, ...]
    aggregate_mean: dict[str, float]
    aggregate_std: dict[str, float]


@dataclass(frozen=True)
class ResultBundle:
    """Scored experiment plus provenance.

    heatmaps maps a captured frame to its read-only affinity entries.
    The timestamp is the only field excluded from the byte-determinism
    guarantee; writers keep it out of the payload files.
    """

    config: ExperimentConfig
    methods: dict[str, MethodResult]
    heatmaps: dict[int, np.ndarray]
    seed: int
    tool_version: str
    timestamp: str


def _annotate(exc: Exception, method: str, trial: int, frame: int | None) -> Exception:
    return type(exc)(f"(method={method}, trial={trial}, frame={frame}): {exc}")


def _run_ema(noisy: np.ndarray, alpha: float) -> np.ndarray:
    """EMA baseline over a T x d stream: row t is alpha x_t + (1 - alpha) y_{t-1}.

    Row 0 passes through. Bit for bit the chain of regularizer.ema_fuse
    calls, endpoints included.
    """
    fused = np.empty_like(noisy)
    weighted = alpha * noisy
    decay = 1.0 - alpha
    fused[:1] = noisy[:1]
    for t in range(1, len(noisy)):
        fused[t] = weighted[t] + decay * fused[t - 1]
    return fused


def _run_trial(
    config: ExperimentConfig, trial: int
) -> tuple[dict[str, tuple[np.ndarray, RunSummary]], dict[int, np.ndarray]]:
    seed = derive_trial_seed(config.trajectory.seed, trial)
    try:
        frames = generate_scenario(replace(config.trajectory, seed=seed), config.noise)
    except NUMERIC_ERRORS as exc:
        raise type(exc)(f"(scenario generation, trial={trial}): {exc}") from exc
    scenario = StackedScenario(frames)
    noisy = scenario.noisy
    capture = config.heatmap_frames if config.emit_heatmaps and trial == 0 else ()
    out: dict[str, tuple[np.ndarray, RunSummary]] = {}
    heatmaps: dict[int, np.ndarray] = {}
    for method in config.methods:
        residuals = None
        try:
            if method == METHOD_SSR:
                corrected, heatmaps, residuals = run_stream(
                    config.ssr, noisy, keep_affinities=capture
                )
            elif method == METHOD_EMA:
                corrected = _run_ema(noisy, config.ema_alpha)
            elif method == METHOD_PASSTHROUGH:
                corrected = passthrough_step(noisy)
            else:  # pragma: no cover - methods validated at config build
                raise ConfigInvalid(f"methods: unknown method {method!r}")
            out[method] = score_run(scenario, corrected, residuals)
        except NUMERIC_ERRORS as exc:
            raise _annotate(exc, method, trial, exc.frame) from exc
    return out, heatmaps


def _aggregate(summaries: tuple[RunSummary, ...]) -> tuple[dict[str, float], dict[str, float]]:
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in _SUMMARY_FIELDS:
        values = np.array([getattr(s, name) for s in summaries])
        mean[name] = float(values.mean())
        std[name] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def run_experiment(config: ExperimentConfig) -> ResultBundle:
    """Run all configured methods over all trials, in trial order, and score them."""
    trial_results = [_run_trial(config, i) for i in range(config.trials)]
    methods: dict[str, MethodResult] = {}
    for method in config.methods:
        scores = tuple(result[0][method][0] for result in trial_results)
        summaries = tuple(result[0][method][1] for result in trial_results)
        mean, std = _aggregate(summaries)
        methods[method] = MethodResult(
            scores=scores,
            summaries=summaries,
            aggregate_mean=mean,
            aggregate_std=std,
        )
    heatmaps: dict[int, np.ndarray] = {}
    for _, grabbed in trial_results:
        heatmaps.update(grabbed)
    return ResultBundle(
        config=config,
        methods=methods,
        heatmaps=dict(sorted(heatmaps.items())),
        seed=config.trajectory.seed,
        tool_version=TOOL_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _fmt(value: float) -> str:
    """17 significant digits; enough to round-trip any float64."""
    return format(float(value), ".17g")


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    # Mode 0o666 lets the process umask decide the final permissions.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def dump_csv(bundle: ResultBundle, path: str) -> None:
    """Per-frame scores, one row per (method, trial, frame), sorted."""
    lines = [CSV_HEADER]
    for method in sorted(bundle.methods):
        for trial, scores in enumerate(bundle.methods[method].scores):
            for frame, row in enumerate(scores.tolist()):
                values = ",".join(map(_fmt, row))
                lines.append(f"{frame},{method},{trial},{values}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def summary_payload(bundle: ResultBundle) -> dict:
    """Deterministic JSON payload: config echo, summaries, provenance."""
    methods = {}
    for method, result in bundle.methods.items():
        methods[method] = {
            "aggregate_mean": result.aggregate_mean,
            "aggregate_std": result.aggregate_std,
            "per_trial": [
                {name: getattr(s, name) for name in _SUMMARY_FIELDS}
                for s in result.summaries
            ],
        }
    return {
        "config": config_to_dict(bundle.config),
        "methods": methods,
        "provenance": {
            "seed": bundle.seed,
            "tool_version": bundle.tool_version,
            "trials": bundle.config.trials,
        },
    }


def dump_summary_json(bundle: ResultBundle, path: str) -> None:
    """Canonical summary JSON; keys sorted, no volatile fields."""
    payload = summary_payload(bundle)
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def dump_run_meta(bundle: ResultBundle, path: str) -> None:
    """Volatile provenance (the timestamp), kept out of the payload files."""
    meta = {"timestamp_utc": bundle.timestamp}
    _atomic_write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def heatmap_filename(frame: int) -> str:
    return f"affinity_f{frame:05}.csv"


def dump_heatmaps(bundle: ResultBundle, directory: str) -> list[str]:
    """One CSV grid per captured frame; returns the written paths."""
    written = []
    for frame, grid in sorted(bundle.heatmaps.items()):
        rows = [",".join(_fmt(v) for v in row) for row in grid]
        path = os.path.join(directory, heatmap_filename(frame))
        _atomic_write_text(path, "\n".join(rows) + "\n")
        written.append(path)
    return written


def write_experiment_outputs(bundle: ResultBundle, directory: str | None = None) -> dict[str, str]:
    """Write results.csv, summary.json, run_meta.json, and heatmaps."""
    out_dir = directory if directory is not None else bundle.config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "results.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "meta": os.path.join(out_dir, "run_meta.json"),
    }
    dump_csv(bundle, paths["csv"])
    dump_summary_json(bundle, paths["summary"])
    dump_run_meta(bundle, paths["meta"])
    if bundle.heatmaps:
        dump_heatmaps(bundle, out_dir)
    return paths


def write_ablation_outputs(
    config: ExperimentConfig, rows: list[AblationRow]
) -> dict[str, str]:
    """Write ablation.csv and ablation.json into config.output_dir."""
    os.makedirs(config.output_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(config.output_dir, "ablation.csv"),
        "json": os.path.join(config.output_dir, "ablation.json"),
    }
    lines = ["window_k,mean_improvement_ratio,std_improvement_ratio"]
    for row in rows:
        lines.append(
            f"{row.window_k},{_fmt(row.mean_improvement_ratio)},"
            f"{_fmt(row.std_improvement_ratio)}"
        )
    _atomic_write_text(paths["csv"], "\n".join(lines) + "\n")
    payload = {
        "config": config_to_dict(config),
        "rows": [
            {
                "window_k": row.window_k,
                "mean_improvement_ratio": row.mean_improvement_ratio,
                "std_improvement_ratio": row.std_improvement_ratio,
            }
            for row in rows
        ],
    }
    _atomic_write_text(paths["json"], json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return paths


def summary_table(bundle: ResultBundle) -> str:
    """Small fixed-width table of aggregate scores per method."""
    header = (
        f"{'method':<12} {'mean_raw':>12} {'mean_corr':>12} "
        f"{'improve':>10} {'tail':>12} {'win_frac':>9}"
    )
    lines = [header]
    for method in sorted(bundle.methods):
        mean = bundle.methods[method].aggregate_mean
        lines.append(
            f"{method:<12} {mean['mean_raw_error']:>12.6f} "
            f"{mean['mean_corrected_error']:>12.6f} "
            f"{mean['improvement_ratio']:>10.4f} "
            f"{mean['tail_error_mean']:>12.6f} "
            f"{mean['win_fraction']:>9.4f}"
        )
    return "\n".join(lines)
