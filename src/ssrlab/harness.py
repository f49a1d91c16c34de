"""Experiment runner and deterministic result writers.

run_experiment is one loop over trials and, inside each, over methods.
It takes each trial's scenario once as arrays from metrics.trial_scenarios,
as ablate_window does, passes its T x d noisy array through every
configured method (the corrector is one run_stream call, which also
yields the heatmaps and residuals; the baselines are one ema_fuse or
passthrough_step call) and scores each output against the same scenario
with one score_run pass, which gives a T x 4 array of per-frame scores,
appended to its method's list; metrics.mean_and_std aggregates the
trials. A numeric error names its method, trial and frame. All emitted
payloads (CSV, summary JSON, heatmap grids, ablation tables) are
byte-identical across reruns; summary.json's provenance reads the seed
from the config and the version from TOOL_VERSION, and the wall-clock
timestamp lives in its own run_meta.json, outside the determinism
guarantee. Every file is written to a temp name and atomically renamed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import secrets
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import repeat
from time import perf_counter

import numpy as np

from ._version import TOOL_VERSION
from .config import METHOD_EMA, METHOD_PASSTHROUGH, METHOD_SSR, ExperimentConfig, config_to_dict
from .errors import NumericError, annotated, frame_named
from .metrics import (
    SCORE_COLUMNS,
    AblationRow,
    RunSummary,
    mean_and_std,
    score_run,
    trial_scenarios,
)
from .regularizer import ema_fuse, passthrough_step, run_stream

__all__ = [
    "MethodResult",
    "ResultBundle",
    "run_experiment",
    "dump_csv",
    "dump_heatmaps",
    "write_experiment_outputs",
    "write_ablation_outputs",
    "summary_table",
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
    """Scored experiment; its seed is config.trajectory.seed.

    heatmaps maps a captured frame to its read-only affinity entries.
    The timestamp and timings (stage seconds, frames/s) are excluded from
    the byte-determinism guarantee; writers keep them out of the payloads.
    """

    config: ExperimentConfig
    methods: dict[str, MethodResult]
    heatmaps: dict[int, np.ndarray]
    timestamp: str
    timings: dict[str, float] = field(default_factory=dict)


def _aggregate(summaries: tuple[RunSummary, ...]) -> tuple[dict[str, float], dict[str, float]]:
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in _SUMMARY_FIELDS:
        mean[name], std[name] = mean_and_std(np.array([getattr(s, name) for s in summaries]))
    return mean, std


def run_experiment(config: ExperimentConfig) -> ResultBundle:
    """Run all configured methods over all trials, in trial order, and score them.

    Unless passthrough is the only method, a trial whose raw errors are all
    exactly 0 raises InvalidScenario, naming noise.sigma, before it is corrected.
    """
    seconds = dict.fromkeys(("generate_s", "correct_s", "score_s"), 0.0)
    runs: dict[str, list[tuple[np.ndarray, RunSummary]]] = {m: [] for m in config.methods}
    heatmaps: dict[int, np.ndarray] = {}
    noise_needed = any(method != METHOD_PASSTHROUGH for method in config.methods)
    scenarios = trial_scenarios(config.trajectory, config.noise, config.trials, noise_needed)
    for trial in range(config.trials):
        start = perf_counter()
        scenario = next(scenarios)
        seconds["generate_s"] += perf_counter() - start
        capture = config.heatmap_frames if config.emit_heatmaps and trial == 0 else ()
        for method, results in runs.items():
            residuals = None
            start = perf_counter()
            try:
                if method == METHOD_SSR:
                    corrected, grabbed, residuals = run_stream(
                        config.ssr, scenario.noisy, keep_affinities=capture
                    )
                    heatmaps.update(grabbed)
                elif method == METHOD_EMA:
                    corrected = ema_fuse(scenario.noisy, config.ema_alpha)
                else:  # passthrough, the one other method a config accepts
                    corrected = passthrough_step(scenario.noisy)
                scoring = perf_counter()
                results.append(score_run(scenario, corrected, residuals))
                seconds["correct_s"] += scoring - start
                seconds["score_s"] += perf_counter() - scoring
            except NumericError as exc:
                raise annotated(exc, frame_named(f"method={method}, trial={trial}", exc)) from exc
        # free this trial's arrays before the next scenario is generated (peak RSS)
        del scenario, corrected
    methods: dict[str, MethodResult] = {}
    for method, results in runs.items():
        scores, summaries = zip(*results)
        methods[method] = MethodResult(scores, summaries, *_aggregate(summaries))
    frames = len(config.methods) * config.trials * config.trajectory.length
    seconds["frames_per_s"] = frames / sum(seconds.values())
    return ResultBundle(
        config=config,
        methods=methods,
        heatmaps=dict(sorted(heatmaps.items())),
        timestamp=datetime.now(timezone.utc).isoformat(),
        timings=seconds,
    )


def _atomic_write_text(path: str, text: str, more: Iterable[str] = ()) -> None:
    """Write text, then each string of more, to a temp name; then rename it onto path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    # Mode 0o666 lets the process umask decide the final permissions.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.writelines(more)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def dump_csv(bundle: ResultBundle, path: str) -> None:
    """Per-frame scores, one row per (method, trial, frame), sorted.

    Values are written as %.17g, which round-trips any float64. The rows
    go to the temp file block by block, one (method, trial) at a time.
    Each trial's raw-error column is formatted once and reused wherever a
    column of that trial holds the same bits (every method's raw errors,
    and passthrough's corrected ones); the bits are compared as integers,
    since -0.0 == 0.0 but the two print differently.
    """
    _atomic_write_text(path, CSV_HEADER + "\n", _csv_blocks(bundle))


def _csv_blocks(bundle: ResultBundle) -> Iterator[str]:
    formatted_raw: dict[int, tuple[np.ndarray, list[str]]] = {}
    frames: list[str] = []
    for method in sorted(bundle.methods):
        for trial, scores in enumerate(bundle.methods[method].scores):
            if trial not in formatted_raw:
                raw = scores[:, 0]
                formatted_raw[trial] = raw.view(np.int64), list(map("%.17g".__mod__, raw.tolist()))
            raw_bits, raw_text = formatted_raw[trial]
            columns = [
                raw_text if np.array_equal(column.view(np.int64), raw_bits)
                else list(map("%.17g".__mod__, column.tolist()))
                for column in scores.T
            ]
            frames.extend(map(str, range(len(frames), len(scores))))
            rows = zip(frames, repeat(method), repeat(str(trial)), *columns)
            yield "\n".join(map(",".join, rows)) + "\n"


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
            "seed": bundle.config.trajectory.seed,
            "tool_version": TOOL_VERSION,
            "trials": bundle.config.trials,
        },
    }


def dump_run_meta(path: str, command: str, config: ExperimentConfig, timestamp: str,
                  timings: dict[str, float | dict[int, float]], write_s: float) -> None:
    """Volatile provenance outside the payloads: the writing command, the sha256 of the
    config file's bytes, timestamp, timings, write_s, peak RSS so far (ru_maxrss is in
    KiB on Linux), Python and numpy versions."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta = {"command": command, "config_sha256": config.source_sha256,
            "timestamp_utc": timestamp, "peak_rss_mb": rss_mb,
            "python_version": platform.python_version(), "numpy_version": np.__version__,
            **timings, "write_s": write_s}
    _atomic_write_text(path, json.dumps(meta, sort_keys=True, indent=2) + "\n")


def dump_heatmaps(heatmaps: dict[int, np.ndarray], directory: str) -> list[str]:
    """One CSV grid per {frame: affinity} entry, in frame order; returns the written paths."""
    written = []
    for frame, grid in sorted(heatmaps.items()):
        rows = [",".join("%.17g" % v for v in row) for row in grid.tolist()]
        path = os.path.join(directory, f"affinity_f{frame:05}.csv")
        _atomic_write_text(path, "\n".join(rows) + "\n")
        written.append(path)
    return written


def write_experiment_outputs(bundle: ResultBundle) -> dict[str, str]:
    """Write results.csv, summary.json, run_meta.json, and heatmaps into config.output_dir."""
    out_dir = bundle.config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(out_dir, "results.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "meta": os.path.join(out_dir, "run_meta.json"),
    }
    start = perf_counter()
    dump_csv(bundle, paths["csv"])
    # Canonical summary JSON: keys sorted, no volatile fields.
    _atomic_write_text(
        paths["summary"], json.dumps(summary_payload(bundle), sort_keys=True, indent=2) + "\n"
    )
    if bundle.heatmaps:
        dump_heatmaps(bundle.heatmaps, out_dir)
    dump_run_meta(paths["meta"], "simulate", bundle.config, bundle.timestamp, bundle.timings,
                  perf_counter() - start)
    return paths


def write_ablation_outputs(
    config: ExperimentConfig, rows: list[AblationRow], timings: dict[str, float | dict[int, float]]
) -> dict[str, str]:
    """Write ablation.csv, ablation.json and run_meta.json (with ablate_window's timings)."""
    os.makedirs(config.output_dir, exist_ok=True)
    paths = {
        "csv": os.path.join(config.output_dir, "ablation.csv"),
        "json": os.path.join(config.output_dir, "ablation.json"),
        "meta": os.path.join(config.output_dir, "run_meta.json"),
    }
    timestamp = datetime.now(timezone.utc).isoformat()
    start = perf_counter()
    lines = ["window_k,mean_improvement_ratio,std_improvement_ratio"]
    for row in rows:
        lines.append(
            "%d,%.17g,%.17g"
            % (row.window_k, row.mean_improvement_ratio, row.std_improvement_ratio)
        )
    _atomic_write_text(paths["csv"], "\n".join(lines) + "\n")
    payload = {
        "config": config_to_dict(config),
        "rows": [asdict(row) for row in rows],
    }
    _atomic_write_text(paths["json"], json.dumps(payload, sort_keys=True, indent=2) + "\n")
    dump_run_meta(paths["meta"], "ablate-window", config, timestamp, timings,
                  perf_counter() - start)
    return paths


def fit_column(value: float, width: int, decimals: int) -> str:
    """value right-aligned in width: fixed-point if that fits, else e notation (not in __all__)."""
    text = f"{value:.{decimals}f}"
    if len(text) > width:
        text = f"{value:.{min(decimals, max(width - len(f'{value:.0e}') - 1, 0))}e}"
    return f"{text:>{width}}"


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
            f"{method:<12} {fit_column(mean['mean_raw_error'], 12, 6)} "
            f"{fit_column(mean['mean_corrected_error'], 12, 6)} "
            f"{fit_column(mean['improvement_ratio'], 10, 4)} "
            f"{fit_column(mean['tail_error_mean'], 12, 6)} "
            f"{fit_column(mean['win_fraction'], 9, 4)}"
        )
    return "\n".join(lines)
