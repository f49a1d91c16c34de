"""Output checks applied to every benchmark invocation.

An invocation passes when its exit code is 0 and its files agree with
each other, with the warm-up invocation of the same seed (byte for
byte), and, at the workload's default seed, with the aggregates pinned
in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import Workload

# Relative tolerance of every numeric comparison; the fixtures' tolerance.
REL_TOL = 1e-12
# Written next to the payloads but volatile (it holds a timestamp).
VOLATILE_FILES = frozenset({"run_meta.json"})


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def payload_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every payload file in out_dir, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name in VOLATILE_FILES:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_simulate(workload: Workload, out_dir: str) -> list[str]:
    problems = []
    expected_rows = len(workload.methods) * workload.trials * workload.length
    raw: dict[tuple[str, int], list[float]] = {}
    corr: dict[tuple[str, int], list[float]] = {}
    rows = 0
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], int(row["trial"]))
            raw.setdefault(key, []).append(float(row["raw_error"]))
            corr.setdefault(key, []).append(float(row["corrected_error"]))
            rows += 1
    if rows != expected_rows:
        problems.append(f"results.csv has {rows} rows, expected {expected_rows}")
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    for method in workload.methods:
        per_trial = summary["methods"][method]["per_trial"]
        if len(per_trial) != workload.trials:
            problems.append(f"summary.json {method}: {len(per_trial)} trials")
            continue
        for trial, scores in enumerate(per_trial):
            r = raw.get((method, trial), [])
            c = corr.get((method, trial), [])
            if len(r) != workload.length:
                problems.append(f"results.csv {method} trial {trial}: {len(r)} frames")
                continue
            tail = c[int(0.75 * len(c)):]
            recomputed = {
                "mean_raw_error": math.fsum(r) / len(r),
                "mean_corrected_error": math.fsum(c) / len(c),
                "tail_error_mean": math.fsum(tail) / len(tail),
                "win_fraction": sum(b < a for a, b in zip(r, c)) / len(r),
            }
            for field, value in recomputed.items():
                if not _close(value, scores[field]):
                    problems.append(
                        f"{method} trial {trial} {field}: csv {value!r} "
                        f"vs summary.json {scores[field]!r}"
                    )
    for frame in workload.heatmap_frames:
        name = f"affinity_f{frame:05}.csv"
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"missing heatmap {name}")
    return problems


def _check_sweep(workload: Workload, out_dir: str) -> list[str]:
    problems = []
    with open(os.path.join(out_dir, "ablation.csv"), encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = _read_json(os.path.join(out_dir, "ablation.json"))["rows"]
    ks = [int(row["window_k"]) for row in csv_rows]
    if ks != list(workload.sizes) or len(json_rows) != len(csv_rows):
        return [f"ablation rows {ks} (json {len(json_rows)}), expected {list(workload.sizes)}"]
    for row, jrow in zip(csv_rows, json_rows):
        if int(row["window_k"]) != jrow["window_k"]:
            problems.append(f"ablation window_k {row['window_k']} vs {jrow['window_k']}")
        for field in ("mean_improvement_ratio", "std_improvement_ratio"):
            if not _close(float(row[field]), jrow[field]):
                problems.append(
                    f"ablation k={row['window_k']} {field}: csv {row[field]} "
                    f"vs json {jrow[field]!r}"
                )
    return problems


def aggregates(workload: Workload, out_dir: str) -> dict:
    """The numbers pinned per default seed: aggregate scores or sweep rows."""
    if workload.is_sweep:
        rows = _read_json(os.path.join(out_dir, "ablation.json"))["rows"]
        return {str(row["window_k"]): row for row in rows}
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    return {
        method: {
            "aggregate_mean": result["aggregate_mean"],
            "aggregate_std": result["aggregate_std"],
        }
        for method, result in summary["methods"].items()
    }


def _compare(expected, actual, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ from the reference"]
        problems = []
        for key in expected:
            problems += _compare(expected[key], actual[key], f"{where}.{key}")
        return problems
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(actual, (int, float)) and _close(float(actual), float(expected)):
        return []
    return [f"{where}: {actual!r} differs from reference {expected!r}"]


def check_invocation(
    workload: Workload,
    out_dir: str,
    exit_code: int | None,
    baseline: dict[str, str] | None,
    reference: dict | None,
) -> list[str]:
    """Problems found in one invocation's outputs; empty means it passed.

    Args:
        exit_code: the CLI's return value, or None if it raised.
        baseline: payload digests of the warm-up invocation, or None for
            the warm-up itself.
        reference: pinned aggregates when the seed is the default seed.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if workload.is_sweep:
            problems = _check_sweep(workload, out_dir)
        else:
            problems = _check_simulate(workload, out_dir)
        if baseline is not None:
            digests = payload_digests(out_dir)
            if digests != baseline:
                changed = sorted(
                    n
                    for n in set(digests) | set(baseline)
                    if digests.get(n) != baseline.get(n)
                )
                problems.append(f"payloads differ from the warm-up: {changed}")
        if reference is not None:
            problems += _compare(reference, aggregates(workload, out_dir), "reference")
    except (OSError, csv.Error, KeyError, IndexError, ValueError, TypeError) as exc:
        problems = [f"unreadable outputs: {type(exc).__name__}: {exc}"]
    return problems
