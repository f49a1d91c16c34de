"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench -q

Short runs of every workload in both modes check that each metric named
in BENCHMARK.json prints with its unit; an in-process run with a
corrupting writer checks that a bad results.csv is counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            f"--workload={workload}",
            f"--seed={WORKLOADS[workload].default_seed}",
            "--seconds=1",
            f"--trace={trace}",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_prints_with_its_unit(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    if trace:
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
        assert result["metrics"]["trace.trials"]["value"] == WORKLOADS[workload].trials


def test_corrupted_results_csv_counts_against_ok_rate(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from ssrlab import cli, harness

    original = harness.dump_csv
    written = []

    def dump_csv_dropping_last_row(bundle, path):
        original(bundle, path)
        written.append(path)
        if len(written) > 1:  # the warm-up stays intact
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])

    monkeypatch.setattr(harness, "dump_csv", dump_csv_dropping_last_row)
    workload = WORKLOADS["example"]
    config = tmp_path / "workload.cfg"
    out_dir = tmp_path / "out"
    config.write_text(workload.config_text(workload.default_seed, str(out_dir)))
    result = worker.measure(workload, cli, str(config), str(out_dir), 0.1, None)
    assert result["attempted"] == 1 + worker.MIN_INVOCATIONS
    assert result["failed"] == worker.MIN_INVOCATIONS
    assert any("rows" in p for p in result["problems"])
    metrics = run.e2e_metrics(workload, result, [1.0])
    assert metrics["ok_rate"][0] == 1 / (1 + worker.MIN_INVOCATIONS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "example", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_vanished_function_is_a_missing_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from ssrlab import grassmann
    from tracer import Tracer
    from workloads import SWEEP_SIZES

    monkeypatch.delattr(grassmann, "geodesic")
    tracer = Tracer(str(tmp_path))
    assert tracer.missing == ["grassmann.geodesic"]
    metrics = tracer.metrics(1.0, SWEEP_SIZES)
    assert metrics["trace.missing_spans"] == 1
    assert metrics["grassmann.geodesic_calls"] == 0


def test_exception_escaping_a_span_counts_as_a_layer_error(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np
    from ssrlab import errors, grassmann
    from tracer import Tracer
    from workloads import SWEEP_SIZES

    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        with pytest.raises(errors.RankDeficient):
            grassmann.orthonormalize(np.zeros((4, 2)))
        grassmann.orthonormalize(np.eye(4)[:, :2])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, SWEEP_SIZES)
    assert metrics["grassmann.errors"] == 1
    assert metrics["synth.errors"] == 0
    assert not hasattr(grassmann.orthonormalize, "__wrapped__")
