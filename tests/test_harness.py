"""Experiment harness and CLI tests.

Runs are tiny (n=8, T=30, 3 trials) so the module stays fast, with one
exception: the frozen full-scale regression in TestBenchmarkRegression.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import MISSING, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ssrlab
import ssrlab.cli as cli_mod
import ssrlab.config as config_mod
import ssrlab.errors as errors_mod
import ssrlab.harness as harness_mod
import ssrlab.metrics as metrics_mod
import ssrlab.synth as synth_mod
from ssrlab.affinity import AFFINITY_MODES
from ssrlab.cli import main
from ssrlab.config import (
    _KNOWN_KEYS,
    KNOWN_METHODS,
    ExperimentConfig,
    build_experiment_config,
    config_to_dict,
    load_config,
    parse_config_text,
)
from ssrlab.errors import (
    ConfigInvalid,
    DegenerateRow,
    InvalidScenario,
    NonFiniteAffinity,
    NumericError,
    RankDeficient,
    SsrLabError,
)
from ssrlab.harness import (
    CSV_HEADER,
    dump_csv,
    fit_column,
    run_experiment,
    summary_payload,
    write_experiment_outputs,
)
from ssrlab.grassmann import GeodesicPiece
from ssrlab.metrics import SCORE_COLUMNS, ablate_window, score_run
from ssrlab.regularizer import BUFFER_POLICIES, SsrConfig, ema_fuse, run_stream
from ssrlab.synth import (
    NOISE_KINDS,
    WAYPOINT_ATTEMPTS,
    Scenario,
    derive_trial_seed,
    generate_scenario,
)
from scenario_oracle import frame_pieces
from stream_oracle import list_oracle

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_CFG = os.path.join(REPO, "scripts", "example.cfg")
# Wall seconds per stage in run_meta.json.
STAGE_KEYS = ("generate_s", "correct_s", "score_s", "write_s")
# Every error class the package defines, found by walking ssrlab.errors.
ERROR_CLASSES = sorted(
    (
        value
        for value in vars(errors_mod).values()
        if isinstance(value, type) and issubclass(value, SsrLabError) and value is not SsrLabError
    ),
    key=lambda cls: cls.__name__,
)

BASE = {
    "scenario.n": "8",
    "scenario.r": "2",
    "scenario.length": "30",
    "scenario.seed": "123",
    "scenario.state_drift": "0.05",
    "noise.kind": "gaussian-iid",
    "noise.sigma": "0.1",
    "methods": "ssr,ema,passthrough",
    "trials": "3",
    "ssr.window_k": "4",
    "ema.alpha": "0.3",
}

# The benchmark's moving_feedback workload (perfbench/workloads.py), as
# overrides of BASE: a moving 8-plane in R^128, 1,024 frames, fed back.
MOVING_FEEDBACK = {
    "scenario.n": "128",
    "scenario.r": "8",
    "scenario.length": "1024",
    "scenario.seed": "1234",
    "scenario.speed": "1.0",
    "scenario.waypoints": "4",
    "noise.kind": "drift-random-walk",
    "noise.sigma": "0.01",
    "ssr.window_k": "16",
    "ssr.buffer_policy": "store-corrected",
    "output.emit_heatmaps": "true",
    "output.heatmap_frames": "0,256,512",
}


def crafted_scenario(clean, noisy=None, bases=None) -> Scenario:
    """A hand-made scenario; noisy defaults to clean, bases (one per frame) to span(e1) at
    every frame."""
    clean = np.array(clean, dtype=np.float64)
    noisy = clean if noisy is None else np.array(noisy, dtype=np.float64)
    if bases is None:
        path = (GeodesicPiece.point(0, len(clean), np.eye(clean.shape[1], 1)),)
        return Scenario(clean, noisy, path)
    return Scenario(clean, noisy, frame_pieces(np.array(bases, dtype=np.float64)))


def near_cancelling_scenario() -> Scenario:
    """Three states whose third raw-sum row sums to 1e-10 against sum |phi| = 2."""
    noisy = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [-0.3, -0.7, math.sqrt(0.42 + 1e-10)],
    ]
    return crafted_scenario([[1.0, 0.0, 0.0]] * 3, noisy=noisy)


def vanishing_noise_scenario() -> Scenario:
    """Three states, one 5e-324 off its clean state: one raw error 5e-324, whose mean is 0."""
    clean = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return crafted_scenario(clean, noisy=[*clean[:2], [1.0, 0.0, 5e-324]])


def make_config(tmp_path, **overrides):
    values = dict(BASE)
    values["output.dir"] = str(tmp_path / "out")
    values.update({k: str(v) for k, v in overrides.items()})
    return build_experiment_config(values)


def write_cfg_file(tmp_path, name="run.cfg", **overrides):
    values = dict(BASE)
    values["output.dir"] = str(tmp_path / "out")
    values.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text(
        "# generated by the test suite\n"
        + "\n".join(f"{k} = {v}" for k, v in values.items())
        + "\n"
    )
    return str(path)


class TestConfigParsing:
    def test_round_trip_of_known_keys(self, tmp_path):
        config = load_config(write_cfg_file(tmp_path))
        assert config.trajectory.n == 8
        assert config.noise.sigma == 0.1
        assert config.methods == ("ssr", "ema", "passthrough")
        assert config.ssr.window_k == 4
        assert config.ssr.temperature == pytest.approx(np.sqrt(8.0))

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigInvalid) as excinfo:
            parse_config_text("scenario.m = 4")
        assert "scenario.m" in str(excinfo.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigInvalid) as excinfo:
            parse_config_text("trials = 2\ntrials = 3")
        assert "trials" in str(excinfo.value)

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigInvalid) as excinfo:
            build_experiment_config({"scenario.n": "8"})
        assert "scenario.r" in str(excinfo.value)

    def test_bad_integer_is_named(self, tmp_path):
        with pytest.raises(ConfigInvalid) as excinfo:
            make_config(tmp_path, **{"scenario.length": "thirty"})
        assert "scenario.length" in str(excinfo.value)

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalid) as excinfo:
            make_config(tmp_path, methods="ssr,kalman")
        assert "kalman" in str(excinfo.value)

    def test_heatmap_frame_out_of_range(self, tmp_path):
        with pytest.raises(ConfigInvalid) as excinfo:
            make_config(
                tmp_path,
                **{"output.emit_heatmaps": "true", "output.heatmap_frames": "0,99"},
            )
        assert "99" in str(excinfo.value)

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("# a comment\n\ntrials = 7\n")
        assert values == {"trials": "7"}

    def test_raw_sum_mode_keeps_temperature_unset(self, tmp_path):
        config = make_config(tmp_path, **{"ssr.mode": "raw-sum"})
        assert config.ssr.temperature is None

    def test_raw_sum_mode_rejects_temperature(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            make_config(
                tmp_path, **{"ssr.mode": "raw-sum", "ssr.temperature": "2.0"}
            )


class TestRunExperiment:
    def test_bundle_structure(self, tmp_path):
        config = make_config(tmp_path)
        bundle = run_experiment(config)
        assert set(bundle.methods) == {"ssr", "ema", "passthrough"}
        for result in bundle.methods.values():
            assert len(result.scores) == 3
            assert len(result.summaries) == 3
            assert all(scores.shape == (30, 4) for scores in result.scores)
            assert set(result.aggregate_mean) == {
                "mean_raw_error",
                "mean_corrected_error",
                "improvement_ratio",
                "tail_error_mean",
                "win_fraction",
            }

    def test_passthrough_scores_exactly_zero(self, tmp_path):
        bundle = run_experiment(make_config(tmp_path, methods="passthrough"))
        result = bundle.methods["passthrough"]
        for summary in result.summaries:
            assert summary.improvement_ratio == 0.0
        assert result.aggregate_mean["improvement_ratio"] == 0.0

    def test_static_noiseless_ssr_error_is_negligible(self, tmp_path):
        # the corrector itself; scored, a raw error of exactly 0 under a
        # positive corrected one has no finite improvement ratio
        config = make_config(
            tmp_path,
            methods="ssr",
            **{"noise.sigma": "0.0", "scenario.state_drift": "0.0"},
        )
        for trial in range(config.trials):
            seed = derive_trial_seed(config.trajectory.seed, trial)
            scenario = generate_scenario(replace(config.trajectory, seed=seed), config.noise)
            corrected = run_stream(config.ssr, scenario.noisy)[0]
            assert np.all(np.linalg.norm(corrected - scenario.clean, axis=1) < 1e-9)

    def test_ema_matches_local_recursion(self, tmp_path):
        config = make_config(tmp_path, methods="ema", trials=1)
        bundle = run_experiment(config)
        seed = derive_trial_seed(config.trajectory.seed, 0)
        clean, noisy, _ = generate_scenario(
            replace(config.trajectory, seed=seed), config.noise
        )
        fused = noisy[0]
        expected_errors = [np.linalg.norm(fused - clean[0])]
        for state, truth in zip(noisy[1:], clean[1:]):
            fused = 0.3 * state + 0.7 * fused
            expected_errors.append(np.linalg.norm(fused - truth))
        got = bundle.methods["ema"].scores[0][:, 1]
        assert np.allclose(got, expected_errors, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.123456789, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("length", [1, 2, 256, 1024])
    def test_ema_recursion_is_the_ema_fuse_chain_bit_for_bit(self, tmp_path, alpha, length):
        # the harness's EMA method scores ema_fuse's stream at the configured alpha
        config = make_config(
            tmp_path, methods="ema", trials=1, **{"scenario.length": length, "ema.alpha": alpha}
        )
        seed = derive_trial_seed(config.trajectory.seed, 0)
        scenario = generate_scenario(replace(config.trajectory, seed=seed), config.noise)
        expected, _ = score_run(scenario, ema_fuse(scenario.noisy, alpha))
        assert np.array_equal(run_experiment(config).methods["ema"].scores[0], expected)

    def test_aggregates_are_trial_means(self, tmp_path):
        bundle = run_experiment(make_config(tmp_path, methods="ssr"))
        result = bundle.methods["ssr"]
        manual = np.mean([s.improvement_ratio for s in result.summaries])
        assert result.aggregate_mean["improvement_ratio"] == pytest.approx(
            float(manual), abs=1e-15
        )
        manual_std = np.std(
            [s.improvement_ratio for s in result.summaries], ddof=1
        )
        assert result.aggregate_std["improvement_ratio"] == pytest.approx(
            float(manual_std), abs=1e-15
        )

    def test_single_trial_std_is_zero(self, tmp_path):
        bundle = run_experiment(make_config(tmp_path, trials=1))
        for result in bundle.methods.values():
            assert all(v == 0.0 for v in result.aggregate_std.values())

    def test_numeric_failure_names_method_trial_frame(self, tmp_path, monkeypatch):
        crafted = crafted_scenario([[1.0, 0.0, 0.0]] * 2, noisy=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted
        )
        config = make_config(
            tmp_path,
            methods="ssr",
            trials=1,
            **{
                "scenario.n": "3",
                "scenario.r": "1",
                "scenario.length": "2",
                "ssr.mode": "raw-sum",
            },
        )
        with pytest.raises(DegenerateRow) as excinfo:
            run_experiment(config)
        message = str(excinfo.value)
        assert "method=ssr" in message
        assert "trial=0" in message
        assert "frame=1" in message

    def test_numeric_failure_keeps_its_frame(self, tmp_path):
        # drift-walk noise grows like sqrt(t + 1): the logits first overflow at frame 11
        config = make_config(
            tmp_path,
            methods="ssr",
            trials=1,
            **{"noise.kind": "drift-random-walk", "noise.sigma": "1e153"},
        )
        with pytest.raises(NonFiniteAffinity) as excinfo:
            run_experiment(config)
        assert excinfo.value.frame == excinfo.value.__cause__.frame == 11
        assert "(method=ssr, trial=0, frame=11)" in str(excinfo.value)

    def test_ablation_failure_keeps_its_frame(self, tmp_path):
        config = make_config(
            tmp_path, **{"noise.kind": "drift-random-walk", "noise.sigma": "1e153"}
        )
        with pytest.raises(NonFiniteAffinity) as excinfo:
            ablate_window([2, 4], config.trajectory, config.noise, config.trials, config.ssr)
        assert excinfo.value.frame == excinfo.value.__cause__.frame == 11
        assert "(window_k=2, trial=0, frame=11)" in str(excinfo.value)

    def test_scenario_failure_keeps_its_frame(self, tmp_path):
        # 1e300 noise is finite; a burst scales it past float64, first at frame 8
        overrides = {"noise.sigma": "1e300", "noise.burst_scale": "1e10", "noise.burst_prob": "0.5"}
        config = make_config(tmp_path, **{"noise.kind": "burst", **overrides})
        with pytest.raises(InvalidScenario) as excinfo:
            run_experiment(config)
        assert excinfo.value.frame == excinfo.value.__cause__.frame == 8
        assert "(scenario generation, trial=0): frame 8:" in str(excinfo.value)

    def test_records_identical_across_reruns(self, tmp_path):
        config = make_config(tmp_path, trials=4)
        first = run_experiment(config)
        second = run_experiment(config)
        for method in config.methods:
            a = first.methods[method]
            b = second.methods[method]
            assert all(np.array_equal(x, y) for x, y in zip(a.scores, b.scores))
            assert a.aggregate_mean == b.aggregate_mean

    def test_a_trial_holds_its_scenario_and_one_output(self, tmp_path):
        # moving_feedback's config with one trial: the scenario's clean and
        # noisy T x n states take 2 MiB and one method's output 1 MiB; with
        # 2 MiB of headroom the run may hold no further T x n array (a noise
        # temporary, a padded stream, a difference, the previous output)
        config = make_config(tmp_path, trials=1, **MOVING_FEEDBACK)
        run_experiment(config)  # first-call imports and caches
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("policy", ["store-raw", "store-corrected"])
    def test_se_residual_matches_list_oracle(self, tmp_path, policy):
        config = make_config(
            tmp_path, methods="ssr", trials=2, **{"ssr.buffer_policy": policy}
        )
        paths = write_experiment_outputs(run_experiment(config))
        with open(paths["csv"], encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        for trial in range(config.trials):
            seed = derive_trial_seed(config.trajectory.seed, trial)
            clean, noisy, _ = generate_scenario(
                replace(config.trajectory, seed=seed), config.noise
            )
            outputs, _, residuals = list_oracle(
                list(noisy),
                config.ssr.window_k,
                config.ssr.mode,
                config.ssr.temperature,
                policy,
            )
            errors = [np.linalg.norm(out - truth) for out, truth in zip(outputs, clean)]
            got = [row for row in rows if int(row[2]) == trial]
            assert len(got) == len(clean)
            np.testing.assert_allclose(
                [float(row[6]) for row in got], residuals, rtol=1e-12, atol=0.0
            )
            np.testing.assert_allclose(
                [float(row[4]) for row in got], errors, rtol=1e-12, atol=0.0
            )


class TestWriters:
    def test_csv_round_trips_exactly(self, tmp_path):
        config = make_config(tmp_path, trials=2)
        bundle = run_experiment(config)
        paths = write_experiment_outputs(bundle)
        with open(paths["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2 * 30
        # sorted by (method, trial, frame)
        keys = [(row[1], int(row[2]), int(row[0])) for row in rows]
        assert keys == sorted(keys)
        # 17 significant digits reproduce every float64 bit for bit
        by_key = {
            (row[1], int(row[2]), int(row[0])): row for row in rows
        }
        for method, result in bundle.methods.items():
            for trial, scores in enumerate(result.scores):
                for frame, values in enumerate(scores):
                    row = by_key[(method, trial, frame)]
                    assert [float(v) for v in row[3:]] == values.tolist()

    def test_summary_json_payload(self, tmp_path):
        config = make_config(tmp_path, trials=2)
        bundle = run_experiment(config)
        paths = write_experiment_outputs(bundle)
        with open(paths["summary"], encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["config"]["scenario"]["n"] == 8
        assert payload["config"]["ssr"]["window_k"] == 4
        assert set(payload["methods"]) == {"ssr", "ema", "passthrough"}
        ssr = payload["methods"]["ssr"]
        assert len(ssr["per_trial"]) == 2
        assert payload["provenance"]["seed"] == 123
        assert payload["provenance"]["tool_version"]
        assert "timestamp" not in json.dumps(payload)

    def test_timestamp_lives_only_in_run_meta(self, tmp_path):
        bundle = run_experiment(make_config(tmp_path, trials=1))
        paths = write_experiment_outputs(bundle)
        with open(paths["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        assert set(meta) == {
            "command", "config_sha256", "timestamp_utc", "peak_rss_mb", "minor_faults",
            "python_version", "numpy_version", *STAGE_KEYS, "frames_per_s",
        }
        assert meta["command"] == "simulate"
        assert meta["config_sha256"] is None  # built in code, from no file
        assert meta["timestamp_utc"] == bundle.timestamp

    def test_run_meta_records_stage_times_within_the_wall_time(self, tmp_path):
        config = make_config(tmp_path, trials=2)
        start = time.perf_counter()
        paths = write_experiment_outputs(run_experiment(config))
        wall = time.perf_counter() - start
        with open(paths["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        stages = [meta[key] for key in STAGE_KEYS]
        assert all(isinstance(value, float) and value >= 0.0 for value in stages)
        assert sum(stages) <= wall
        frames = len(config.methods) * config.trials * config.trajectory.length
        assert meta["frames_per_s"] >= frames / wall
        with open(paths["summary"], encoding="utf-8") as fh:
            summary = fh.read()
        for key in (*STAGE_KEYS, "frames_per_s"):
            assert key not in summary

    def test_run_meta_records_peak_rss_and_versions(self, tmp_path):
        bundle = run_experiment(make_config(tmp_path, trials=1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        paths = write_experiment_outputs(bundle)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with open(paths["meta"], encoding="utf-8") as fh:
            meta = json.load(fh)
        assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0.0
        # the process's minor page faults so far, read while writing
        assert isinstance(meta["minor_faults"], int) and before <= meta["minor_faults"] <= after
        assert meta["python_version"] == platform.python_version()
        assert meta["numpy_version"] == np.__version__
        with open(paths["summary"], encoding="utf-8") as fh:
            summary = fh.read()
        for key in meta:
            assert key not in summary

    def test_heatmaps_written_and_decodable(self, tmp_path):
        config = make_config(
            tmp_path,
            methods="ssr",
            trials=1,
            **{"output.emit_heatmaps": "true", "output.heatmap_frames": "0,2,10"},
        )
        bundle = run_experiment(config)
        write_experiment_outputs(bundle)
        out = config.output_dir
        for frame in (0, 2, 10):
            path = os.path.join(out, f"affinity_f{frame:05}.csv")
            assert os.path.exists(path)
            grid = np.loadtxt(path, delimiter=",", ndmin=2)
            rows = min(frame + 1, config.ssr.window_k + 1)
            assert grid.shape == (rows, rows)
            assert np.array_equal(grid, bundle.heatmaps[frame])
            assert not bundle.heatmaps[frame].flags.writeable
            assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-9)

    def test_no_heatmaps_without_flag(self, tmp_path):
        config = make_config(tmp_path, trials=1)
        bundle = run_experiment(config)
        write_experiment_outputs(bundle)
        assert bundle.heatmaps == {}
        assert not [
            name
            for name in os.listdir(config.output_dir)
            if name.startswith("affinity_")
        ]

    def test_payload_deterministic_across_runs(self, tmp_path):
        config = make_config(tmp_path, trials=2)
        first = summary_payload(run_experiment(config))
        second = summary_payload(run_experiment(config))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_empty_bundle_writes_header_only_csv(self, tmp_path):
        bundle = harness_mod.ResultBundle(
            config=make_config(tmp_path),
            methods={},
            heatmaps={},
            timestamp="",
        )
        path = tmp_path / "empty.csv"
        dump_csv(bundle, str(path))
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_csv_failing_mid_stream_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # rows reach the temp file block by block; a failure after the first
        # block leaves the old results.csv whole and no temp file behind
        bundle = run_experiment(make_config(tmp_path, trials=2))
        path = tmp_path / "results.csv"
        path.write_text("from an earlier run\n")
        real_blocks = harness_mod._csv_blocks

        def failing(bundle):
            blocks = real_blocks(bundle)
            yield next(blocks)
            raise OSError("disk full")

        monkeypatch.setattr(harness_mod, "_csv_blocks", failing)
        with pytest.raises(OSError, match="disk full"):
            dump_csv(bundle, str(path))
        assert path.read_text() == "from an earlier run\n"
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

    def test_single_passthrough_frame_row(self, tmp_path, monkeypatch):
        # noisy sits exactly one unit from clean, so both error columns read 1
        crafted = crafted_scenario([[1.0, 0.0, 0.0]], noisy=[[1.0, 1.0, 0.0]])
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted
        )
        config = make_config(
            tmp_path,
            methods="passthrough",
            trials=1,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "1"},
        )
        paths = write_experiment_outputs(run_experiment(config))
        with open(paths["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        frame, method, trial, raw, corrected = lines[1].split(",")[:5]
        assert (frame, method, trial) == ("0", "passthrough", "0")
        assert float(raw) == 1.0
        assert float(corrected) == 1.0

    def test_two_frame_heatmap_matches_hand_softmax(self, tmp_path, monkeypatch):
        # orthonormal pair at temperature 1: Gram is the identity, so each
        # row softmaxes [1, 0] into [e, 1] / (1 + e)
        # (clean frame 1 sits half a unit from its observation, so the run
        # has a finite improvement ratio)
        crafted = crafted_scenario(
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]],
            noisy=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            bases=[[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]]],
        )
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted
        )
        config = make_config(
            tmp_path,
            methods="ssr",
            trials=1,
            **{
                "scenario.n": "3",
                "scenario.r": "1",
                "scenario.length": "2",
                "ssr.temperature": "1",
                "output.emit_heatmaps": "true",
                "output.heatmap_frames": "1",
            },
        )
        write_experiment_outputs(run_experiment(config))
        grid = np.loadtxt(
            os.path.join(config.output_dir, "affinity_f00001.csv"),
            delimiter=",",
            ndmin=2,
        )
        big = math.e / (1.0 + math.e)
        expected = [[big, 1.0 - big], [1.0 - big, big]]
        assert np.allclose(grid, expected, rtol=0.0, atol=1e-12)


class TestBenchmarkRegression:
    def test_seed7_run_beats_passthrough_and_matches_fixture(self, tmp_path):
        with open(
            os.path.join(FIXTURE_DIR, "harness_benchmark.json"), encoding="utf-8"
        ) as fh:
            fixture = json.load(fh)
        config = make_config(
            tmp_path,
            methods="ssr,passthrough",
            trials=100,
            **{
                "scenario.n": "64",
                "scenario.r": "4",
                "scenario.length": "256",
                "scenario.seed": "7",
                "scenario.state_drift": "0",
                "ssr.window_k": "8",
            },
        )
        bundle = run_experiment(config)
        ssr = bundle.methods["ssr"]
        base = bundle.methods["passthrough"]
        margins = [
            b.mean_corrected_error - s.mean_corrected_error
            for s, b in zip(ssr.summaries, base.summaries)
        ]
        wins = sum(m > 0.0 for m in margins)
        assert wins >= 95
        assert wins == fixture["wins_over_passthrough"]
        assert ssr.aggregate_mean["mean_corrected_error"] == pytest.approx(
            fixture["ssr_mean_corrected_error"], rel=1e-12
        )
        assert base.aggregate_mean["mean_corrected_error"] == pytest.approx(
            fixture["passthrough_mean_corrected_error"], rel=1e-12
        )
        assert margins == pytest.approx(fixture["per_trial_margin"], rel=1e-12)


class TestCli:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        assert main(["simulate", write_cfg_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ssr" in out and "passthrough" in out
        assert os.path.exists(tmp_path / "out" / "results.csv")

    def test_bad_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n")
        assert main(["simulate", str(bad)]) == 2
        assert "nonsense.key" in capsys.readouterr().err
        for key, value, named in [
            ("methods", "ssr,ema,ssr", "methods: duplicate"),
            ("trials", "0", "trials: must be at least 1"),
            ("scenario.speed", "inf", "scenario: speed must be finite"),
            ("scenario.speed", "nan", "scenario: speed must be finite"),
        ]:
            assert main(["simulate", write_cfg_file(tmp_path, **{key: value})]) == 2, key
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {named}"), err

    def test_unknown_subcommand_exits_two(self, capsys):
        # argparse rejects it; the CLI's only exit codes are 0, 2, 3 and 4
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck"])
        assert exc.value.code == 2
        assert "invalid choice: 'selfcheck'" in capsys.readouterr().err
        assert cli_mod.__all__ == ["main"]

    def test_degenerate_waypoints_are_redrawn_then_exit_three(self, tmp_path, monkeypatch, capsys):
        # attempt 0 draws a rank-deficient waypoint and is skipped; a margin
        # of pi/2 then rejects every pair, so each later set is redrawn until
        # the attempts run out
        real = synth_mod.orthonormalize
        calls = []

        def rank_deficient_once(matrix):
            calls.append(matrix.shape)
            if len(calls) == 1:
                raise RankDeficient("injected")
            return real(matrix)

        monkeypatch.setattr(synth_mod, "orthonormalize", rank_deficient_once)
        monkeypatch.setattr(synth_mod, "ANGLE_DEGENERACY_MARGIN", np.pi / 2)
        cfg = write_cfg_file(tmp_path, trials=1, **{"scenario.speed": "1.0"})
        assert main(["simulate", cfg]) == 3
        err = capsys.readouterr().err
        assert err == (
            "numeric error: (scenario generation, trial=0): "
            f"no usable waypoint set after {WAYPOINT_ATTEMPTS} attempts\n"
        )
        # one failed draw, then two waypoints on each of the other attempts
        assert len(calls) == 1 + 2 * (WAYPOINT_ATTEMPTS - 1)

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_package_error_maps_onto_its_exit_code(
        self, tmp_path, monkeypatch, capsys, error
    ):
        def fail(config):
            raise error("injected")

        monkeypatch.setattr(cli_mod, "run_experiment", fail)
        code = main(["simulate", write_cfg_file(tmp_path)])
        err = capsys.readouterr().err
        is_config = error is ConfigInvalid
        assert code == (2 if is_config else 3)
        assert err.startswith("config error:" if is_config else "numeric error:")
        assert "Traceback" not in err
        assert is_config or issubclass(error, NumericError)

    def test_error_classes_are_found(self):
        assert {ConfigInvalid, NumericError, DegenerateRow} <= set(ERROR_CLASSES)

    def test_numeric_error_exits_three(self, tmp_path, monkeypatch, capsys):
        crafted = crafted_scenario([[1.0, 0.0, 0.0]] * 2, noisy=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted
        )
        cfg = write_cfg_file(
            tmp_path,
            methods="ssr",
            trials=1,
            **{
                "scenario.n": "3",
                "scenario.r": "1",
                "scenario.length": "2",
                "ssr.mode": "raw-sum",
            },
        )
        assert main(["simulate", cfg]) == 3
        err = capsys.readouterr().err
        assert "method=ssr" in err and "trial=0" in err and "frame=1" in err

    def test_near_cancelling_raw_sum_row_exits_three(self, tmp_path, monkeypatch, capsys):
        # the relative guard rejects the third row where an absolute 1e-12 floor did not
        crafted = near_cancelling_scenario()
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted
        )
        cfg = write_cfg_file(
            tmp_path,
            methods="ssr",
            trials=1,
            **{
                "scenario.n": "3",
                "scenario.r": "1",
                "scenario.length": "3",
                "ssr.mode": "raw-sum",
            },
        )
        assert main(["simulate", cfg]) == 3
        err = capsys.readouterr().err
        assert "(method=ssr, trial=0, frame=2)" in err
        assert "Traceback" not in err

    def test_ablation_numeric_error_names_window_trial_frame(self, tmp_path, monkeypatch, capsys):
        crafted = near_cancelling_scenario()
        monkeypatch.setattr(metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted)
        cfg = write_cfg_file(
            tmp_path,
            trials=1,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "3", "ssr.mode": "raw-sum"},
        )
        assert main(["ablate-window", cfg, "--sizes", "2"]) == 3
        err = capsys.readouterr().err
        assert "numeric error: (window_k=2, trial=0, frame=2): the current row has" in err
        assert "Traceback" not in err

    def test_ablation_error_names_the_first_failing_trial(self, tmp_path, monkeypatch, capsys):
        # at window_k=3 frames 0..2 are warm-up frames; trial 1 fails at frame 2,
        # which the stacked warm-up meets first, trial 0 only at frame 3
        late = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                [-0.15, -0.7, math.sqrt(0.4875 + 1e-10)]]
        early = [*near_cancelling_scenario().noisy, late[0]]
        trials = [crafted_scenario([[1.0, 0.0, 0.0]] * 4, noisy=states) for states in (late, early)]
        config = SsrConfig(window_k=3, mode="raw-sum")
        with pytest.raises(DegenerateRow) as excinfo:
            run_stream(config, np.stack([t.noisy for t in trials]), residuals=False)
        assert excinfo.value.frame == 2
        with pytest.raises(DegenerateRow) as excinfo:
            run_stream(config, trials[0].noisy, residuals=False)
        assert excinfo.value.frame == 3
        scenarios = iter(trials)
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: next(scenarios)
        )
        cfg = write_cfg_file(
            tmp_path,
            trials=2,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "4", "ssr.mode": "raw-sum"},
        )
        assert main(["ablate-window", cfg, "--sizes", "3"]) == 3
        err = capsys.readouterr().err
        assert "numeric error: (window_k=3, trial=0, frame=3): the current row has" in err
        assert "Traceback" not in err

    def test_ablation_score_error_wins_over_a_later_trials_correction(
        self, tmp_path, monkeypatch, capsys
    ):
        # trial 0 corrects cleanly but its one raw error of 5e-324 averages
        # to 0, so it has no finite improvement ratio; trial 1's correction
        # fails at frame 2, in the stack's warm-up
        noiseless = vanishing_noise_scenario()
        scenarios = iter([noiseless, near_cancelling_scenario()])
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: next(scenarios)
        )
        cfg = write_cfg_file(
            tmp_path,
            trials=2,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "3", "ssr.mode": "raw-sum"},
        )
        assert main(["ablate-window", cfg, "--sizes", "2"]) == 3
        err = capsys.readouterr().err
        assert "numeric error: (window_k=2, trial=0): no finite improvement ratio" in err
        assert "Traceback" not in err

    def test_ablation_scores_the_stack_without_correcting_again(
        self, tmp_path, monkeypatch, capsys
    ):
        # the stack corrects both trials cleanly; trial 1, whose raw errors
        # average to 0, has no finite improvement ratio, which its row of the
        # stack already shows
        noisy = crafted_scenario(
            [[1.0, 0.0, 0.0]] * 3, noisy=[[1.0, 0.0, 0.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.0]]
        )
        noiseless = vanishing_noise_scenario()
        scenarios = iter([noisy, noiseless])
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: next(scenarios)
        )
        shapes = []

        def counted(config, states, **kwargs):
            shapes.append(np.shape(states))
            return run_stream(config, states, **kwargs)

        monkeypatch.setattr(metrics_mod, "run_stream", counted)
        cfg = write_cfg_file(
            tmp_path,
            trials=2,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "3", "ssr.mode": "raw-sum"},
        )
        assert main(["ablate-window", cfg, "--sizes", "2"]) == 3
        err = capsys.readouterr().err
        assert "numeric error: (window_k=2, trial=1): no finite improvement ratio" in err
        assert shapes == [(2, 3, 3)]

    def test_unindexable_sweep_exits_two(self, tmp_path, capsys):
        # one scenario fits, but the trials x length x n noisy stack is past intp
        cfg = write_cfg_file(tmp_path, trials=2**62)
        assert main(["ablate-window", cfg, "--sizes", "2"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "does not fit in memory" in err
        assert "Traceback" not in err

    def test_unallocatable_scenario_exits_two(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path, **{"scenario.n": "1000000000000000"})
        assert main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "does not fit in memory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [("simulate",), ("ablate-window", "--sizes", "2")])
    @pytest.mark.parametrize("mode", ["softmax", "raw-sum"])
    @pytest.mark.parametrize("key", ["scenario.length", "scenario.n"])
    def test_unindexable_scenario_shape_exits_two(self, tmp_path, capsys, command, mode, key):
        # numpy indexes no array past intp; 2**62 frames or dimensions are past it
        cfg = write_cfg_file(tmp_path, **{key: str(2**62), "ssr.mode": mode})
        assert main([command[0], cfg, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "config error: scenario:" in err
        assert "exceed the largest array numpy can index" in err
        assert "Traceback" not in err

    def test_unwritable_output_exits_four(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        cfg = write_cfg_file(
            tmp_path, **{"output.dir": str(blocker / "nested")}
        )
        assert main(["simulate", cfg]) == 4

    def test_ablate_window_writes_tables(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path, trials=2)
        assert main(["ablate-window", cfg, "--sizes", "1,2,4"]) == 0
        csv_path = tmp_path / "out" / "ablation.csv"
        json_path = tmp_path / "out" / "ablation.json"
        assert csv_path.exists() and json_path.exists()
        rows = json.loads(json_path.read_text())["rows"]
        assert [r["window_k"] for r in rows] == [1, 2, 4]
        header = csv_path.read_text().splitlines()[0]
        assert header == "window_k,mean_improvement_ratio,std_improvement_ratio"

    def test_run_meta_records_the_config_files_sha256(self, tmp_path, capsys):
        # the sha256 of the bytes load_config parsed, CRLF line ends and all;
        # provenance stays out of the payloads
        cfg = write_cfg_file(tmp_path, trials=1)
        with open(cfg, "rb") as fh:
            crlf = fh.read().replace(b"\n", b"\r\n")
        with open(cfg, "wb") as fh:
            fh.write(crlf)
        digest = hashlib.sha256(crlf).hexdigest()
        out = tmp_path / "out"
        for argv in (["simulate", cfg], ["ablate-window", cfg, "--sizes", "2"]):
            assert main(argv) == 0
            assert json.loads((out / "run_meta.json").read_text())["config_sha256"] == digest
        for name in ("results.csv", "summary.json", "ablation.csv", "ablation.json"):
            payload = (out / name).read_text()
            assert digest not in payload and "config_sha256" not in payload, name

    def test_ablate_window_writes_run_meta(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path, trials=2)
        out = tmp_path / "out"
        payloads = []
        for _ in range(2):
            start = time.perf_counter()
            assert main(["ablate-window", cfg, "--sizes", "1,2,4"]) == 0
            wall = time.perf_counter() - start
            payloads.append({n: (out / n).read_bytes() for n in ("ablation.csv", "ablation.json")})
        assert sorted(os.listdir(out)) == ["ablation.csv", "ablation.json", "run_meta.json"]
        meta = json.loads((out / "run_meta.json").read_text())
        assert set(meta) == {
            "command", "config_sha256", "timestamp_utc", "peak_rss_mb", "minor_faults",
            "python_version", "numpy_version", *STAGE_KEYS, "frames_per_s", "correct_s_by_k",
        }
        assert meta["command"] == "ablate-window"
        stages = [meta[key] for key in STAGE_KEYS]
        assert all(isinstance(value, float) and value >= 0.0 for value in stages)
        # each size's correction seconds, in size order, summing to correct_s
        by_k = meta["correct_s_by_k"]
        assert list(by_k) == ["1", "2", "4"]
        assert all(isinstance(value, float) and value >= 0.0 for value in by_k.values())
        assert sum(by_k.values()) == pytest.approx(meta["correct_s"], rel=1e-12)
        assert sum(stages) <= wall
        assert meta["frames_per_s"] >= 3 * 2 * 30 / wall
        assert meta["numpy_version"] == np.__version__
        # the volatile file leaves the payloads byte for byte as they were
        assert payloads[0] == payloads[1]
        for key in meta:
            assert key.encode() not in payloads[0]["ablation.json"]

    def test_ablate_bad_sizes_exits_two(self, tmp_path):
        cfg = write_cfg_file(tmp_path)
        assert main(["ablate-window", cfg, "--sizes", "2,x"]) == 2
        assert main(["ablate-window", cfg, "--sizes", "0,2"]) == 2

    def test_affinity_dump_writes_requested_frames(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path)
        assert main(["affinity-dump", cfg, "--frames", "0,5"]) == 0
        assert (tmp_path / "out" / "affinity_f00000.csv").exists()
        assert (tmp_path / "out" / "affinity_f00005.csv").exists()

    def test_affinity_dump_writes_the_grids_simulate_writes(self, tmp_path, capsys):
        frames = {"output.emit_heatmaps": "true", "output.heatmap_frames": "0,5,29"}
        run = write_cfg_file(
            tmp_path, "run.cfg", **frames, **{"output.dir": str(tmp_path / "simulated")}
        )
        assert main(["simulate", run]) == 0
        dump = write_cfg_file(tmp_path, "dump.cfg")
        assert main(["affinity-dump", dump, "--frames", "0,5,29"]) == 0
        for frame in (0, 5, 29):
            name = f"affinity_f{frame:05}.csv"
            grid = (tmp_path / "out" / name).read_bytes()
            assert grid == (tmp_path / "simulated" / name).read_bytes()

    def test_affinity_dump_scores_nothing(self, tmp_path, monkeypatch, capsys):
        # noiseless, no corrected stream has a finite improvement ratio, and
        # the config names no ssr method: affinity-dump corrects trial 0 with
        # the ssr settings all the same, and scores no trial
        def scored(*args):
            raise AssertionError("affinity-dump scored a trial")

        monkeypatch.setattr(metrics_mod, "score_run", scored)
        monkeypatch.setattr(harness_mod, "score_run", scored)
        cfg = write_cfg_file(tmp_path, methods="passthrough", **{"noise.sigma": "0.0"})
        assert main(["affinity-dump", cfg, "--frames", "0,7"]) == 0
        assert sorted(os.listdir(tmp_path / "out")) == ["affinity_f00000.csv", "affinity_f00007.csv"]

    def test_affinity_dump_numeric_error_names_method_trial_frame(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            metrics_mod, "generate_scenario", lambda cfg, noise, walk: near_cancelling_scenario()
        )
        cfg = write_cfg_file(
            tmp_path,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "3", "ssr.mode": "raw-sum"},
        )
        assert main(["affinity-dump", cfg, "--frames", "0"]) == 3
        err = capsys.readouterr().err
        assert "numeric error: (method=ssr, trial=0, frame=2): row 2 has |sum phi|" in err

    def test_affinity_dump_bad_frame_exits_two(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path)
        assert main(["affinity-dump", cfg, "--frames", "999"]) == 2
        # the bad value came from the flag, not from the config file
        err = capsys.readouterr().err
        assert "config error: --frames: frame 999 outside [0, 30)" in err
        assert "heatmap_frames" not in err

    def test_ablate_failed_rename_keeps_previous_json(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = write_cfg_file(tmp_path, trials=1)
        out = tmp_path / "out"
        out.mkdir()
        previous = b'{"rows": "from an earlier sweep"}\n'
        (out / "ablation.json").write_bytes(previous)
        real_replace = os.replace

        def replace_failing_on_json(src, dst):
            if os.path.basename(dst) == "ablation.json":
                raise OSError("simulated rename failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_on_json)
        assert main(["ablate-window", cfg, "--sizes", "1,2"]) == 4
        assert "io error" in capsys.readouterr().err
        assert (out / "ablation.json").read_bytes() == previous
        assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]

    def test_outputs_follow_the_umask(self, tmp_path):
        cfg = write_cfg_file(tmp_path, trials=1)
        old = os.umask(0o027)
        try:
            assert main(["simulate", cfg]) == 0
            assert main(["ablate-window", cfg, "--sizes", "1,2"]) == 0
        finally:
            os.umask(old)
        for name in ("results.csv", "ablation.csv"):
            mode = stat.S_IMODE(os.stat(tmp_path / "out" / name).st_mode)
            assert mode == 0o666 & ~0o027, f"{name}: {oct(mode)}"

    def test_overflowing_states_exit_three_without_traceback(self, tmp_path):
        # entries near 1e160 are finite but their dot products are not
        done = self._simulate_subprocess(tmp_path, methods="ssr", **{"noise.sigma": "1e160"})
        assert done.returncode == 3, done.stderr
        assert "numeric error:" in done.stderr
        assert "method=ssr, trial=0, frame=0" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

    def test_overflowing_scores_exit_three_without_traceback(self, tmp_path):
        # noise near 2e307 in R^256 keeps states and the EMA finite, but
        # the distance to the clean state exceeds the float64 range
        done = self._simulate_subprocess(
            tmp_path,
            methods="ema,passthrough",
            **{"noise.sigma": "2e307", "scenario.n": "256"},
        )
        assert done.returncode == 3, done.stderr
        assert "numeric error:" in done.stderr
        assert "(method=ema, trial=0, frame=0)" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

    def test_vanishing_raw_error_exits_three(self, tmp_path, capsys):
        # at sigma 1e-320 the noisy states are the clean ones bit for bit:
        # every raw error is exactly 0, so no corrected error would have a
        # finite improvement ratio; either command fails before correcting,
        # naming noise.sigma
        overrides = {
            "methods": "ssr",
            "noise.sigma": "1e-320",
            "scenario.length": "20",
            "scenario.seed": "1",
        }
        want = "numeric error: (scenario generation, trial=0): noise.sigma = 1.000e-320 leaves"
        done = self._simulate_subprocess(tmp_path, **overrides)
        assert done.returncode == 3, done.stderr
        assert want in done.stderr
        assert "Traceback" not in done.stderr
        cfg = write_cfg_file(tmp_path, trials=1, **overrides)
        assert main(["ablate-window", cfg, "--sizes", "2"]) == 3
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["ssr", "ema"])
    @pytest.mark.parametrize("sigma", ["0.0", "1e-300"])
    def test_noise_that_rounds_away_fails_before_correcting(
        self, tmp_path, monkeypatch, capsys, sigma, method
    ):
        # sigma 0, or a sigma whose noise rounds away: every raw error is
        # exactly 0; both commands exit 3 naming noise.sigma, and nothing
        # is corrected (ablate-window corrects with ssr, whatever methods lists)
        def corrected(*args, **kwargs):
            raise AssertionError("a noiseless trial was corrected")

        for module in (harness_mod, metrics_mod):
            monkeypatch.setattr(module, "run_stream", corrected, raising=False)
        monkeypatch.setattr(harness_mod, "ema_fuse", corrected)
        cfg = write_cfg_file(tmp_path, methods=f"{method},passthrough", **{"noise.sigma": sigma})
        for argv in (["simulate", cfg], ["ablate-window", cfg, "--sizes", "2"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("numeric error: (scenario generation, trial=0): noise.sigma = ")
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigma", ["0.0", "1e-300"])
    def test_passthrough_alone_scores_a_noiseless_run(self, tmp_path, sigma):
        cfg = write_cfg_file(tmp_path, methods="passthrough", **{"noise.sigma": sigma})
        assert main(["simulate", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        mean = summary["methods"]["passthrough"]["aggregate_mean"]
        assert mean["mean_raw_error"] == 0.0 and mean["improvement_ratio"] == 0.0

    def test_huge_finite_scores_run_without_warnings(self, tmp_path):
        # scripts/example.cfg at noise 1e160: the distances' squares
        # overflow, the distances do not, and the norms are measured
        # again after exact power-of-two scaling; at 1e307 the sums
        # behind the means overflow too, and are taken again the same way
        with open(EXAMPLE_CFG, encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        def no_constant(name):
            raise AssertionError(f"summary.json holds {name}")

        for sigma in (1e160, 1e307):
            overrides = {
                "noise.sigma": repr(sigma),
                "methods": "ema,passthrough",
                "trials": "1",
                "output.dir": "out",
            }
            cfg = tmp_path / "example.cfg"
            cfg.write_text(
                "\n".join(
                    f"{key} = {overrides[key]}" if key in overrides else line
                    for line in lines
                    for key in [line.partition("=")[0].strip()]
                )
                + "\n"
            )
            done = self._simulate_subprocess(tmp_path, cfg=str(cfg))
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
            # the summary table stays a table: huge means print in e notation
            assert max(map(len, done.stdout.splitlines())) <= 80, done.stdout
            with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh, parse_constant=no_constant)
            # E||sigma g|| for g in R^64 is about 7.97 sigma
            raw = summary["methods"]["passthrough"]["aggregate_mean"]["mean_raw_error"]
            assert 7.5 * sigma < raw < 8.5 * sigma

    def test_huge_finite_states_run_without_warnings(self, tmp_path):
        # at 1e153 every dot product is finite; the self-expression
        # residual must not overflow on the window's Frobenius norm
        done = self._simulate_subprocess(
            tmp_path,
            methods="ssr",
            **{"noise.sigma": "1e153", "scenario.n": "64", "ssr.window_k": "8"},
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_overflowing_noise_exits_three_without_traceback(self, tmp_path):
        done = self._simulate_subprocess(tmp_path, **{"noise.sigma": "1e308"})
        assert done.returncode == 3, done.stderr
        assert "numeric error: (scenario generation, trial=0): frame 0:" in done.stderr
        assert "noisy state is not finite" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

    def test_overflowing_softmax_logits_exit_three_without_traceback(self, tmp_path):
        # every dot product is finite, but those above 1.078 overflow once
        # divided by the temperature; the error names the first window
        # that holds one
        temperature = 6e-309
        done = self._simulate_subprocess(
            tmp_path, methods="ssr", **{"ssr.temperature": repr(temperature)}
        )
        config = make_config(tmp_path, trials=1, **{"scenario.length": "16"})
        seed = derive_trial_seed(config.trajectory.seed, 0)
        noisy = generate_scenario(replace(config.trajectory, seed=seed), config.noise).noisy
        k = config.ssr.window_k
        with np.errstate(over="ignore"):
            first = next(
                t for t in range(len(noisy))
                if not np.isfinite(noisy[t - min(t, k):t + 1] @ noisy[t] / temperature).all()
            )
        assert first > 0
        assert done.returncode == 3, done.stderr
        assert f"(method=ssr, trial=0, frame={first}): window logits (dot products / temperature) overflow" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

    def test_ablation_names_the_trial_whose_scenario_fails(self, tmp_path):
        done = self._simulate_subprocess(
            tmp_path, ("ablate-window", "--sizes", "2,4"), trials=2, **{"noise.sigma": "1e308"}
        )
        assert done.returncode == 3, done.stderr
        assert "numeric error: (scenario generation, trial=0): frame 0:" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

    @staticmethod
    def _simulate_subprocess(tmp_path, command=("simulate",), trials=1, cfg=None, **overrides):
        if cfg is None:
            cfg = write_cfg_file(tmp_path, trials=trials, **{"scenario.length": "16", **overrides})
        src = os.path.dirname(os.path.dirname(os.path.abspath(ssrlab.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "ssrlab.cli", command[0], cfg, *command[1:]],
            env=dict(os.environ, PYTHONPATH=src),
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"scenario.n = 8\xff\n")
        assert main(["simulate", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_affinity_dump_empty_frames_exits_two(self, tmp_path):
        cfg = write_cfg_file(tmp_path)
        assert main(["affinity-dump", cfg, "--frames", ""]) == 2

    def test_runs_without_importing_scipy(self, tmp_path):
        # scipy is a test oracle only; a fresh process that simulates a
        # moving subspace must never load it, nor numpy.ma (about 8 ms and
        # 1.6 MB of peak RSS, once loaded by np.unique in the generator)
        cfg = write_cfg_file(
            tmp_path, trials=1, **{"scenario.length": "16", "scenario.speed": "1.0", "scenario.waypoints": "3"}
        )
        code = (
            "import sys\n"
            "from ssrlab.cli import main\n"
            f"assert main(['simulate', {cfg!r}]) == 0\n"
            "print('scipy modules:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(ssrlab.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "scipy modules: []" in done.stdout
        assert "numpy.ma loaded: False" in done.stdout


# Values that reach every branch of the typed parsers: numbers of every
# size, non-numbers, enum members, and arbitrary text.
_CONFIG_VALUES = st.one_of(
    st.text(max_size=10),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["1" + "0" * 400, "1e400", "-0", "nan", "inf", "1,,2", "0,5", "",
         "true", "raw-sum", "store-corrected", "drift-random-walk", "ssr,ema"]
    ),
)


@st.composite
def config_texts(draw) -> str:
    values = {**BASE, "output.dir": "out"}
    for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=6)):
        values[key] = draw(_CONFIG_VALUES)
    return "\n".join(f"{key} = {value}" for key, value in values.items())


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), config_texts()))
@example(text="\n".join(f"{key} = {value}" for key, value in {
    **BASE, "output.dir": "out", "scenario.n": "1" + "0" * 400}.items()))
def test_property_config_text_parses_or_raises_config_invalid(text):
    try:
        config = build_experiment_config(parse_config_text(text))
    except ConfigInvalid:
        return
    assert isinstance(config, ExperimentConfig)


def _flatten(echo: dict, prefix: str = "") -> dict[str, str]:
    """Config-file values of a config_to_dict echo; an unset (None) value is left out."""
    values = {}
    for key, value in echo.items():
        if isinstance(value, dict):
            values.update(_flatten(value, f"{prefix}{key}."))
        elif isinstance(value, list):
            values[prefix + key] = ",".join(map(str, value))
        elif value is not None:
            values[prefix + key] = str(value)
    return values


def _assert_echo_round_trips(config: ExperimentConfig) -> None:
    assert build_experiment_config(_flatten(config_to_dict(config))) == config


def load_workloads():
    """perfbench/workloads.py, loaded read-only from the file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses reads the module of each class it decorates from sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every key set, and all but ssr.mode away from their defaults.
_EVERY_KEY = {
    **BASE,
    "scenario.speed": "0.5",
    "scenario.waypoints": "3",
    "noise.kind": "burst",
    "noise.burst_prob": "0.25",
    "noise.burst_scale": "3.5",
    "ssr.mode": "softmax",
    "ssr.temperature": "2.5",
    "ssr.buffer_policy": "store-corrected",
    "output.dir": "out",
    "output.emit_heatmaps": "yes",
    "output.heatmap_frames": "0,7",
}


def _finite_at_least_zero():
    return st.floats(min_value=0.0, allow_infinity=False)


# A value from each key's valid domain. scenario.r stays below every
# scenario.n, and output.heatmap_frames below every scenario.length, so
# these keys combine freely with BASE and with each other; only ssr.mode
# raw-sum beside an ssr.temperature fails to build.
_VALID_VALUES = {
    "scenario.n": st.integers(min_value=8, max_value=10**6),
    "scenario.r": st.integers(min_value=1, max_value=7),
    "scenario.length": st.integers(min_value=30, max_value=10**6),
    "scenario.seed": st.integers(min_value=0, max_value=2**64 - 1),
    "scenario.speed": _finite_at_least_zero(),
    "scenario.waypoints": st.integers(min_value=2, max_value=10**6),
    "scenario.state_drift": _finite_at_least_zero(),
    "noise.kind": st.sampled_from(sorted(NOISE_KINDS)),
    "noise.sigma": _finite_at_least_zero(),
    "noise.burst_prob": st.floats(min_value=0.0, max_value=1.0),
    "noise.burst_scale": _finite_at_least_zero(),
    "methods": st.lists(
        st.sampled_from(KNOWN_METHODS), min_size=1, max_size=3, unique=True
    ).map(",".join),
    "trials": st.integers(min_value=1, max_value=10**6),
    "ssr.window_k": st.integers(min_value=1, max_value=10**6),
    "ssr.mode": st.sampled_from(sorted(AFFINITY_MODES)),
    "ssr.temperature": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "ssr.buffer_policy": st.sampled_from(sorted(BUFFER_POLICIES)),
    "ema.alpha": st.floats(min_value=0.0, max_value=1.0),
    "output.dir": st.text(alphabet="abz09/._-", min_size=1, max_size=12),
    "output.emit_heatmaps": st.sampled_from(["true", "1", "YES", "false", "0", "No"]),
    "output.heatmap_frames": st.lists(st.integers(min_value=0, max_value=29), max_size=4).map(
        lambda frames: ",".join(map(str, frames))
    ),
}


@st.composite
def valid_config_texts(draw) -> str:
    values = {**BASE, "output.dir": "out"}
    for key in draw(st.lists(st.sampled_from(sorted(_VALID_VALUES)), max_size=6)):
        value = draw(_VALID_VALUES[key])
        values[key] = repr(value) if isinstance(value, float) else str(value)
    return "\n".join(f"{key} = {value}" for key, value in values.items())


def test_valid_values_cover_every_key():
    assert set(_VALID_VALUES) == _KNOWN_KEYS


@settings(max_examples=400, deadline=None)
@given(text=valid_config_texts())
def test_property_config_echo_round_trips(text):
    try:
        config = build_experiment_config(parse_config_text(text))
    except ConfigInvalid:
        return
    _assert_echo_round_trips(config)


# Magnitudes from the smallest subnormal to 1e300, and 0.0 where a key allows it.
_POSITIVE = st.floats(min_value=5e-324, max_value=1e300)
_MAGNITUDES = st.one_of(st.just(0.0), _POSITIVE)


@st.composite
def contract_runs(draw) -> tuple[dict[str, str], list[str]]:
    """A small config from every key's valid domain (output.dir left to set), and a command."""
    n = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=1, max_value=12))
    frames = st.lists(st.integers(min_value=0, max_value=length - 1), max_size=3)
    values = {
        "scenario.n": n,
        "scenario.r": draw(st.integers(min_value=1, max_value=n - 1)),
        "scenario.length": length,
        "scenario.seed": draw(st.integers(min_value=0, max_value=2**64 - 1)),
        "scenario.speed": draw(_MAGNITUDES),
        "scenario.waypoints": draw(st.integers(min_value=2, max_value=4)),
        "scenario.state_drift": draw(_MAGNITUDES),
        "noise.kind": draw(st.sampled_from(sorted(NOISE_KINDS))),
        "noise.sigma": draw(_MAGNITUDES),
        "noise.burst_prob": draw(st.floats(min_value=0.0, max_value=1.0)),
        "noise.burst_scale": draw(_MAGNITUDES),
        "methods": ",".join(
            draw(st.lists(st.sampled_from(KNOWN_METHODS), min_size=1, unique=True))
        ),
        "trials": draw(st.integers(min_value=1, max_value=3)),
        "ssr.window_k": draw(st.integers(min_value=1, max_value=13)),
        "ssr.mode": draw(st.sampled_from(sorted(AFFINITY_MODES))),
        "ssr.buffer_policy": draw(st.sampled_from(sorted(BUFFER_POLICIES))),
        "ema.alpha": draw(st.floats(min_value=0.0, max_value=1.0)),
        "output.emit_heatmaps": draw(st.sampled_from(["true", "false"])),
        "output.heatmap_frames": ",".join(map(str, draw(frames))),
    }
    if values["ssr.mode"] == "softmax" and draw(st.booleans()):
        values["ssr.temperature"] = draw(_POSITIVE)
    command = [draw(st.sampled_from(["simulate", "ablate-window", "affinity-dump"]))]
    if command[0] == "ablate-window":
        sizes = draw(st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=3))
        command += ["--sizes", ",".join(map(str, sizes))]
    elif command[0] == "affinity-dump":
        command += ["--frames", ",".join(map(str, draw(frames.filter(bool))))]
    text = {key: repr(v) if isinstance(v, float) else str(v) for key, v in values.items()}
    return text, command


@settings(max_examples=100, deadline=None)
@given(run=contract_runs())
def test_property_cli_keeps_the_exit_code_contract(run):
    # any valid config, through any command, exits 0, 2, 3 or 4, with no
    # traceback or warning on stderr and no temp file left behind
    values, command = run
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            for key, value in {**values, "output.dir": os.path.join(tmp, "out")}.items():
                fh.write(f"{key} = {value}\n")
        with (
            warnings.catch_warnings(record=True) as caught,
            contextlib.redirect_stderr(stderr),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("always")
            code = main([command[0], cfg, *command[1:]])
        left = [name for _, _, names in os.walk(tmp) for name in names if name.startswith(".tmp-")]
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue() and "Warning" not in stderr.getvalue()
    assert [str(w.message) for w in caught] == []
    assert left == []


@pytest.mark.parametrize("mode", ["softmax", "raw-sum"])
def test_every_key_config_round_trips(mode):
    assert set(_EVERY_KEY) == _KNOWN_KEYS
    values = {**_EVERY_KEY, "ssr.mode": mode}
    if mode == "raw-sum":
        del values["ssr.temperature"]
    _assert_echo_round_trips(build_experiment_config(values))


@pytest.mark.parametrize("name", ["example", "window_sweep", "moving_feedback"])
def test_perfbench_workload_configs_round_trip(name, tmp_path):
    text = load_workloads().WORKLOADS[name].config_text(1234, str(tmp_path / "out"))
    _assert_echo_round_trips(build_experiment_config(parse_config_text(text)))


def test_example_cfg_round_trips_and_is_the_example_workload():
    _assert_echo_round_trips(load_config(EXAMPLE_CFG))
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    template = load_workloads().WORKLOADS["example"].config_text(1234, "{out}").splitlines()

    def other_than_output_dir(lines):
        return [line for line in lines if line.partition("=")[0].strip() != "output.dir"]

    assert len(lines) == len(template)
    assert other_than_output_dir(lines) == other_than_output_dir(template)


def test_readme_config_table_matches_the_schema():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    defaults = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            defaults[cells[0].strip("`")] = cells[-1].strip("`")
    assert set(defaults) == _KNOWN_KEYS
    for key, default in defaults.items():
        section_name, field, parser = config_mod._SCHEMA[key]
        expected = config_mod._SECTIONS[section_name].__dataclass_fields__[field].default
        if default == "required":
            assert expected is MISSING, key
        elif key == "ssr.temperature":
            # the one default that depends on another key
            assert (default, expected) == ("sqrt(n)", None)
        else:
            text = "" if default == "empty" else default
            assert expected is not MISSING, key
            assert config_mod._parse(key, text, parser) == expected, key


def test_readme_package_namespace_matches_all():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("`ssrlab.__all__`, holds these names:\n\n", 1)[1].split("\n\n", 1)[0]
    names = [line.split("`")[1] for line in listing.splitlines() if line.startswith("- `")]
    assert names == ssrlab.__all__


def test_readme_quick_start_table_matches_simulate(tmp_path, capsys):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("summary table:\n\n```\n", 1)[1].split("```", 1)[0]
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        text = fh.read().replace("output.dir = out/example", f"output.dir = {tmp_path / 'out'}")
    cfg = tmp_path / "example.cfg"
    cfg.write_text(text)
    assert main(["simulate", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines(keepends=True)
    assert "".join(out[:4]) == table


@pytest.mark.parametrize(
    "value", [0.5, -3.25, 12345.123456, 1e160, -7.9e160, 1e-200, np.inf, np.nan]
)
def test_fit_column_keeps_fixed_point_where_it_fits(value):
    # the widths and decimals of the simulate and ablate-window tables
    for width, decimals in [(12, 6), (10, 4), (9, 4), (13, 6)]:
        text = fit_column(value, width, decimals)
        assert len(text) == width
        fixed = f"{value:>{width}.{decimals}f}"
        if len(fixed) == width:
            assert text == fixed
        else:
            assert "e" in text and float(text) == pytest.approx(value, rel=1e-2)


def row_by_row_csv(bundle) -> str:
    """results.csv as one %-format per row, the writer's reference."""
    row_format = "%d,%s,%d" + ",%.17g" * len(SCORE_COLUMNS)
    lines = [CSV_HEADER]
    for method in sorted(bundle.methods):
        for trial, scores in enumerate(bundle.methods[method].scores):
            for frame, row in enumerate(scores.tolist()):
                lines.append(row_format % (frame, method, trial, *row))
    return "\n".join(lines) + "\n"


@st.composite
def score_bundles(draw):
    # every method of a trial shares its raw-error column, as score_run
    # gives it; other columns copy it, copy it with zeros of the other sign
    # (equal by ==, not by bits), or are drawn afresh
    length = draw(st.integers(min_value=1, max_value=6))
    trials = draw(st.integers(min_value=1, max_value=3))
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.7976931348623157e308]),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    columns = st.lists(values, min_size=length, max_size=length)
    raws = [np.array(draw(columns)) for _ in range(trials)]
    methods = {}
    for method in draw(st.sets(st.sampled_from(["ssr", "ema", "passthrough"]), min_size=1)):
        per_trial = []
        for raw in raws:
            scores = np.empty((length, len(SCORE_COLUMNS)))
            scores[:, 0] = raw
            for j in range(1, len(SCORE_COLUMNS)):
                how = draw(st.sampled_from(["raw", "flipped zeros", "fresh"]))
                if how == "raw":
                    scores[:, j] = raw
                elif how == "flipped zeros":
                    flipped = np.copysign(0.0, -np.copysign(1.0, raw))
                    scores[:, j] = np.where(raw == 0.0, flipped, raw)
                else:
                    scores[:, j] = draw(columns)
            per_trial.append(scores)
        methods[method] = harness_mod.MethodResult(tuple(per_trial), (), {}, {})
    return methods


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(methods=score_bundles())
def test_property_csv_writer_is_the_row_by_row_writer(tmp_path, methods):
    bundle = harness_mod.ResultBundle(
        config=make_config(tmp_path), methods=methods, heatmaps={}, timestamp=""
    )
    path = tmp_path / "results.csv"
    dump_csv(bundle, str(path))
    assert path.read_bytes() == row_by_row_csv(bundle).encode()
