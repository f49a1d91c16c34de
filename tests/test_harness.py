"""Experiment harness and CLI tests.

Runs are tiny (n=8, T=30, 3 trials) so the module stays fast, with one
exception: the frozen full-scale regression in TestBenchmarkRegression.
"""

import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssrlab
import ssrlab.harness as harness_mod
from ssrlab.affinity import StateVector
from ssrlab.cli import main
from ssrlab.config import (
    _KNOWN_KEYS,
    ExperimentConfig,
    build_experiment_config,
    load_config,
    parse_config_text,
)
from ssrlab.errors import ConfigInvalid, DegenerateRow
from ssrlab.grassmann import SubspacePoint
from ssrlab.harness import (
    CSV_HEADER,
    dump_csv,
    run_experiment,
    summary_payload,
    write_experiment_outputs,
)
from ssrlab.regularizer import ema_fuse
from ssrlab.synth import ScenarioFrame, derive_trial_seed, generate_scenario
from stream_oracle import list_oracle

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

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
        config = make_config(
            tmp_path,
            methods="ssr",
            **{"noise.sigma": "0.0", "scenario.state_drift": "0.0"},
        )
        bundle = run_experiment(config)
        for scores in bundle.methods["ssr"].scores:
            assert np.all(scores[:, 1] < 1e-9)

    def test_ema_matches_local_recursion(self, tmp_path):
        config = make_config(tmp_path, methods="ema", trials=1)
        bundle = run_experiment(config)
        seed = derive_trial_seed(config.trajectory.seed, 0)
        frames = generate_scenario(
            replace(config.trajectory, seed=seed), config.noise
        )
        fused = frames[0].noisy_state.values
        expected_errors = [np.linalg.norm(fused - frames[0].clean_state.values)]
        for frame in frames[1:]:
            fused = 0.3 * frame.noisy_state.values + 0.7 * fused
            expected_errors.append(
                np.linalg.norm(fused - frame.clean_state.values)
            )
        got = bundle.methods["ema"].scores[0][:, 1]
        assert np.allclose(got, expected_errors, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.123456789, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("length", [1, 2, 256, 1024])
    def test_ema_recursion_is_the_ema_fuse_chain_bit_for_bit(self, alpha, length):
        noisy = np.random.default_rng(length).standard_normal((length, 5))
        fused = [StateVector(noisy[0])]
        for row in noisy[1:]:
            fused.append(ema_fuse(StateVector(row), fused[-1], alpha))
        expected = np.array([state.values for state in fused])
        assert np.array_equal(harness_mod._run_ema(noisy, alpha), expected)

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
        basis = np.zeros((3, 1))
        basis[0, 0] = 1.0
        span = SubspacePoint(basis)
        crafted = [
            ScenarioFrame(
                clean_state=StateVector(np.array([1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([1.0, 0.0, 0.0])),
                truth_subspace=span,
            ),
            ScenarioFrame(
                clean_state=StateVector(np.array([-1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([-1.0, 0.0, 0.0])),
                truth_subspace=span,
            ),
        ]
        monkeypatch.setattr(
            harness_mod, "generate_scenario", lambda cfg, noise: crafted
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

    def test_records_identical_across_reruns(self, tmp_path):
        config = make_config(tmp_path, trials=4)
        first = run_experiment(config)
        second = run_experiment(config)
        for method in config.methods:
            a = first.methods[method]
            b = second.methods[method]
            assert all(np.array_equal(x, y) for x, y in zip(a.scores, b.scores))
            assert a.aggregate_mean == b.aggregate_mean

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
            frames = generate_scenario(replace(config.trajectory, seed=seed), config.noise)
            outputs, _, residuals = list_oracle(
                [f.noisy_state.values for f in frames],
                config.ssr.window_k,
                config.ssr.mode,
                config.ssr.temperature,
                policy,
            )
            errors = [
                np.linalg.norm(out - f.clean_state.values) for out, f in zip(outputs, frames)
            ]
            got = [row for row in rows if int(row[2]) == trial]
            assert len(got) == len(frames)
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
        assert set(meta) == {"timestamp_utc"}
        assert meta["timestamp_utc"] == bundle.timestamp

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
            seed=0,
            tool_version="0",
            timestamp="",
        )
        path = tmp_path / "empty.csv"
        dump_csv(bundle, str(path))
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_single_passthrough_frame_row(self, tmp_path, monkeypatch):
        # noisy sits exactly one unit from clean, so both error columns read 1
        crafted = [
            ScenarioFrame(
                clean_state=StateVector(np.array([1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([1.0, 1.0, 0.0])),
                truth_subspace=SubspacePoint(np.eye(3, 1)),
            )
        ]
        monkeypatch.setattr(
            harness_mod, "generate_scenario", lambda cfg, noise: crafted
        )
        config = make_config(
            tmp_path,
            methods="passthrough",
            trials=1,
            **{"scenario.n": "3", "scenario.r": "1", "scenario.length": "1"},
        )
        paths = write_experiment_outputs(run_experiment(config))
        lines = open(paths["csv"], encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        frame, method, trial, raw, corrected = lines[1].split(",")[:5]
        assert (frame, method, trial) == ("0", "passthrough", "0")
        assert float(raw) == 1.0
        assert float(corrected) == 1.0

    def test_two_frame_heatmap_matches_hand_softmax(self, tmp_path, monkeypatch):
        # orthonormal pair at temperature 1: Gram is the identity, so each
        # row softmaxes [1, 0] into [e, 1] / (1 + e)
        crafted = [
            ScenarioFrame(
                clean_state=StateVector(np.array([1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([1.0, 0.0, 0.0])),
                truth_subspace=SubspacePoint(np.eye(3, 1)),
            ),
            ScenarioFrame(
                clean_state=StateVector(np.array([0.0, 1.0, 0.0])),
                noisy_state=StateVector(np.array([0.0, 1.0, 0.0])),
                truth_subspace=SubspacePoint(np.array([[0.0], [1.0], [0.0]])),
            ),
        ]
        monkeypatch.setattr(
            harness_mod, "generate_scenario", lambda cfg, noise: crafted
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

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.cfg")]) == 2

    def test_numeric_error_exits_three(self, tmp_path, monkeypatch, capsys):
        basis = np.zeros((3, 1))
        basis[0, 0] = 1.0
        span = SubspacePoint(basis)
        crafted = [
            ScenarioFrame(
                clean_state=StateVector(np.array([1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([1.0, 0.0, 0.0])),
                truth_subspace=span,
            ),
            ScenarioFrame(
                clean_state=StateVector(np.array([-1.0, 0.0, 0.0])),
                noisy_state=StateVector(np.array([-1.0, 0.0, 0.0])),
                truth_subspace=span,
            ),
        ]
        monkeypatch.setattr(
            harness_mod, "generate_scenario", lambda cfg, noise: crafted
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
        # the third state's raw row sums to 1e-10 against sum |phi| = 2:
        # the relative guard rejects it where an absolute 1e-12 floor did not
        span = SubspacePoint(np.eye(3, 1))
        clean = StateVector(np.array([1.0, 0.0, 0.0]))
        noisy = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-0.3, -0.7, math.sqrt(0.42 + 1e-10)],
        ]
        crafted = [
            ScenarioFrame(clean_state=clean, noisy_state=StateVector(np.array(row)),
                          truth_subspace=span)
            for row in noisy
        ]
        monkeypatch.setattr(
            harness_mod, "generate_scenario", lambda cfg, noise: crafted
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

    def test_unallocatable_scenario_exits_two(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path, **{"scenario.n": "1000000000000000"})
        assert main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "does not fit in memory" in err
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

    def test_ablate_bad_sizes_exits_two(self, tmp_path):
        cfg = write_cfg_file(tmp_path)
        assert main(["ablate-window", cfg, "--sizes", "2,x"]) == 2
        assert main(["ablate-window", cfg, "--sizes", "0,2"]) == 2

    def test_affinity_dump_writes_requested_frames(self, tmp_path, capsys):
        cfg = write_cfg_file(tmp_path)
        assert main(["affinity-dump", cfg, "--frames", "0,5"]) == 0
        assert (tmp_path / "out" / "affinity_f00000.csv").exists()
        assert (tmp_path / "out" / "affinity_f00005.csv").exists()

    def test_affinity_dump_bad_frame_exits_two(self, tmp_path):
        cfg = write_cfg_file(tmp_path)
        assert main(["affinity-dump", cfg, "--frames", "999"]) == 2

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
        # noise near 1e154 keeps states and the EMA finite, but squared
        # distances to the clean state overflow
        done = self._simulate_subprocess(
            tmp_path, methods="ema,passthrough", **{"noise.sigma": "1e154"}
        )
        assert done.returncode == 3, done.stderr
        assert "numeric error:" in done.stderr
        assert "(method=ema, trial=0, frame=0)" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr

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

    @staticmethod
    def _simulate_subprocess(tmp_path, **overrides):
        cfg = write_cfg_file(tmp_path, trials=1, **{"scenario.length": "16", **overrides})
        src = os.path.dirname(os.path.dirname(os.path.abspath(ssrlab.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "ssrlab.cli", "simulate", cfg],
            env=dict(os.environ, PYTHONPATH=src),
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

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out


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
