"""perfbench's tracer finds and times the functions its per-layer metrics read.

perfbench/ lies outside the tier-1 test paths, so this test loads its
tracer read-only from the file: a function renamed or deleted in src/
shows here as a missing span or a metric that reads 0.
"""

import importlib.util
import os

import ssrlab.harness as harness_mod
import ssrlab.metrics as metrics_mod
import ssrlab.synth as synth_mod
from ssrlab.config import build_experiment_config

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_the_geodesics_and_span_residuals_that_run(tmp_path):
    tracer = load_tracer().Tracer(str(tmp_path))
    assert tracer.missing == []
    config = synth_mod.TrajectoryConfig(n=8, r=2, length=12, seed=3, speed=1.0, waypoint_count=3)
    tracer.install()
    try:
        # looked up through the modules, whose bindings the tracer replaced
        scenario = synth_mod.generate_scenario(config, synth_mod.NoiseModel(sigma=0.1))
        metrics_mod.score_run(scenario, scenario.noisy)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, ())
    assert metrics["trace.missing_spans"] == 0
    assert metrics["grassmann.geodesic_calls"] >= 1
    assert metrics["grassmann.span_residual_calls"] >= 1
    assert metrics["metrics.frames_scored"] == config.length


def test_tracer_splits_a_run_into_its_trials(tmp_path):
    # a trial starts where run_experiment calls derive_trial_seed; each
    # trial's scenario, correction and scores must land in the counters
    tracer = load_tracer().Tracer(str(tmp_path))
    config = build_experiment_config(
        {
            "scenario.n": "8",
            "scenario.r": "2",
            "scenario.length": "12",
            "scenario.seed": "5",
            "noise.kind": "gaussian-iid",
            "noise.sigma": "0.1",
            "methods": "ssr,ema,passthrough",
            "trials": "2",
            "output.dir": str(tmp_path / "out"),
        }
    )
    tracer.install()
    try:
        harness_mod.run_experiment(config)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1.0, ())
    assert metrics["trace.missing_spans"] == 0
    assert metrics["trace.trials"] == 2
    assert metrics["synth.frames"] == 24
    assert metrics["regularizer.frames"] == 24
    assert metrics["metrics.frames_scored"] == 72
