#!/usr/bin/env python3
"""Regenerate the frozen regression fixtures under tests/fixtures/.

Run from the repository root after any intentional change to the
generator or the corrector:

    python3 scripts/refresh_fixtures.py

The fixtures pin the denoising benchmark (100 trials on the static
n=64/r=4 scenario) and the window-size ablation so later refactors
cannot silently change the numbers. Values are written with 17
significant digits; the tests compare at 1e-12 relative tolerance.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ssrlab import (  # noqa: E402
    NoiseModel,
    SsrConfig,
    StackedScenario,
    TrajectoryConfig,
    ablate_window,
    build_experiment_config,
    derive_trial_seed,
    generate_scenario,
    run_experiment,
    run_stream,
    score_run,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")

BASE_SEED = 1234
TRIALS = 100
ABLATION_SIZES = [2, 4, 8, 16, 32, 64]

TRAJECTORY = TrajectoryConfig(
    n=64, r=4, length=256, seed=BASE_SEED, speed=0.0,
    waypoint_count=2, state_drift=0.05,
)
NOISE = NoiseModel(kind="gaussian-iid", sigma=0.1)
SSR = SsrConfig(window_k=8)


def _scenario_echo() -> dict:
    return {
        "n": TRAJECTORY.n,
        "r": TRAJECTORY.r,
        "length": TRAJECTORY.length,
        "seed": TRAJECTORY.seed,
        "speed": TRAJECTORY.speed,
        "waypoints": TRAJECTORY.waypoint_count,
        "state_drift": TRAJECTORY.state_drift,
        "noise_kind": NOISE.kind,
        "noise_sigma": NOISE.sigma,
    }


def denoising_fixture() -> dict:
    ratios = []
    wins = 0
    for trial in range(TRIALS):
        seed = derive_trial_seed(BASE_SEED, trial)
        scenario = StackedScenario(generate_scenario(replace(TRAJECTORY, seed=seed), NOISE))
        corrected, _, _ = run_stream(SSR, scenario.noisy)
        _, summary = score_run(scenario, corrected)
        _, base = score_run(scenario, scenario.noisy)
        wins += int(summary.mean_corrected_error < base.mean_corrected_error)
        ratios.append(summary.improvement_ratio)
    return {
        "scenario": _scenario_echo(),
        "ssr_window_k": SSR.window_k,
        "trials": TRIALS,
        "wins_over_passthrough": wins,
        "mean_improvement_ratio": float(np.mean(ratios)),
        "per_trial_improvement_ratio": ratios,
    }


def harness_benchmark_fixture() -> dict:
    """Full run_experiment pass at seed 7, no state drift.

    Complements the drifting-scenario fixture above: here the clean
    state is constant, so the window averages iid noise and the margin
    over passthrough is wide.
    """
    config = build_experiment_config({
        "scenario.n": "64",
        "scenario.r": "4",
        "scenario.length": "256",
        "scenario.seed": "7",
        "noise.kind": "gaussian-iid",
        "noise.sigma": "0.1",
        "methods": "ssr,passthrough",
        "trials": "100",
        "ssr.window_k": "8",
        "output.dir": "unused",
    })
    bundle = run_experiment(config)
    ssr = bundle.methods["ssr"]
    base = bundle.methods["passthrough"]
    margins = [
        b.mean_corrected_error - s.mean_corrected_error
        for s, b in zip(ssr.summaries, base.summaries)
    ]
    return {
        "scenario": {
            "n": 64, "r": 4, "length": 256, "seed": 7,
            "noise_kind": "gaussian-iid", "noise_sigma": 0.1,
        },
        "ssr_window_k": config.ssr.window_k,
        "trials": config.trials,
        "wins_over_passthrough": sum(m > 0.0 for m in margins),
        "ssr_mean_corrected_error": ssr.aggregate_mean["mean_corrected_error"],
        "passthrough_mean_corrected_error": base.aggregate_mean["mean_corrected_error"],
        "per_trial_margin": margins,
    }


def ablation_fixture() -> dict:
    rows = ablate_window(ABLATION_SIZES, TRAJECTORY, NOISE, trials=TRIALS, ssr=SSR)
    return {
        "scenario": _scenario_echo(),
        "trials": TRIALS,
        "rows": [
            {
                "window_k": row.window_k,
                "mean_improvement_ratio": row.mean_improvement_ratio,
                "std_improvement_ratio": row.std_improvement_ratio,
            }
            for row in rows
        ],
    }


def main() -> int:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    targets = {
        "denoising_regression.json": denoising_fixture(),
        "harness_benchmark.json": harness_benchmark_fixture(),
        "window_ablation.json": ablation_fixture(),
    }
    for name, payload in targets.items():
        path = os.path.join(FIXTURE_DIR, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
