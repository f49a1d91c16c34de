"""Scenario generator tests.

The noise calibration oracle is the exact mean of a chi distribution:
E||sigma g|| = sigma * sqrt(2) * Gamma((n+1)/2) / Gamma(n/2) for
g ~ N(0, I_n), evaluated with math.gamma, not with the library.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ssrlab.affinity import StateVector
from ssrlab.grassmann import (
    principal_angles,
    projection_distance,
    span_membership_residual,
)
from ssrlab.synth import (
    NOISE_BURST,
    NOISE_DRIFT_WALK,
    NOISE_GAUSSIAN,
    NoiseModel,
    ScenarioFrame,
    TrajectoryConfig,
    derive_trial_seed,
    generate_scenario,
    sample_waypoints,
)

STATIC = TrajectoryConfig(n=16, r=3, length=40, seed=99, speed=0.0)
MOVING = TrajectoryConfig(
    n=16, r=3, length=60, seed=99, speed=0.8, waypoint_count=3
)


def chi_mean(n: int) -> float:
    return math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)


class TestDeterminism:
    def test_identical_configs_are_bitwise_identical(self):
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        a = generate_scenario(MOVING, noise)
        b = generate_scenario(MOVING, noise)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.clean_state.values, fb.clean_state.values)
            assert np.array_equal(fa.noisy_state.values, fb.noisy_state.values)
            assert np.array_equal(fa.truth_subspace.basis, fb.truth_subspace.basis)

    def test_prefix_stable_under_length_extension(self):
        # counter-based streams: frame t's draws do not depend on length
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        drift_cfg = replace(STATIC, state_drift=0.03)
        short = generate_scenario(replace(drift_cfg, length=10), noise)
        long = generate_scenario(replace(drift_cfg, length=40), noise)
        for fs, fl in zip(short, long):
            assert np.array_equal(fs.clean_state.values, fl.clean_state.values)
            assert np.array_equal(fs.noisy_state.values, fl.noisy_state.values)

    def test_different_seeds_differ(self):
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        a = generate_scenario(STATIC, noise)
        b = generate_scenario(replace(STATIC, seed=100), noise)
        assert not np.array_equal(a[0].noisy_state.values, b[0].noisy_state.values)

    def test_derive_trial_seed_is_stable_and_distinct(self):
        seeds = [derive_trial_seed(1234, trial) for trial in range(64)]
        assert seeds == [derive_trial_seed(1234, trial) for trial in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**64 for s in seeds)


class TestStaticScenario:
    def test_noiseless_static_stream_is_bitwise_constant(self):
        frames = generate_scenario(STATIC, NoiseModel(sigma=0.0))
        first = frames[0]
        for frame in frames:
            assert frame.clean_state is first.clean_state
            assert frame.noisy_state is frame.clean_state
            assert frame.truth_subspace is first.truth_subspace

    def test_clean_states_are_unit_norm(self):
        frames = generate_scenario(STATIC, NoiseModel(sigma=0.0))
        assert np.linalg.norm(frames[0].clean_state.values) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_coefficient_drift_moves_the_state_inside_the_subspace(self):
        frames = generate_scenario(
            replace(STATIC, state_drift=0.05), NoiseModel(sigma=0.0)
        )
        base = frames[0]
        moved = False
        for frame in frames[1:]:
            assert frame.truth_subspace is base.truth_subspace
            assert (
                span_membership_residual(frame.clean_state.values, base.truth_subspace)
                < 1e-9
            )
            if not np.array_equal(frame.clean_state.values, base.clean_state.values):
                moved = True
        assert moved
        steps = [
            np.linalg.norm(b.clean_state.values - a.clean_state.values)
            for a, b in zip(frames, frames[1:])
        ]
        # drift 0.05 with r=3: typical step 0.05 * sqrt(3), never huge
        assert max(steps) < 0.5


class TestMovingScenario:
    def test_every_clean_state_lies_in_its_subspace(self):
        frames = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        for frame in frames:
            assert (
                span_membership_residual(frame.clean_state.values, frame.truth_subspace)
                < 1e-9
            )

    def test_subspace_steps_bounded_by_arc_step(self):
        frames = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        waypoints = sample_waypoints(MOVING)
        max_dist = max(
            projection_distance(a, b)
            for i, a in enumerate(waypoints)
            for b in waypoints[i + 1:]
        )
        step = MOVING.speed * max_dist / MOVING.length
        for a, b in zip(frames, frames[1:]):
            assert projection_distance(a.truth_subspace, b.truth_subspace) <= step * (
                1 + 1e-6
            ) + 1e-12

    def test_clean_state_steps_bounded_when_coefficients_frozen(self):
        # with state_drift 0 the only motion is the subspace's own, and
        # basis alignment guarantees the state moves no faster than the
        # arc step; this pins the alignment behavior
        frames = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        waypoints = sample_waypoints(MOVING)
        max_dist = max(
            projection_distance(a, b)
            for i, a in enumerate(waypoints)
            for b in waypoints[i + 1:]
        )
        step = MOVING.speed * max_dist / MOVING.length
        for a, b in zip(frames, frames[1:]):
            moved = np.linalg.norm(
                b.clean_state.values - a.clean_state.values
            )
            assert moved <= step * (1 + 1e-6) + 1e-12

    def test_trajectory_actually_moves(self):
        frames = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        total = projection_distance(
            frames[0].truth_subspace, frames[-1].truth_subspace
        )
        assert total > 0.1

    def test_waypoints_admit_geodesics(self):
        waypoints = sample_waypoints(MOVING)
        assert len(waypoints) == MOVING.waypoint_count
        for a, b in zip(waypoints, waypoints[1:]):
            assert principal_angles(a, b).max_angle() < np.pi / 2 - 1e-8


class TestGaussianNoise:
    def test_sigma_zero_shares_the_clean_object(self):
        frames = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.0))
        assert all(f.noisy_state is f.clean_state for f in frames)

    def test_error_magnitude_matches_chi_oracle(self):
        sigma, n = 0.1, 16
        errors = []
        for trial in range(100):
            config = replace(STATIC, length=100, seed=derive_trial_seed(42, trial))
            frames = generate_scenario(config, NoiseModel(sigma=sigma))
            errors.extend(
                float(np.linalg.norm(f.noisy_state.values - f.clean_state.values))
                for f in frames
            )
        observed = float(np.mean(errors))
        expected = sigma * chi_mean(n)
        assert observed == pytest.approx(expected, rel=0.03)

    def test_noise_is_fresh_each_frame(self):
        frames = generate_scenario(STATIC, NoiseModel(sigma=0.1))
        deltas = {
            tuple(np.round(f.noisy_state.values - f.clean_state.values, 12))
            for f in frames
        }
        assert len(deltas) == len(frames)


class TestBurstNoise:
    def test_prob_zero_matches_plain_gaussian(self):
        plain = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        burst = generate_scenario(
            STATIC,
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=0.0, burst_scale=10.0),
        )
        for a, b in zip(plain, burst):
            assert np.array_equal(a.noisy_state.values, b.noisy_state.values)

    def test_prob_one_scales_every_frame(self):
        plain = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        burst = generate_scenario(
            STATIC,
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=1.0, burst_scale=7.0),
        )
        for a, b in zip(plain, burst):
            noise_a = a.noisy_state.values - a.clean_state.values
            noise_b = b.noisy_state.values - b.clean_state.values
            assert np.allclose(noise_b, 7.0 * noise_a, atol=1e-12)

    def test_intermediate_prob_mixes_scales(self):
        burst = generate_scenario(
            replace(STATIC, length=200),
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=0.3, burst_scale=10.0),
        )
        norms = np.array(
            [
                np.linalg.norm(f.noisy_state.values - f.clean_state.values)
                for f in burst
            ]
        )
        big = int(np.sum(norms > 2.0))  # ~10x the typical 0.4
        assert 30 <= big <= 90  # 0.3 * 200 = 60 expected


class TestDriftWalk:
    def test_errors_accumulate(self):
        frames = generate_scenario(
            replace(STATIC, length=200), NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.05)
        )
        errs = [
            float(np.linalg.norm(f.noisy_state.values - f.clean_state.values))
            for f in frames
        ]
        assert errs[-1] > errs[9]

    def test_sqrt_t_growth(self):
        at_25, at_100 = [], []
        for trial in range(60):
            config = replace(
                STATIC, length=100, seed=derive_trial_seed(7, trial)
            )
            frames = generate_scenario(
                config, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.05)
            )
            errs = [
                float(np.linalg.norm(f.noisy_state.values - f.clean_state.values))
                for f in frames
            ]
            at_25.append(errs[24])
            at_100.append(errs[99])
        ratio = float(np.mean(at_100)) / float(np.mean(at_25))
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_single_frame_stream(self):
        config = replace(STATIC, length=1)
        frames = generate_scenario(
            config, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        assert len(frames) == 1
        err = np.linalg.norm(
            frames[0].noisy_state.values - frames[0].clean_state.values
        )
        assert err > 0.0

    def test_preserves_clean_and_truth(self):
        base = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        walked = generate_scenario(
            MOVING, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        for a, b in zip(base, walked):
            assert np.array_equal(b.clean_state.values, a.clean_state.values)
            assert np.array_equal(b.truth_subspace.basis, a.truth_subspace.basis)

    def test_walk_is_running_sum_of_gaussian_draws(self):
        # both kinds read the same per-frame draws; the walk accumulates them
        iid = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        walked = generate_scenario(
            STATIC, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        steps = np.array([f.noisy_state.values - f.clean_state.values for f in iid])
        offsets = np.array(
            [f.noisy_state.values - f.clean_state.values for f in walked]
        )
        assert np.array_equal(walked[0].noisy_state.values, iid[0].noisy_state.values)
        assert np.allclose(offsets, np.cumsum(steps, axis=0), rtol=0.0, atol=1e-12)

    def test_sigma_zero_gives_clean_stream(self):
        frames = generate_scenario(
            STATIC, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.0)
        )
        assert all(f.noisy_state is f.clean_state for f in frames)


class TestValidation:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(n=4, r=4, length=10, seed=1)
        with pytest.raises(ValueError):
            TrajectoryConfig(n=4, r=0, length=10, seed=1)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(n=4, r=2, length=10, seed=-1)
        with pytest.raises(ValueError):
            TrajectoryConfig(n=4, r=2, length=10, seed=2**64)

    def test_noise_kind_checked(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="salt-and-pepper")

    def test_scenario_frame_rejects_outside_state(self):
        frames = generate_scenario(STATIC, NoiseModel(sigma=0.0))
        subspace = frames[0].truth_subspace
        outside = np.zeros(16)
        outside[15] = 1.0
        # the static basis is random; e16 is outside it almost surely
        assert span_membership_residual(outside, subspace) > 1e-6
        with pytest.raises(ValueError):
            ScenarioFrame(
                clean_state=StateVector(outside),
                noisy_state=StateVector(outside),
                truth_subspace=subspace,
            )
