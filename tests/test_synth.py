"""Scenario generator tests.

The noise calibration oracle is the exact mean of a chi distribution:
E||sigma g|| = sigma * sqrt(2) * Gamma((n+1)/2) / Gamma(n/2) for
g ~ N(0, I_n), evaluated with math.gamma, not with the library.
"""

import contextlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssrlab.grassmann as grassmann_mod
import ssrlab.synth as synth_mod
from ssrlab.errors import DimensionMismatch, InvalidScenario
from ssrlab.grassmann import (
    _SIN_FLOOR,
    GeodesicPiece,
    geodesic,
    principal_angles,
    projection_distance,
    span_membership_residual,
)
from ssrlab.synth import (
    NOISE_BURST,
    NOISE_DRIFT_WALK,
    NOISE_GAUSSIAN,
    NOISE_KINDS,
    NoiseModel,
    TrajectoryConfig,
    derive_trial_seed,
    generate_scenario,
    sample_waypoints,
)
from scenario_oracle import (
    STREAM_NOISE,
    frame_bases,
    frame_pieces,
    frame_rng,
    same_scenario,
    scenario_oracle,
)

STATIC = TrajectoryConfig(n=16, r=3, length=40, seed=99, speed=0.0)
MOVING = TrajectoryConfig(
    n=16, r=3, length=60, seed=99, speed=0.8, waypoint_count=3
)


def chi_mean(n: int) -> float:
    return math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)


@contextlib.contextmanager
def chunk_rows(rows: int | None, n: int):
    """The one chunk budget, as the generator and the subspace residual read it, at rows
    frames of R^n; None leaves it as it is."""
    if rows is None:
        yield
        return
    with mock.patch.object(synth_mod, "_CHUNK_ENTRIES", rows * n):
        with mock.patch.object(grassmann_mod, "_CHUNK_ENTRIES", rows * n):
            yield


def assert_matches_oracle(scenario, config, noise):
    """generate_scenario against the per-frame oracle.

    A static scenario matches bit for bit, and so does every frame's basis,
    formed from the pieces as the oracle forms it. A moving clean state is
    p (cos * z) + g (sin * z) with z = R c here, and (B_t R) c in the
    oracle: the same unit-norm factors (orthonormal p, g and R, ||c|| = 1)
    multiplied in another order. By the dot-product error bound
    |fl(x^T y) - x^T y| <= gamma_k |x|^T |y| (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1) the two differ per entry by at
    most 4 (r + 1) sqrt(2r) units of 2**-53 times ||clean_t||; a noisy
    state adds the same noise to each, so one more unit in the last place
    of its entry.
    """
    clean, noisy, bases = scenario_oracle(config, noise)
    assert np.array_equal(frame_bases(scenario.bases), bases)
    if config.speed == 0.0 or config.length == 1:
        (piece,) = scenario.bases
        assert piece.cos_sin.shape[1] == 1 and np.array_equal(piece.rotation, np.eye(config.r))
        assert np.array_equal(scenario.clean, clean)
        assert np.array_equal(scenario.noisy, noisy)
        return
    r = config.r
    bound = 4 * (r + 1) * math.sqrt(2 * r) * 2.0**-53 * np.linalg.norm(clean, axis=1)[:, None]
    assert np.all(np.abs(scenario.clean - clean) <= bound)
    assert np.all(np.abs(scenario.noisy - noisy) <= bound + np.spacing(np.abs(noisy)))


class TestDeterminism:
    def test_identical_configs_are_bitwise_identical(self):
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        a = generate_scenario(MOVING, noise)
        b = generate_scenario(MOVING, noise)
        assert same_scenario(a, b)

    def test_prefix_stable_under_length_extension(self):
        # counter-based streams: frame t's draws do not depend on length
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        drift_cfg = replace(STATIC, state_drift=0.03)
        short = generate_scenario(replace(drift_cfg, length=10), noise)
        long = generate_scenario(replace(drift_cfg, length=40), noise)
        assert np.array_equal(short.clean, long.clean[:10])
        assert np.array_equal(short.noisy, long.noisy[:10])

    def test_different_seeds_differ(self):
        noise = NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.2)
        a = generate_scenario(STATIC, noise)
        b = generate_scenario(replace(STATIC, seed=100), noise)
        assert not np.array_equal(a.noisy[0], b.noisy[0])

    def test_derive_trial_seed_is_stable_and_distinct(self):
        seeds = [derive_trial_seed(1234, trial) for trial in range(64)]
        assert seeds == [derive_trial_seed(1234, trial) for trial in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**64 for s in seeds)


class TestStaticScenario:
    def test_noiseless_static_stream_is_bitwise_constant(self):
        clean, noisy, bases = generate_scenario(STATIC, NoiseModel(sigma=0.0))
        assert np.array_equal(clean, np.broadcast_to(clean[0], clean.shape))
        assert noisy is clean
        # one point piece for every frame, not a basis per frame
        assert len(bases) == 1 and bases[0][:2] == (0, 40) and bases[0].basis.shape == (16, 3)
        # on the point itself: a one-row broadcast of ones and the identity rotation
        assert bases[0].cos_sin.shape == (40, 1, 3) and bases[0].cos_sin.strides == (0, 0, 0)
        assert (bases[0].cos_sin == 1.0).all() and np.array_equal(bases[0].rotation, np.eye(3))

    def test_clean_states_are_unit_norm(self):
        clean = generate_scenario(STATIC, NoiseModel(sigma=0.0)).clean
        assert np.linalg.norm(clean[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("drift", [1e150, 1e200, 1e308])
    def test_huge_state_drift_keeps_clean_states_unit_norm(self, drift):
        # the walk's squares overflow from about 1e154, the step itself
        # near 1e308; both are normalized from an exactly rescaled step
        config = TrajectoryConfig(n=8, r=2, length=6, seed=1, state_drift=drift)
        noise = NoiseModel(sigma=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = generate_scenario(config, noise)
        norms = np.linalg.norm(scenario.clean, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0.0, atol=1e-12)
        assert_matches_oracle(scenario, config, noise)

    @pytest.mark.parametrize("drift", [0.0, 0.05])
    def test_clean_states_do_not_depend_on_the_first_draws_scale(self, monkeypatch, drift):
        # only the first draw's direction starts the walk: scaled by 2**e,
        # from where its squares underflow to where they overflow, it must
        # give the same clean stream bit for bit
        config = TrajectoryConfig(n=6, r=3, length=5, seed=0, state_drift=drift)
        bases = (GeodesicPiece.point(0, 5, np.eye(6, 3)),)
        first = np.array([0.8, -1.3, 0.4])
        later = list(np.random.default_rng(5).standard_normal((4, 3)))

        def replay(draw):
            # fills out= as Generator.standard_normal does, or returns a fresh draw
            def standard_normal(size=None, out=None):
                if out is None:
                    return draw.copy()
                out[...] = draw
                return out

            return SimpleNamespace(standard_normal=standard_normal)

        def clean_at(e):
            draws = [np.ldexp(first, e), *later]
            monkeypatch.setattr(
                synth_mod,
                "_substreams",
                lambda seed, stream, frames: (replay(draws[t]) for t in frames),
            )
            return synth_mod._clean_states(bases, synth_mod._walks(config, [config.seed])[0])

        reference = clean_at(0)
        assert np.array_equal(reference[0], np.eye(6, 3) @ (first / np.linalg.norm(first)))
        for e in (-1000, -520, -41, 500, 1000):
            assert np.array_equal(clean_at(e), reference), e

    def test_coefficient_drift_moves_the_state_inside_the_subspace(self):
        clean, _, bases = generate_scenario(
            replace(STATIC, state_drift=0.05), NoiseModel(sigma=0.0)
        )
        assert len(bases) == 1
        assert (span_membership_residual(clean, bases) < 1e-9).all()
        assert not np.array_equal(clean, np.broadcast_to(clean[0], clean.shape))
        steps = np.linalg.norm(np.diff(clean, axis=0), axis=1)
        # drift 0.05 with r=3: typical step 0.05 * sqrt(3), never huge
        assert max(steps) < 0.5

    @pytest.mark.parametrize("rows", [40, None], ids=["patched", "default"])
    def test_point_longer_than_a_chunk_matches_per_frame_oracle_bit_for_bit(self, rows):
        # one point piece over 1,100 frames: 28 chunks of 40 frames, or 3 of
        # the default 512 frames of R^64
        config = TrajectoryConfig(n=64, r=4, length=1100, seed=31, state_drift=0.05)
        noise = NoiseModel(sigma=0.1)
        with chunk_rows(rows, config.n):
            scenario = generate_scenario(config, noise)
            assert len(scenario.bases) == 1
            assert_matches_oracle(scenario, config, noise)


class TestMovingScenario:
    def test_every_clean_state_lies_in_its_subspace(self):
        clean, _, bases = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        assert (span_membership_residual(clean, bases) < 1e-9).all()

    def test_subspace_steps_bounded_by_arc_step(self):
        bases = frame_bases(generate_scenario(MOVING, NoiseModel(sigma=0.0)).bases)
        waypoints = sample_waypoints(MOVING)
        max_dist = max(
            projection_distance(a, b)
            for i, a in enumerate(waypoints)
            for b in waypoints[i + 1:]
        )
        step = MOVING.speed * max_dist / MOVING.length
        for a, b in zip(bases, bases[1:]):
            assert projection_distance(a, b) <= step * (1 + 1e-6) + 1e-12

    def test_clean_state_steps_bounded_when_coefficients_frozen(self):
        # with state_drift 0 the only motion is the subspace's own, and
        # basis alignment guarantees the state moves no faster than the
        # arc step; this pins the alignment behavior
        clean = generate_scenario(MOVING, NoiseModel(sigma=0.0)).clean
        waypoints = sample_waypoints(MOVING)
        max_dist = max(
            projection_distance(a, b)
            for i, a in enumerate(waypoints)
            for b in waypoints[i + 1:]
        )
        step = MOVING.speed * max_dist / MOVING.length
        for a, b in zip(clean, clean[1:]):
            moved = np.linalg.norm(b - a)
            assert moved <= step * (1 + 1e-6) + 1e-12

    def test_trajectory_actually_moves(self):
        bases = frame_bases(generate_scenario(MOVING, NoiseModel(sigma=0.0)).bases)
        total = projection_distance(bases[0], bases[-1])
        assert total > 0.1

    def test_shared_direction_leaves_a_zero_column_of_g(self):
        # 2r > n: the waypoints share a direction whose sin(theta) is at or
        # below _SIN_FLOOR, so geodesic leaves that column of g zero
        config = TrajectoryConfig(n=6, r=4, length=12, seed=0, speed=1.0)
        _, g, theta = geodesic(*sample_waypoints(config))
        assert np.sin(theta).min() <= _SIN_FLOOR and not g.any(axis=0).all()
        noise = NoiseModel(sigma=0.1)
        scenario = generate_scenario(config, noise)
        assert [piece[:2] for piece in scenario.bases] == [(0, 1), (1, 12)]
        assert_matches_oracle(scenario, config, noise)

    def test_generation_holds_no_per_frame_bases(self):
        # moving_feedback's shape: a T x n x r array of bases would take
        # 8 MiB, and the pieces' scenario must peak below 3 MiB: its clean
        # and noisy T x n states take 2 MiB, with the noise scaled and added
        # in the noisy array, not in a T x n temporary beside it
        config = TrajectoryConfig(
            n=128, r=8, length=1024, seed=derive_trial_seed(1234, 0), speed=1.0,
            waypoint_count=4, state_drift=0.05,
        )
        noise = NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.01)
        generate_scenario(config, noise)  # first-call imports and caches
        tracemalloc.start()
        try:
            scenario = generate_scenario(config, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scenario.bases) == 2
        assert peak < 3 * 2**20

    def test_waypoints_admit_geodesics(self):
        waypoints = sample_waypoints(MOVING)
        assert len(waypoints) == MOVING.waypoint_count
        for a, b in zip(waypoints, waypoints[1:]):
            assert principal_angles(a, b)[-1] < np.pi / 2 - 1e-8

    def test_pieces_longer_than_a_chunk_match_per_frame_oracle(self):
        # runs of 113 and 92 frames inside the two segments and 94 on the
        # last waypoint, each spanning three chunks of 40 frames
        config = TrajectoryConfig(
            n=12, r=3, length=300, seed=31, speed=3.5, waypoint_count=3, state_drift=0.02
        )
        noise = NoiseModel(sigma=0.1)
        with chunk_rows(40, config.n):
            scenario = generate_scenario(config, noise)
            assert [piece[:2] for piece in scenario.bases] == [
                (0, 1), (1, 114), (114, 206), (206, 300)
            ]
            assert_matches_oracle(scenario, config, noise)

    def test_overflowing_speed_starts_on_the_first_waypoint(self):
        # speed * D / T overflows to inf; the step is clamped at the path length
        config = TrajectoryConfig(n=64, r=4, length=6, seed=5, speed=1e308, waypoint_count=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = generate_scenario(config, NoiseModel())
        bases = frame_bases(scenario.bases)
        waypoints = sample_waypoints(config)
        assert np.array_equal(bases[0], waypoints[0])
        for basis in bases[1:]:
            assert projection_distance(basis, waypoints[-1]) < 1e-12
        assert_matches_oracle(scenario, config, NoiseModel())


class TestGaussianNoise:
    def test_sigma_zero_shares_the_clean_object(self):
        scenario = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.0))
        assert scenario.noisy is scenario.clean

    def test_error_magnitude_matches_chi_oracle(self):
        sigma, n = 0.1, 16
        errors = []
        for trial in range(100):
            config = replace(STATIC, length=100, seed=derive_trial_seed(42, trial))
            clean, noisy, _ = generate_scenario(config, NoiseModel(sigma=sigma))
            errors.extend(np.linalg.norm(noisy - clean, axis=1))
        observed = float(np.mean(errors))
        expected = sigma * chi_mean(n)
        assert observed == pytest.approx(expected, rel=0.03)

    def test_noise_is_fresh_each_frame(self):
        clean, noisy, _ = generate_scenario(STATIC, NoiseModel(sigma=0.1))
        deltas = {tuple(np.round(delta, 12)) for delta in noisy - clean}
        assert len(deltas) == len(clean)


class TestBurstNoise:
    def test_prob_zero_matches_plain_gaussian(self):
        plain = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        burst = generate_scenario(
            STATIC,
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=0.0, burst_scale=10.0),
        )
        assert np.array_equal(plain.noisy, burst.noisy)

    def test_prob_one_scales_every_frame(self):
        plain = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        burst = generate_scenario(
            STATIC,
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=1.0, burst_scale=7.0),
        )
        noise_a = plain.noisy - plain.clean
        noise_b = burst.noisy - burst.clean
        assert np.allclose(noise_b, 7.0 * noise_a, atol=1e-12)

    def test_intermediate_prob_mixes_scales(self):
        burst = generate_scenario(
            replace(STATIC, length=200),
            NoiseModel(kind=NOISE_BURST, sigma=0.1, burst_prob=0.3, burst_scale=10.0),
        )
        norms = np.linalg.norm(burst.noisy - burst.clean, axis=1)
        big = int(np.sum(norms > 2.0))  # ~10x the typical 0.4
        assert 30 <= big <= 90  # 0.3 * 200 = 60 expected


class TestDriftWalk:
    def test_errors_accumulate(self):
        clean, noisy, _ = generate_scenario(
            replace(STATIC, length=200), NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.05)
        )
        errs = np.linalg.norm(noisy - clean, axis=1)
        assert errs[-1] > errs[9]

    def test_sqrt_t_growth(self):
        at_25, at_100 = [], []
        for trial in range(60):
            config = replace(
                STATIC, length=100, seed=derive_trial_seed(7, trial)
            )
            clean, noisy, _ = generate_scenario(
                config, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.05)
            )
            errs = np.linalg.norm(noisy - clean, axis=1)
            at_25.append(errs[24])
            at_100.append(errs[99])
        ratio = float(np.mean(at_100)) / float(np.mean(at_25))
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_single_frame_stream(self):
        config = replace(STATIC, length=1)
        clean, noisy, bases = generate_scenario(
            config, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        assert clean.shape == noisy.shape == (1, 16) and len(bases) == 1
        err = np.linalg.norm(noisy[0] - clean[0])
        assert err > 0.0

    def test_preserves_clean_and_truth(self):
        base = generate_scenario(MOVING, NoiseModel(sigma=0.0))
        walked = generate_scenario(
            MOVING, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        assert same_scenario(walked._replace(noisy=base.noisy), base)

    def test_walk_is_running_sum_of_gaussian_draws(self):
        # both kinds read the same per-frame draws; the walk accumulates them
        iid = generate_scenario(STATIC, NoiseModel(kind=NOISE_GAUSSIAN, sigma=0.1))
        walked = generate_scenario(
            STATIC, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.1)
        )
        steps = iid.noisy - iid.clean
        offsets = walked.noisy - walked.clean
        assert np.array_equal(walked.noisy[0], iid.noisy[0])
        assert np.allclose(offsets, np.cumsum(steps, axis=0), rtol=0.0, atol=1e-12)

    def test_sigma_zero_gives_clean_stream(self):
        scenario = generate_scenario(
            STATIC, NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.0)
        )
        assert scenario.noisy is scenario.clean


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

    def test_shape_bounded_by_the_largest_numpy_array(self):
        # the T x n float64 states take 8 * T * n bytes, at most intp's max;
        # the rank does not count, as no T x n x r array is formed
        TrajectoryConfig(n=2, r=1, length=2**59 - 1, seed=1)
        TrajectoryConfig(n=3, r=2, length=2**58, seed=1)
        for n, r, length in ((2, 1, 2**59), (2**62, 1, 1), (8, 2, 2**62)):
            with pytest.raises(ValueError, match="largest array numpy can index"):
                TrajectoryConfig(n=n, r=r, length=length, seed=1)

    def test_noise_kind_checked(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="salt-and-pepper")

    def test_scenario_arrays_are_read_only(self):
        for noise in (NoiseModel(sigma=0.0), NoiseModel(sigma=0.1)):
            for config in (STATIC, MOVING):
                clean, noisy, bases = generate_scenario(config, noise)
                pieces = [array for piece in bases for array in piece[2:]]
                # basis, cos_sin and rotation of each piece: one point, or a point and a segment
                assert len(pieces) == (3 if config is STATIC else 6)
                for array in (clean, noisy, *pieces):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 1.0

    def test_clean_state_outside_its_span_is_rejected(self):
        clean, _, bases = generate_scenario(STATIC, NoiseModel(sigma=0.0))
        outside = np.zeros(16)
        outside[15] = 1.0
        # the static basis is random; e16 is outside it almost surely
        first = (GeodesicPiece.point(0, 1, bases[0].basis),)
        assert span_membership_residual(outside[None], first)[0] > 1e-6
        states = np.array(clean)
        states[7] = outside
        with pytest.raises(InvalidScenario, match="frame 7: clean state leaves its subspace") as excinfo:
            synth_mod._checked(states, states, bases)
        assert excinfo.value.frame == 7

    @pytest.mark.parametrize(
        "field, what",
        [
            ("bases", "truth basis is not finite with orthonormal columns"),
            ("clean", "clean state is not finite"),
            ("noisy", "noisy state is not finite"),
        ],
        ids=["bases", "clean", "noisy"],
    )
    def test_non_finite_arrays_are_rejected(self, field, what):
        # a basis is checked once per piece, which names its first frame
        scenario = generate_scenario(replace(MOVING, speed=3.0), NoiseModel(sigma=0.1))
        pieces = [piece._replace(basis=np.array(piece.basis)) for piece in scenario.bases]
        arrays = {"clean": np.array(scenario.clean), "noisy": np.array(scenario.noisy)}
        if field == "bases":
            assert [piece[:2] for piece in pieces] == [(0, 1), (1, 28), (28, 51), (51, 60)]
            pieces[2].basis[5, 0] = np.nan
            frame = 28
        else:
            arrays[field][5, 0] = np.nan
            frame = 5
        with pytest.raises(InvalidScenario, match=f"frame {frame}: {what}") as excinfo:
            synth_mod._checked(arrays["clean"], arrays["noisy"], pieces)
        assert excinfo.value.frame == frame

    def test_non_orthonormal_basis_is_rejected(self):
        # a waypoint's basis, a geodesic's frame [p g] or either's rotation
        # 1e-9 off fails its piece, at its first frame
        clean, noisy, bases = generate_scenario(MOVING, NoiseModel(sigma=0.1))
        assert [piece[:2] for piece in bases] == [(0, 1), (1, 60)]
        for index, field in ((0, "basis"), (0, "rotation"), (1, "basis"), (1, "rotation")):
            pieces = list(bases)
            off = getattr(pieces[index], field) * (1.0 + 1e-9)
            pieces[index] = pieces[index]._replace(**{field: off})
            with pytest.raises(InvalidScenario, match=f"frame {index}: truth basis"):
                synth_mod._checked(clean, noisy, pieces)

    def test_mismatched_dims_are_rejected(self):
        clean, noisy, bases = generate_scenario(STATIC, NoiseModel(sigma=0.1))
        with pytest.raises(DimensionMismatch):
            synth_mod._checked(clean, noisy[:, :-1], bases)
        with pytest.raises(DimensionMismatch):
            synth_mod._checked(clean, noisy, bases[:-1])

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(sigma=1e308),
            NoiseModel(kind=NOISE_BURST, sigma=1e300, burst_prob=1.0, burst_scale=1e10),
            NoiseModel(kind=NOISE_DRIFT_WALK, sigma=3e307),
        ],
        ids=["gaussian", "burst", "drift-walk"],
    )
    def test_overflowing_noise_names_the_first_frame(self, noise):
        # RuntimeWarnings are errors under this suite, so none may escape
        with pytest.raises(InvalidScenario, match="noisy state is not finite") as excinfo:
            generate_scenario(STATIC, noise)
        draws = np.array(
            [frame_rng(STATIC.seed, STREAM_NOISE, t).standard_normal(16) for t in range(40)]
        )
        if noise.kind == NOISE_DRIFT_WALK:
            draws = np.cumsum(draws, axis=0)
        # sigma * burst_scale overflows to inf as a Python float
        scale = noise.sigma * (noise.burst_scale if noise.kind == NOISE_BURST else 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(scale * draws).all(axis=1)
        assert excinfo.value.frame == int(np.flatnonzero(~finite)[0])


@st.composite
def scenario_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    config = TrajectoryConfig(
        n=n,
        r=draw(st.integers(min_value=1, max_value=n - 1)),
        length=draw(st.integers(min_value=1, max_value=60)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        speed=draw(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=2.5))),
        waypoint_count=draw(st.integers(min_value=2, max_value=4)),
        # up to 1e308, where the walk's step overflows and is rescaled exactly
        state_drift=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=0.5),
                st.floats(min_value=0.5, max_value=1e308),
            )
        ),
    )
    noise = NoiseModel(
        kind=draw(st.sampled_from(sorted(NOISE_KINDS))),
        sigma=draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0))),
        burst_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        burst_scale=draw(st.floats(min_value=0.0, max_value=20.0)),
    )
    return config, noise


@settings(max_examples=150, deadline=None)
@given(case=scenario_cases())
# at n = 16 a basis product rounds by its operands' memory order
@example(case=(TrajectoryConfig(n=16, r=2, length=2, seed=0, speed=1.0), NoiseModel()))
# the benchmark workloads' shapes: example's static 4-plane in R^64 with a
# coefficient walk, and moving_feedback's moving 8-plane in R^128 under drift noise
@example(
    case=(
        TrajectoryConfig(n=64, r=4, length=256, seed=derive_trial_seed(1234, 0), state_drift=0.05),
        NoiseModel(sigma=0.1),
    )
)
@example(
    case=(
        TrajectoryConfig(
            n=128, r=8, length=1024, seed=derive_trial_seed(1234, 0), speed=1.0,
            waypoint_count=4, state_drift=0.05,
        ),
        NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.01),
    )
)
# moving_feedback's 8-plane in R^128 over short runs: one segment piece
# after the first waypoint, and (at speed 40) three frames in each segment,
# then an overshoot onto the last waypoint
@example(
    case=(
        TrajectoryConfig(
            n=128, r=8, length=70, seed=derive_trial_seed(1234, 1), speed=1.0,
            waypoint_count=4, state_drift=0.05,
        ),
        NoiseModel(sigma=0.1),
    )
)
@example(
    case=(
        TrajectoryConfig(
            n=128, r=8, length=90, seed=derive_trial_seed(1234, 2), speed=40.0,
            waypoint_count=3, state_drift=0.05,
        ),
        NoiseModel(kind=NOISE_DRIFT_WALK, sigma=0.01),
    )
)
# 2r > n: the waypoints share directions, one with sin(theta) 0, at or
# below _SIN_FLOOR (g's column left zero), and one at about 2.6e-8, whose
# g column is rounding noise
@example(case=(TrajectoryConfig(n=6, r=4, length=12, seed=0, speed=1.0), NoiseModel(sigma=0.1)))
def test_property_generate_scenario_matches_per_frame_oracle(case):
    # static and moving paths (speed past 1 overshoots onto the last
    # waypoint), every noise kind, sigma 0 and not, drift 0 and not
    config, noise = case
    scenario = generate_scenario(config, noise)
    assert_matches_oracle(scenario, config, noise)
    if noise.sigma == 0.0:
        assert scenario.noisy is scenario.clean


@settings(max_examples=100, deadline=None)
@given(case=scenario_cases())
def test_property_aligned_bases_carry_no_rotation_between_frames(case):
    # each basis is rotated onto its predecessor: the polar factor of
    # B_t^T B_{t-1} (its Procrustes rotation) is the identity
    config, _ = case
    bases = frame_bases(generate_scenario(config, NoiseModel()).bases)
    u, _, vt = np.linalg.svd(np.swapaxes(bases[1:], 1, 2) @ bases[:-1])
    assert np.abs(u @ vt - np.eye(config.r)).max(initial=0.0) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    stream=st.integers(min_value=0, max_value=3),
    visits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from(["uint32", "uint64", "double", "normal"]),
            st.integers(min_value=0, max_value=9),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_property_reseek_is_a_fresh_advance(seed, stream, visits):
    # each substream starts as a fresh Philox advanced by frame * 2**32,
    # whatever the last one left in its buffer (a spare 32-bit half, a
    # partly used block of four outputs)
    def take(rng, kind, count):
        if kind == "uint32":
            return rng.integers(0, 2**32, size=count, dtype=np.uint32)
        if kind == "uint64":
            return rng.integers(0, 2**64, size=count, dtype=np.uint64)
        return rng.random(count) if kind == "double" else rng.standard_normal(count)

    frames = [frame for frame, _, _ in visits]
    for rng, (frame, kind, count) in zip(synth_mod._substreams(seed, stream, frames), visits):
        got = take(rng, kind, count), rng.standard_normal(3)
        fresh = frame_rng(seed, stream, frame)
        want = take(fresh, kind, count), fresh.standard_normal(3)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@st.composite
def walk_blocks(draw):
    r = draw(st.integers(min_value=1, max_value=6))
    config = TrajectoryConfig(
        n=r + 1,
        r=r,
        length=draw(st.integers(min_value=1, max_value=12)),
        seed=0,
        state_drift=draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=0.5),
                st.floats(min_value=0.5, max_value=1e308),
            )
        ),
    )
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5))
    # each scenario's first draw at its own scale: squares that underflow,
    # overflow, or neither
    scale = st.integers(min_value=-1074, max_value=1000)
    scales = draw(st.lists(scale, min_size=len(seeds), max_size=len(seeds)))
    return config, seeds, scales


@settings(max_examples=150, deadline=None)
@given(case=walk_blocks())
def test_property_walks_stepped_together_are_each_walk_alone(case):
    # rows that take the overflow rescale or the vector_norms fallback sit
    # next to rows that do not; each row is its one-scenario walk bit for bit
    config, seeds, scales = case
    first_scale = dict(zip(seeds, scales))

    def substreams(seed, stream, frames):
        for frame in frames:
            rng = frame_rng(seed, stream, frame)

            def standard_normal(size=None, out=None, rng=rng, frame=frame):
                out[...] = rng.standard_normal(out.shape)
                if frame == 0:
                    out[...] = np.ldexp(out, first_scale[seed])
                return out

            yield SimpleNamespace(standard_normal=standard_normal)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(synth_mod, "_substreams", substreams)
        together = synth_mod._walks(config, seeds)
        for seed, walk in zip(seeds, together):
            assert np.array_equal(walk, synth_mod._walks(config, [seed])[0])


def test_coefficient_walks_are_the_walks_of_the_trials_scenarios():
    config = replace(MOVING, state_drift=0.05)
    noise = NoiseModel(sigma=0.1)
    walks = synth_mod.coefficient_walks(config, range(2, 5))
    assert walks.shape == (3, config.length, config.r)
    for trial, walk in zip(range(2, 5), walks):
        trial_config = replace(config, seed=derive_trial_seed(config.seed, trial))
        alone = generate_scenario(trial_config, noise)
        given_walk = generate_scenario(trial_config, noise, walk)
        assert same_scenario(alone, given_walk)
    # a frozen walk is one row, held over every frame
    assert synth_mod.coefficient_walks(STATIC, range(2)).shape == (2, 1, STATIC.r)
