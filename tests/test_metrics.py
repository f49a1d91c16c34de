"""Scoring tests with hand-built streams.

The two-frame ratio example: raw errors (2, 2), corrected errors (1, 1),
so the corrector removed exactly half the mean error.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssrlab.metrics as metrics_mod
from ssrlab.affinity import vector_norms
from ssrlab.errors import (
    DimensionMismatch,
    InvalidScenario,
    InvalidScore,
    LengthMismatch,
    NumericError,
    annotated,
    frame_named,
)
from ssrlab.grassmann import GeodesicPiece, span_membership_residual
from ssrlab.metrics import (
    SCORE_COLUMNS,
    RunSummary,
    ablate_window,
    improvement_ratio,
    scaled_stat,
    score_run,
)
from ssrlab.regularizer import SsrConfig, run_stream
from ssrlab.synth import (
    NoiseModel,
    Scenario,
    TrajectoryConfig,
    coefficient_walks,
    derive_trial_seed,
    generate_scenario,
)
from scenario_oracle import frame_bases, same_scenario

RAW, CORRECTED, SUBSPACE, SE = range(len(SCORE_COLUMNS))
# Rows of R^9 in each chunk of score_run's distances.
CHUNK_ROWS = metrics_mod._CHUNK_ENTRIES // 9
CLEAN = np.array([1.0, 0.0, 0.0])


def line_scenario(*offsets) -> Scenario:
    """Clean state e1 in the line span(e1) at every frame, observed at e1 + offset."""
    offsets = np.array(offsets, dtype=np.float64).reshape(-1, 3)
    clean = np.tile(CLEAN, (len(offsets), 1))
    return Scenario(clean, clean + offsets, (GeodesicPiece.point(0, len(offsets), np.eye(3, 1)),))


class TestImprovementRatio:
    def test_half_error_removed(self):
        assert improvement_ratio(2.0, 1.0) == 0.5

    def test_equal_means_give_exactly_zero(self):
        assert improvement_ratio(0.0, 0.0) == 0.0
        assert improvement_ratio(1.2345, 1.2345) == 0.0

    def test_worse_than_raw_goes_negative(self):
        assert improvement_ratio(1.0, 2.0) == -1.0

    def test_perfect_correction(self):
        assert improvement_ratio(3.0, 0.0) == 1.0

    def test_tiny_means_give_the_plain_quotient(self):
        assert improvement_ratio(1e-300, 2e-300) == -1.0
        assert improvement_ratio(2.0**-1074, 2.0**-1073) == -1.0

    @pytest.mark.parametrize("means", [(0.0, 1e-300), (1e-300, 1e300)])
    def test_no_finite_ratio_raises(self, means):
        with pytest.raises(InvalidScore, match="no finite improvement ratio"):
            improvement_ratio(*means)

    def test_tiny_raw_error_is_not_floored(self):
        # a static run at sigma 1e-13: the raw error lies far below 1e-12
        traj = TrajectoryConfig(n=8, r=2, length=20, seed=1, state_drift=0.05)
        scenario = generate_scenario(traj, NoiseModel(sigma=1e-13))
        corrected = run_stream(SsrConfig(), scenario.noisy, residuals=False)[0]
        _, summary = score_run(scenario, corrected)
        raw, corr = summary.mean_raw_error, summary.mean_corrected_error
        assert raw < 1e-12
        assert summary.improvement_ratio == 1.0 - corr / raw


class TestScoreRun:
    def test_two_frame_hand_example(self):
        scenario = line_scenario([0.0, 2.0, 0.0], [0.0, 0.0, 2.0])
        corrected = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        scores, summary = score_run(scenario, corrected)
        assert scores.shape == (2, 4)
        assert scores[:, RAW].tolist() == [2.0, 2.0]
        assert scores[:, CORRECTED].tolist() == [1.0, 1.0]
        assert summary.improvement_ratio == 0.5
        assert summary.win_fraction == 1.0
        # tail of a 2-frame run starts at int(0.75 * 2) = 1
        assert summary.tail_error_mean == 1.0

    def test_identity_method_scores_zero_even_noiseless(self):
        scenario = line_scenario(np.zeros(3))
        scores, summary = score_run(scenario, scenario.noisy)
        assert scores[0, RAW] == 0.0
        assert summary.improvement_ratio == 0.0
        assert summary.win_fraction == 0.0

    def test_subspace_residual_tracks_leakage(self):
        # a raw error of 1, so the run has a finite improvement ratio
        scores, _ = score_run(line_scenario([0.0, 0.0, 1.0]), np.array([[0.6, 0.8, 0.0]]))
        assert scores[0, SUBSPACE] == pytest.approx(0.8, abs=1e-15)

    def test_se_residuals_default_to_zero(self):
        scores, _ = score_run(line_scenario(np.zeros(3)), [CLEAN])
        assert scores[0, SE] == 0.0

    def test_se_residuals_passed_through(self):
        scores, _ = score_run(line_scenario(np.zeros(3)), [CLEAN], [0.25])
        assert scores[0, SE] == 0.25

    def test_length_mismatch(self):
        scenario = line_scenario(np.zeros(3))
        with pytest.raises(LengthMismatch):
            score_run(scenario, [])
        with pytest.raises(LengthMismatch):
            score_run(scenario, [CLEAN], [0.1, 0.2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_run(line_scenario(np.zeros(3)), np.zeros((1, 4)))

    def test_tail_window_is_final_quarter(self):
        # raw errors of 1, so the run has a finite improvement ratio
        scenario = line_scenario(*np.tile([0.0, 0.0, 1.0], (8, 1)))
        corrected = np.array([[1.0 + 0.1 * t, 0.0, 0.0] for t in range(8)])
        _, summary = score_run(scenario, corrected)
        # tail indices 6, 7: errors 0.6 and 0.7
        assert summary.tail_error_mean == pytest.approx(0.65, abs=1e-12)

    def test_win_fraction_is_strict(self):
        scenario = line_scenario([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
        corrected = [scenario.noisy[0], CLEAN]
        _, summary = score_run(scenario, corrected)
        # one tie (no win), one strict win
        assert summary.win_fraction == 0.5

    def test_a_long_static_run_is_scored_in_chunks(self):
        # a static subspace is one point piece over every frame; its inputs
        # take 8 MiB each at T = 16,384 and n = 64, and scoring may add no
        # T x n array to them: the distances and the subspace residual both
        # take affinity._CHUNK_ENTRIES entries at a time
        config = TrajectoryConfig(n=64, r=4, length=16384, seed=7, state_drift=0.05)
        scenario = generate_scenario(config, NoiseModel(sigma=0.1))
        corrected = np.ascontiguousarray(scenario.clean + 0.5 * (scenario.noisy - scenario.clean))
        score_run(scenario, corrected)  # first-call imports and caches
        tracemalloc.start()
        try:
            score_run(scenario, corrected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSummaryValidation:
    def test_empty_run_rejected(self):
        with pytest.raises(LengthMismatch):
            score_run(line_scenario(), np.empty((0, 3)))

    def test_record_validation(self):
        # every score must be finite and nonnegative; the error names the
        # first frame that is not
        scenario = line_scenario(*np.zeros((3, 3)))
        clean = np.array(scenario.clean)
        with pytest.raises(InvalidScore) as excinfo:
            score_run(scenario, clean, [0.0, -1.0, 0.0])
        assert excinfo.value.frame == 1
        with pytest.raises(InvalidScore) as excinfo:
            score_run(scenario, clean, [0.0, 0.0, np.inf])
        assert excinfo.value.frame == 2
        # a distance beyond the float64 range (entries stay finite)
        overflowing = clean.copy()
        overflowing[1:] = 1.5e308
        with pytest.raises(InvalidScore) as excinfo:
            score_run(scenario, overflowing)
        assert excinfo.value.frame == 1
        with pytest.raises(InvalidScore):
            score_run(scenario, clean, [np.nan, 0.0, 0.0])

    def test_summary_bounds(self):
        with pytest.raises(ValueError):
            RunSummary(
                mean_raw_error=1.0,
                mean_corrected_error=0.0,
                improvement_ratio=1.5,
                tail_error_mean=0.0,
                win_fraction=0.5,
            )
        with pytest.raises(ValueError):
            RunSummary(
                mean_raw_error=1.0,
                mean_corrected_error=1.0,
                improvement_ratio=0.0,
                tail_error_mean=1.0,
                win_fraction=1.5,
            )


class TestAblateWindow:
    TRAJ = TrajectoryConfig(n=12, r=2, length=40, seed=77, state_drift=0.05)
    NOISE = NoiseModel(sigma=0.1)

    def test_rows_follow_input_order(self):
        rows = ablate_window([4, 2], self.TRAJ, self.NOISE, trials=3)
        assert [row.window_k for row in rows] == [4, 2]

    def test_deterministic_across_calls(self):
        a = ablate_window([2, 4], self.TRAJ, self.NOISE, trials=3)
        b = ablate_window([2, 4], self.TRAJ, self.NOISE, trials=3)
        for ra, rb in zip(a, b):
            assert ra.mean_improvement_ratio == rb.mean_improvement_ratio
            assert ra.std_improvement_ratio == rb.std_improvement_ratio

    def test_duplicate_sizes_give_identical_rows(self):
        rows = ablate_window([3, 3], self.TRAJ, self.NOISE, trials=2)
        assert rows[0].mean_improvement_ratio == rows[1].mean_improvement_ratio

    def test_single_trial_reports_zero_std(self):
        rows = ablate_window([2], self.TRAJ, self.NOISE, trials=1)
        assert rows[0].std_improvement_ratio == 0.0

    def test_noiseless_sweep_raises_naming_sigma(self):
        # every size corrects, so a trial whose noisy states are its clean
        # ones bit for bit has no finite ratio and fails before correction
        traj = TrajectoryConfig(n=8, r=2, length=30, seed=5)
        with pytest.raises(InvalidScenario, match="noise.sigma"):
            ablate_window([1], traj, NoiseModel(sigma=0.0), trials=2)

    def test_respects_custom_ssr_config(self):
        soft = ablate_window([4], self.TRAJ, self.NOISE, trials=2)
        cold = ablate_window(
            [4], self.TRAJ, self.NOISE, trials=2,
            ssr=SsrConfig(temperature=0.05),
        )
        assert (
            soft[0].mean_improvement_ratio != cold[0].mean_improvement_ratio
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ablate_window([], self.TRAJ, self.NOISE, trials=2)
        with pytest.raises(ValueError):
            ablate_window([2], self.TRAJ, self.NOISE, trials=0)


def test_scenario_scoring_round_trip():
    # full pipeline sanity: generated noise magnitudes show up in raw_error
    traj = TrajectoryConfig(n=16, r=3, length=50, seed=11)
    scenario = generate_scenario(traj, NoiseModel(sigma=0.2))
    scores, summary = score_run(scenario, scenario.noisy)
    assert summary.improvement_ratio == 0.0
    assert summary.mean_raw_error == summary.mean_corrected_error
    assert np.all(scores[:, RAW] > 0.0)


def test_frozen_coefficients_step_every_trial_in_one_block(monkeypatch):
    # without a coefficient walk (state_drift 0) each trial's walk is one
    # row, so its block holds every trial, however long the run; each
    # scenario is still the one generate_scenario builds for its seed
    config = TrajectoryConfig(n=8, r=4, length=2048, seed=3)
    noise = NoiseModel(sigma=0.1)
    calls = []

    def counted(trajectory, trials):
        calls.append(list(trials))
        return coefficient_walks(trajectory, trials)

    monkeypatch.setattr(metrics_mod, "coefficient_walks", counted)
    scenarios = list(metrics_mod.trial_scenarios(config, noise, 5))
    assert calls == [[0, 1, 2, 3, 4]]
    for trial, scenario in enumerate(scenarios):
        alone = generate_scenario(replace(config, seed=derive_trial_seed(3, trial)), noise)
        assert same_scenario(scenario, alone)


def scaled_norm(v: np.ndarray) -> float:
    """||v||, taken after exact scaling by the power of two above its largest |entry|."""
    shift = np.frexp(np.abs(v).max())[1]
    return np.ldexp(np.linalg.norm(np.ldexp(v, -shift)), shift)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=1, max_value=150),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    # a corrected row times 2^600, whose squared distance overflows, so that
    # vector_norms measures it again after scaling
    far=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
# the distances are taken CHUNK_ROWS rows at a time: a stream one row short
# of a chunk, one chunk, one row past it, and a far row in the second chunk
@example(seed=1, length=CHUNK_ROWS - 1, scale=1.0, far=None)
@example(seed=2, length=CHUNK_ROWS, scale=1.0, far=None)
@example(seed=3, length=CHUNK_ROWS + 1, scale=1.0, far=None)
@example(seed=4, length=CHUNK_ROWS + 2, scale=1.0, far=CHUNK_ROWS + 1)
def test_property_score_run_matches_per_frame_reference(seed, length, scale, far):
    # a moving subspace gives every frame its own basis, here formed frame
    # by frame from the pieces; the corrected states are arbitrary, so they
    # leave the subspace by any amount
    traj = TrajectoryConfig(n=9, r=2, length=length, seed=seed, speed=1.0, waypoint_count=3)
    scenario = generate_scenario(traj, NoiseModel(sigma=0.3))
    rng = np.random.default_rng(seed)
    corrected = scale * rng.standard_normal((length, 9))
    if far is not None:
        corrected[far % length] *= 2.0**600
    se = rng.uniform(0.0, 2.0, length)
    scores, summary = score_run(scenario, corrected, se)
    expected = np.array(
        [
            [
                scaled_norm(noisy - clean),
                scaled_norm(out - clean),
                span_membership_residual(out[None], (GeodesicPiece.point(0, 1, basis),))[0],
                s,
            ]
            for clean, noisy, basis, out, s in zip(
                *scenario[:2], frame_bases(scenario.bases), corrected, se
            )
        ]
    )
    np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0.0)
    assert summary.mean_raw_error == pytest.approx(expected[:, 0].mean(), rel=1e-12)
    assert summary.mean_corrected_error == pytest.approx(expected[:, 1].mean(), rel=1e-12)
    # chunks change no bit of the distances: they are those of the whole difference
    assert np.array_equal(scores[:, RAW], vector_norms(scenario.noisy - scenario.clean))
    assert np.array_equal(scores[:, CORRECTED], vector_norms(corrected - scenario.clean))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    exponent=st.integers(min_value=-900, max_value=900),
)
def test_property_scores_scale_with_the_data(seed, exponent):
    # distances whose squares overflow or underflow are measured after
    # exact power-of-two scaling, so scaling every state by 2**e scales
    # both errors by exactly 2**e and leaves the subspace residual as is
    traj = TrajectoryConfig(n=9, r=2, length=20, seed=seed, speed=1.0, waypoint_count=3)
    scenario = generate_scenario(traj, NoiseModel(sigma=0.3))
    corrected = scenario.clean + 0.1 * np.random.default_rng(seed).standard_normal((20, 9))
    clean, noisy, scaled_corrected = (
        np.ldexp(x, exponent) for x in (scenario.clean, scenario.noisy, corrected)
    )
    # the scaling itself is exact: no entry leaves the normal range
    for x, original in zip((clean, noisy, scaled_corrected), (*scenario[:2], corrected)):
        assert np.array_equal(np.ldexp(x, -exponent), original)
    scores, summary = score_run(scenario, corrected)
    scaled, scaled_summary = score_run(Scenario(clean, noisy, scenario.bases), scaled_corrected)
    errors = [RAW, CORRECTED]
    assert np.array_equal(scaled[:, errors], np.ldexp(scores[:, errors], exponent))
    assert np.array_equal(scaled[:, SUBSPACE], scores[:, SUBSPACE])
    for name in ("mean_raw_error", "mean_corrected_error", "tail_error_mean"):
        assert getattr(scaled_summary, name) == np.ldexp(getattr(summary, name), exponent)
    assert scaled_summary.improvement_ratio == summary.improvement_ratio


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=2, max_value=300),
    exponent=st.integers(min_value=-400, max_value=1022),
)
@example(seed=0, size=300, exponent=1022)
def test_property_scaled_stat_scales_with_the_data(seed, size, exponent):
    # at scale 1 the mean and std are numpy's, bit for bit; scaled by 2**e
    # they scale by exactly 2**e, also where the plain squares (e above
    # about 511) or sums (e near 1022) overflow
    values = np.random.default_rng(seed).uniform(0.5, 2.0, size)
    scaled = np.ldexp(values, exponent)
    assert np.array_equal(np.ldexp(scaled, -exponent), values)
    for ddof in (None, 1):
        plain = values.mean() if ddof is None else values.std(ddof=ddof)
        assert scaled_stat(values, ddof) == plain
        assert scaled_stat(scaled, ddof) == np.ldexp(plain, exponent)


def sweep_against_score_run(scenarios, stack, sizes=(2, 3)):
    """ablate_window's ratios and error on these trials next to score_run's, trial by trial.

    The scenarios stand in for generate_scenario and the stack for every
    size's corrected states, so both sides score the same arrays.
    """
    expected, want = [], None
    try:
        for k in sizes:
            ratios = []
            for i, (scenario, corrected) in enumerate(zip(scenarios, stack)):
                try:
                    ratios.append(score_run(scenario, corrected)[1].improvement_ratio)
                except NumericError as exc:
                    raise annotated(exc, frame_named(f"window_k={k}, trial={i}", exc)) from exc
            expected.append(ratios)
    except NumericError as exc:
        want = exc
    trials = iter(scenarios)
    got = []
    length, n = stack.shape[1:]
    traj = TrajectoryConfig(n=n, r=1, length=length, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics_mod, "generate_scenario", lambda cfg, noise, walk: next(trials))
        mp.setattr(metrics_mod, "run_stream", lambda config, states, **kw: (stack, {}, None))
        mp.setattr(
            metrics_mod, "mean_and_std", lambda values: (got.append(values.tolist()), (0.0, 0.0))[1]
        )
        if want is None:
            ablate_window(list(sizes), traj, NoiseModel(), trials=len(scenarios))
            assert got == expected
            return
        with pytest.raises(type(want)) as excinfo:
            ablate_window(list(sizes), traj, NoiseModel(), trials=len(scenarios))
    assert str(excinfo.value) == str(want)
    assert excinfo.value.frame == want.frame


@st.composite
def sweep_trials(draw):
    """Scenarios and corrected states scaled by 2**e, some entries near the
    float64 maximum or not finite, in any of the three arrays."""
    trials = draw(st.integers(min_value=1, max_value=3))
    exponent = draw(st.integers(min_value=-1000, max_value=1000))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    traj = TrajectoryConfig(n=5, r=2, length=6, seed=seed, speed=1.0, waypoint_count=3)
    arrays = []
    for i in range(trials):
        clean, noisy, bases = generate_scenario(replace(traj, seed=seed + i), NoiseModel(sigma=0.3))
        corrected = clean + 0.1 * rng.standard_normal(clean.shape)
        arrays.append([np.ldexp(x, exponent) for x in (clean, noisy, corrected)] + [bases])
    cell = st.tuples(
        st.integers(0, trials - 1), st.integers(0, 2), st.integers(0, 5), st.integers(0, 4)
    )
    huge = st.builds(
        lambda mantissa, down, sign: sign * np.ldexp(mantissa, 1023 - down),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.integers(0, 6),
        st.sampled_from([-1.0, 1.0]),
    )
    bad = st.sampled_from([np.nan, np.inf, -np.inf])
    for value_of in (huge, bad):
        for trial, which, frame, col in draw(st.lists(cell, max_size=2)):
            arrays[trial][which][frame, col] = draw(value_of)
    scenarios = [Scenario(clean, noisy, bases) for clean, noisy, _, bases in arrays]
    return scenarios, np.array([corrected for _, _, corrected, _ in arrays])


def overflowing_residuals():
    """Two one-trial sweeps whose corrected states have finite errors but
    overflow the subspace residual's plain pass: a norm beyond float64
    against span(e1), and U^T v beyond it inside span(u)."""
    clean = np.array([[1.5e308, 0.0], [1.0, 0.0]])
    corrected = np.array([[1.5e308, 1.5e308], [1.0, 0.5]])
    e1 = Scenario(clean, clean * 0.9, (GeodesicPiece.point(0, 2, np.eye(2, 1)),))
    u = np.full(2, np.sqrt(0.5))
    clean = np.outer([1.5e308, 1.0], u)
    inside = Scenario(clean, clean * 0.9, (GeodesicPiece.point(0, 2, u[:, None]),))
    return [([e1], corrected[None]), ([inside], clean[None] * 1.2)]


@settings(max_examples=150, deadline=None)
@given(case=sweep_trials())
@example(case=overflowing_residuals()[0])
@example(case=overflowing_residuals()[1])
def test_property_sweep_scores_as_score_run(case):
    # the sweep's ratios are score_run's, ==, or it raises score_run's
    # error with the same message, window size, trial and frame
    sweep_against_score_run(*case)


def test_sweep_and_score_run_score_an_overflowing_residual():
    # finite errors, but ||v|| or U^T v beyond float64: the residual is
    # measured after scaling, so score_run scores each frame and the
    # sweep's ratio from the errors alone is score_run's
    for (scenarios, stack), first in zip(overflowing_residuals(), (2**-0.5, 0.0)):
        scores = score_run(scenarios[0], stack[0])[0]
        assert np.all((scores[:, SUBSPACE] >= 0.0) & (scores[:, SUBSPACE] <= 1.0))
        assert scores[0, SUBSPACE] == pytest.approx(first, abs=1e-15)
        sweep_against_score_run(scenarios, stack)
