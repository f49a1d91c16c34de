"""Scoring tests with hand-built streams.

The two-frame ratio example: raw errors (2, 2), corrected errors (1, 1),
so the corrector removed exactly half the mean error.
"""

import numpy as np
import pytest

from ssrlab.affinity import StateVector
from ssrlab.errors import LengthMismatch
from ssrlab.grassmann import SubspacePoint
from ssrlab.metrics import (
    RunSummary,
    StepRecord,
    ablate_window,
    improvement_ratio,
    score_run,
    summarize,
)
from ssrlab.regularizer import SsrConfig
from ssrlab.synth import NoiseModel, ScenarioFrame, TrajectoryConfig, generate_scenario


def line_span() -> SubspacePoint:
    return SubspacePoint(np.array([[1.0], [0.0], [0.0]]))


def frame_with_error(offset: np.ndarray) -> ScenarioFrame:
    clean = StateVector(np.array([1.0, 0.0, 0.0]))
    return ScenarioFrame(
        clean_state=clean,
        noisy_state=StateVector(clean.values + offset),
        truth_subspace=line_span(),
    )


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


class TestScoreRun:
    def test_two_frame_hand_example(self):
        frames = [
            frame_with_error(np.array([0.0, 2.0, 0.0])),
            frame_with_error(np.array([0.0, 0.0, 2.0])),
        ]
        corrected = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        records, summary = score_run(frames, corrected)
        assert [r.raw_error for r in records] == [2.0, 2.0]
        assert [r.corrected_error for r in records] == [1.0, 1.0]
        assert summary.improvement_ratio == 0.5
        assert summary.win_fraction == 1.0
        # tail of a 2-frame run starts at int(0.75 * 2) = 1
        assert summary.tail_error_mean == 1.0

    def test_identity_method_scores_zero_even_noiseless(self):
        clean = frame_with_error(np.zeros(3))
        records, summary = score_run([clean], [clean.noisy_state.values])
        assert records[0].raw_error == 0.0
        assert summary.improvement_ratio == 0.0
        assert summary.win_fraction == 0.0

    def test_subspace_residual_tracks_leakage(self):
        frames = [frame_with_error(np.zeros(3))]
        records, _ = score_run(frames, np.array([[0.6, 0.8, 0.0]]))
        assert records[0].subspace_residual == pytest.approx(0.8, abs=1e-15)

    def test_se_residuals_default_to_zero(self):
        frames = [frame_with_error(np.zeros(3))]
        records, _ = score_run(frames, [frames[0].clean_state.values])
        assert records[0].se_residual == 0.0

    def test_se_residuals_passed_through(self):
        frames = [frame_with_error(np.zeros(3))]
        records, _ = score_run(frames, [frames[0].clean_state.values], [0.25])
        assert records[0].se_residual == 0.25

    def test_length_mismatch(self):
        frames = [frame_with_error(np.zeros(3))]
        with pytest.raises(LengthMismatch):
            score_run(frames, [])
        with pytest.raises(LengthMismatch):
            score_run(frames, [frames[0].clean_state.values], [0.1, 0.2])

    def test_tail_window_is_final_quarter(self):
        frames = [frame_with_error(np.zeros(3)) for _ in range(8)]
        corrected = np.array([[1.0 + 0.1 * t, 0.0, 0.0] for t in range(8)])
        _, summary = score_run(frames, corrected)
        # tail indices 6, 7: errors 0.6 and 0.7
        assert summary.tail_error_mean == pytest.approx(0.65, abs=1e-12)

    def test_win_fraction_is_strict(self):
        frames = [
            frame_with_error(np.array([0.0, 1.0, 0.0])),
            frame_with_error(np.array([0.0, 1.0, 0.0])),
        ]
        corrected = [frames[0].noisy_state.values, frames[1].clean_state.values]
        _, summary = score_run(frames, corrected)
        # one tie (no win), one strict win
        assert summary.win_fraction == 0.5


class TestSummaryValidation:
    def test_empty_run_rejected(self):
        with pytest.raises(LengthMismatch):
            summarize([])

    def test_record_validation(self):
        with pytest.raises(ValueError):
            StepRecord(
                frame=0,
                raw_error=-1.0,
                corrected_error=0.0,
                subspace_residual=0.0,
                se_residual=0.0,
            )
        with pytest.raises(ValueError):
            StepRecord(
                frame=0,
                raw_error=np.inf,
                corrected_error=0.0,
                subspace_residual=0.0,
                se_residual=0.0,
            )

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

    def test_noiseless_static_scores_exactly_zero_at_k1(self):
        # window of at most 2 identical states: the corrected state is
        # bitwise the input, so corrected error equals raw error equals
        # 0 and the equal-means rule pins the ratio at 0
        traj = TrajectoryConfig(n=8, r=2, length=30, seed=5)
        rows = ablate_window([1], traj, NoiseModel(sigma=0.0), trials=2)
        assert rows[0].mean_improvement_ratio == 0.0
        assert rows[0].std_improvement_ratio == 0.0

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
    frames = generate_scenario(traj, NoiseModel(sigma=0.2))
    noisy = np.array([f.noisy_state.values for f in frames])
    records, summary = score_run(frames, noisy)
    assert summary.improvement_ratio == 0.0
    assert summary.mean_raw_error == summary.mean_corrected_error
    assert all(r.raw_error > 0.0 for r in records)
