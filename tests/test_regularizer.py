"""Streaming corrector tests.

The two-frame example is solved by hand: with states u = e1, v = e2 and
temperature 1, the current row of the affinity is
[1/(1+e), e/(1+e)], so the corrected state is that exact mix of u and v.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssrlab.affinity import DEGENERATE_ROW_TOL, MODE_RAW_SUM, StateVector
from ssrlab.errors import (
    AlphaOutOfRange,
    DegenerateRow,
    DimensionMismatch,
    NonFiniteAffinity,
)
from ssrlab.grassmann import orthonormalize, span_membership_residual
from ssrlab.regularizer import (
    BLOCK_FRAMES,
    STORE_CORRECTED,
    STORE_RAW,
    SsrConfig,
    ema_fuse,
    passthrough_step,
    run_stream,
    ssr_step,
)
from stream_oracle import WindowFailure, list_oracle

E = math.e


def vec(*values: float) -> StateVector:
    return StateVector(np.array(values, dtype=np.float64))


def random_states(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.standard_normal((count, dim))


class TestSsrStep:
    def test_first_frame_returns_input_bitwise(self):
        window = np.array([[3.0, -2.0, 0.5]])
        corrected, affinity = ssr_step(window, SsrConfig(window_k=4))
        assert np.array_equal(corrected, window[0])
        assert affinity.shape == (1, 1)
        assert affinity[0, 0] == 1.0

    def test_two_frame_example_matches_hand_solution(self):
        config = SsrConfig(window_k=4, temperature=1.0)
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        corrected, affinity = ssr_step(np.array([u, v]), config)
        w_new = E / (1 + E)
        expected_row = np.array([1 / (1 + E), w_new])
        assert np.allclose(affinity[-1], expected_row, atol=1e-15)
        expected = expected_row[0] * u + expected_row[1] * v
        assert np.allclose(corrected, expected, atol=1e-15)

    def test_window_grows_one_per_frame_until_capacity(self):
        config = SsrConfig(window_k=3)
        states = random_states(np.random.default_rng(5), 10, 4)
        _, affinities, _ = run_stream(config, states, keep_affinities=range(10))
        assert sorted(affinities) == list(range(10))
        for t, affinity in affinities.items():
            expected_rows = min(t + 1, config.window_k + 1)
            assert affinity.shape == (expected_rows, expected_rows)

    def test_corrected_stays_in_window_span(self):
        states = random_states(np.random.default_rng(9), 30, 12)
        corrected, _, _ = run_stream(SsrConfig(window_k=5), states)
        for t, out in enumerate(corrected):
            window_rows = states[max(0, t - 5) : t + 1]
            span = orthonormalize(window_rows.T)
            assert span_membership_residual(out, span) < 1e-9

    def test_corrected_norm_bounded_by_window_max(self):
        # convex softmax weights cannot exceed the largest window norm
        rng = np.random.default_rng(13)
        states = np.array(
            [rng.standard_normal(8) * rng.uniform(0.1, 3.0) for _ in range(40)]
        )
        corrected, _, _ = run_stream(SsrConfig(window_k=6), states)
        norms = [np.linalg.norm(s) for s in states]
        for t, out in enumerate(corrected):
            bound = max(norms[max(0, t - 6) : t + 1])
            assert np.linalg.norm(out) <= bound + 1e-12

    def test_constant_stream_is_fixed_point_store_raw(self):
        anchor = np.array([0.6, 0.8, 0.0])
        corrected, _, _ = run_stream(SsrConfig(window_k=8), np.tile(anchor, (100, 1)))
        assert np.max(np.abs(corrected - anchor)) < 1e-10

    def test_constant_stream_is_fixed_point_store_corrected(self):
        anchor = np.array([0.6, 0.8, 0.0])
        config = SsrConfig(window_k=8, buffer_policy=STORE_CORRECTED)
        corrected, _, _ = run_stream(config, np.tile(anchor, (100, 1)))
        assert np.max(np.abs(corrected - anchor)) < 1e-10

    def test_store_corrected_window_holds_outputs(self):
        # frame t sees the k previous outputs followed by the raw state
        states = random_states(np.random.default_rng(17), 6, 5)
        config = SsrConfig(window_k=3, buffer_policy=STORE_CORRECTED)
        corrected, _, _ = run_stream(config, states)
        for t in range(1, len(states)):
            window = np.vstack([corrected[max(0, t - 3) : t], states[t]])
            assert np.array_equal(ssr_step(window, config)[0], corrected[t])

    def test_store_raw_window_holds_inputs(self):
        # long enough for the warm-up frames and two batched blocks
        states = random_states(np.random.default_rng(19), 3 + 2 * BLOCK_FRAMES + 1, 5)
        config = SsrConfig(window_k=3, buffer_policy=STORE_RAW)
        corrected, _, _ = run_stream(config, states)
        for t in range(len(states)):
            window = states[max(0, t - 3) : t + 1]
            assert np.array_equal(ssr_step(window, config)[0], corrected[t])

    def test_raw_sum_mode_runs(self):
        rng = np.random.default_rng(23)
        config = SsrConfig(window_k=4, mode=MODE_RAW_SUM)
        states = rng.standard_normal((12, 6)) + 1.0
        corrected, affinities, _ = run_stream(config, states, keep_affinities=range(12))
        assert corrected.shape == (12, 6)
        assert len(affinities) == 12
        for aff in affinities.values():
            assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-9)

    def test_smoothing_contracts_iid_noise_around_a_constant(self):
        # mean corrected error over a long run must undercut the raw one
        rng = np.random.default_rng(29)
        anchor = rng.standard_normal(16)
        anchor /= np.linalg.norm(anchor)
        noisy = np.array([anchor + 0.1 * rng.standard_normal(16) for _ in range(200)])
        corrected, _, _ = run_stream(SsrConfig(window_k=8), noisy)
        raw_err = np.mean([np.linalg.norm(s - anchor) for s in noisy])
        corr_err = np.mean(np.linalg.norm(corrected - anchor, axis=1))
        assert corr_err < 0.6 * raw_err


class TestRunStream:
    def test_outputs_align_with_inputs(self):
        states = random_states(np.random.default_rng(31), 15, 4)
        corrected, affinities, residuals = run_stream(SsrConfig(window_k=2), states)
        assert corrected.shape == (15, 4)
        assert affinities == {}
        assert residuals.shape == (15,)

    def test_residuals_and_affinities_only_when_asked(self):
        states = random_states(np.random.default_rng(33), 40, 4)
        config = SsrConfig(window_k=2)
        corrected, affinities, residuals = run_stream(
            config, states, residuals=False, keep_affinities=(0, 39)
        )
        assert residuals is None
        assert sorted(affinities) == [0, 39]
        assert np.array_equal(corrected, run_stream(config, states)[0])

    def test_empty_stream_gives_empty_outputs(self):
        corrected, affinities, residuals = run_stream(SsrConfig(), np.empty((0, 3)))
        assert corrected.shape == (0, 3) and affinities == {} and len(residuals) == 0

    def test_inputs_are_not_modified(self):
        states = random_states(np.random.default_rng(37), 80, 3)
        before = states.copy()
        for policy in (STORE_RAW, STORE_CORRECTED):
            run_stream(SsrConfig(window_k=2, buffer_policy=policy), states)
            assert np.array_equal(states, before)

    def test_affinities_are_read_only(self):
        # frame 1 is a warm-up frame, frames 3 and 60 come from blocks
        states = random_states(np.random.default_rng(41), 80, 3)
        _, affinities, _ = run_stream(
            SsrConfig(window_k=2), states, keep_affinities=[1, 3, 60]
        )
        for affinity in affinities.values():
            with pytest.raises(ValueError):
                affinity[0, 0] = 0.5

    def test_non_matrix_states_rejected(self):
        with pytest.raises(DimensionMismatch):
            run_stream(SsrConfig(), np.ones(3))
        with pytest.raises(DimensionMismatch):
            run_stream(SsrConfig(), np.ones((2, 2, 2)))

    def test_numeric_error_carries_its_frame(self):
        config = SsrConfig(window_k=4, mode=MODE_RAW_SUM)
        with pytest.raises(DegenerateRow) as excinfo:
            run_stream(config, np.array([[1.0, 0.0], [2.0, 1.0], [-3.0, -1.0]]))
        assert excinfo.value.frame == 2


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # up to two blocks past the warm-up, so block boundaries, a partial
    # last block and the warm-up/batched seam all occur
    extra=st.integers(min_value=-10, max_value=2 * BLOCK_FRAMES + 3),
    dim=st.integers(min_value=1, max_value=8),
    window_k=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
    temperature=st.one_of(st.none(), st.floats(min_value=0.2, max_value=5.0)),
)
def test_property_run_stream_matches_list_oracle(
    seed, extra, dim, window_k, mode, policy, temperature
):
    length = max(1, window_k + extra)
    if mode == MODE_RAW_SUM:
        temperature = None
    # raw-sum: an offset keeps most dot products positive, so most
    # streams get past the degenerate-row guard
    offset = 1.0 if mode == MODE_RAW_SUM else 0.0
    states = random_states(np.random.default_rng(seed), length, dim) + offset
    config = SsrConfig(
        window_k=window_k, mode=mode, temperature=temperature, buffer_policy=policy
    )
    try:
        corrected, affinities, residuals = run_stream(
            config, states, keep_affinities=range(length)
        )
    except DegenerateRow:
        assume(False)
    outputs, oracle_affinities, oracle_residuals = list_oracle(
        states, window_k, mode, temperature, policy
    )
    np.testing.assert_allclose(corrected, outputs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(residuals, oracle_residuals, rtol=1e-12, atol=0.0)
    assert sorted(affinities) == list(range(length))
    for t, theirs in enumerate(oracle_affinities):
        size = min(t + 1, window_k + 1)
        assert affinities[t].shape == (size, size)
        np.testing.assert_allclose(affinities[t], theirs, rtol=1e-12, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=10),
    length=st.integers(min_value=1, max_value=2 * BLOCK_FRAMES + 14),
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    fault=st.sampled_from(["overflow", "cancel"]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
)
def test_property_error_frame_is_the_oracles_first_failing_window(
    seed, window_k, length, where, fault, policy
):
    # one injected state breaks the window it enters: entries of 1e200
    # overflow every dot product with it; in raw-sum mode a state that
    # cancels the sum of the rows held before it leaves every row of its
    # window summing to about lean times its magnitude
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.5, 1.5, (length, 3))
    frame = int(where * length)
    mode = "softmax" if fault == "overflow" else MODE_RAW_SUM
    if fault == "overflow":
        states[frame] = 1e200 * rng.uniform(0.5, 1.5, 3)
    else:
        stored = states[:frame]
        if policy == STORE_CORRECTED:
            stored = list_oracle(stored, window_k, mode, None, policy)[0]
        held = np.sum(stored[-window_k:], axis=0) if frame else np.zeros(3)
        lean = DEGENERATE_ROW_TOL * float(rng.uniform(0.0, 0.5))
        states[frame] = -held / (1.0 + lean)
    with pytest.raises(WindowFailure) as oracle:
        list_oracle(states, window_k, mode, None, policy)
    config = SsrConfig(window_k=window_k, mode=mode, buffer_policy=policy)
    with pytest.raises((NonFiniteAffinity, DegenerateRow)) as ours:
        run_stream(config, states)
    assert oracle.value.frame == frame
    assert ours.value.frame == oracle.value.frame
    assert type(ours.value).__name__ == oracle.value.kind


class TestEmaFuse:
    def test_endpoints_are_bitwise_exact(self):
        cur, prev = vec(1.0, 2.0), vec(-3.0, 5.0)
        assert ema_fuse(cur, prev, 1.0) is cur
        assert ema_fuse(cur, prev, 0.0) is prev

    def test_hand_example(self):
        fused = ema_fuse(vec(1.0, 0.0), vec(0.0, 1.0), 0.25)
        assert np.allclose(fused.values, [0.25, 0.75], atol=1e-15)

    def test_interpolation_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            cur = StateVector(rng.standard_normal(6))
            prev = StateVector(rng.standard_normal(6))
            alpha = float(rng.uniform())
            fused = ema_fuse(cur, prev, alpha)
            hi = np.maximum(cur.values, prev.values)
            lo = np.minimum(cur.values, prev.values)
            assert np.all(fused.values <= hi + 1e-12)
            assert np.all(fused.values >= lo - 1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            ema_fuse(vec(1.0), vec(2.0), 1.5)
        with pytest.raises(AlphaOutOfRange):
            ema_fuse(vec(1.0), vec(2.0), -0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ema_fuse(vec(1.0), vec(2.0, 3.0), 0.5)


class TestPassthrough:
    def test_identity(self):
        incoming = vec(4.0, 5.0)
        assert passthrough_step(incoming) is incoming


class TestConfigValidation:
    def test_window_k_must_be_positive(self):
        with pytest.raises(ValueError):
            SsrConfig(window_k=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SsrConfig(mode="cosine")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            SsrConfig(buffer_policy="store-everything")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=9),
)
def test_property_corrected_is_convex_combination(seed: int, window_k: int):
    states = random_states(np.random.default_rng(seed), 12, 5)
    corrected, affinities, _ = run_stream(
        SsrConfig(window_k=window_k), states, keep_affinities=range(12)
    )
    held = states
    for t, out in enumerate(corrected):
        weights = affinities[t][-1]
        assert np.allclose(out, weights @ held[max(0, t - window_k) : t + 1], atol=1e-12)
        assert np.all(weights >= 0.0) and weights.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_property_ema_norm_bound(seed: int, alpha: float):
    rng = np.random.default_rng(seed)
    cur = StateVector(rng.standard_normal(7))
    prev = StateVector(rng.standard_normal(7))
    fused = ema_fuse(cur, prev, alpha)
    bound = max(np.linalg.norm(cur.values), np.linalg.norm(prev.values))
    assert np.linalg.norm(fused.values) <= bound + 1e-12
