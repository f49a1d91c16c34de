"""Streaming corrector tests.

The two-frame example is solved by hand: with states u = e1, v = e2 and
temperature 1, the current row of the affinity is
[1/(1+e), e/(1+e)], so the corrected state is that exact mix of u and v.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrlab.affinity import MODE_RAW_SUM, StateVector
from ssrlab.errors import AlphaOutOfRange, DimensionMismatch
from ssrlab.grassmann import orthonormalize, span_membership_residual
from ssrlab.regularizer import (
    STORE_CORRECTED,
    STORE_RAW,
    SsrConfig,
    SsrState,
    ema_fuse,
    passthrough_step,
    run_stream,
    ssr_step,
)

E = math.e


def vec(*values: float) -> StateVector:
    return StateVector(np.array(values, dtype=np.float64))


class TestSsrStep:
    def test_first_frame_returns_input_bitwise(self):
        state = SsrState.initial(SsrConfig(window_k=4))
        incoming = vec(3.0, -2.0, 0.5)
        corrected, affinity, after = ssr_step(state, incoming)
        assert corrected is incoming
        assert affinity.entries.shape == (1, 1)
        assert affinity.entries[0, 0] == 1.0
        assert after.frames_seen == 1

    def test_two_frame_example_matches_hand_solution(self):
        config = SsrConfig(window_k=4, temperature=1.0)
        state = SsrState.initial(config)
        u, v = vec(1.0, 0.0), vec(0.0, 1.0)
        _, _, state = ssr_step(state, u)
        corrected, affinity, _ = ssr_step(state, v)
        w_new = E / (1 + E)
        expected_row = np.array([1 / (1 + E), w_new])
        assert np.allclose(affinity.current_row(), expected_row, atol=1e-15)
        expected = expected_row[0] * u.values + expected_row[1] * v.values
        assert np.allclose(corrected.values, expected, atol=1e-15)

    def test_window_grows_one_per_frame_until_capacity(self):
        config = SsrConfig(window_k=3)
        state = SsrState.initial(config)
        rng = np.random.default_rng(5)
        for t in range(10):
            incoming = StateVector(rng.standard_normal(4))
            _, affinity, state = ssr_step(state, incoming)
            expected_rows = min(t + 1, config.window_k + 1)
            assert affinity.entries.shape == (expected_rows, expected_rows)
            assert len(state.window) == expected_rows

    def test_corrected_stays_in_window_span(self):
        rng = np.random.default_rng(9)
        config = SsrConfig(window_k=5)
        state = SsrState.initial(config)
        history = []
        for _ in range(30):
            incoming = StateVector(rng.standard_normal(12))
            history.append(incoming)
            corrected, _, state = ssr_step(state, incoming)
            window_rows = np.stack([s.values for s in history[-6:]])
            span = orthonormalize(window_rows.T)
            assert span_membership_residual(corrected.values, span) < 1e-9

    def test_corrected_norm_bounded_by_window_max(self):
        # convex softmax weights cannot exceed the largest window norm
        rng = np.random.default_rng(13)
        config = SsrConfig(window_k=6)
        state = SsrState.initial(config)
        norms = []
        for _ in range(40):
            incoming = StateVector(rng.standard_normal(8) * rng.uniform(0.1, 3.0))
            norms.append(np.linalg.norm(incoming.values))
            corrected, _, state = ssr_step(state, incoming)
            bound = max(norms[-7:])
            assert np.linalg.norm(corrected.values) <= bound + 1e-12

    def test_constant_stream_is_fixed_point_store_raw(self):
        anchor = vec(0.6, 0.8, 0.0)
        corrected, _ = run_stream(SsrConfig(window_k=8), [anchor] * 100)
        for out in corrected:
            assert np.max(np.abs(out.values - anchor.values)) < 1e-10

    def test_constant_stream_is_fixed_point_store_corrected(self):
        anchor = vec(0.6, 0.8, 0.0)
        config = SsrConfig(window_k=8, buffer_policy=STORE_CORRECTED)
        corrected, _ = run_stream(config, [anchor] * 100)
        for out in corrected:
            assert np.max(np.abs(out.values - anchor.values)) < 1e-10

    def test_store_corrected_window_holds_outputs(self):
        rng = np.random.default_rng(17)
        config = SsrConfig(window_k=3, buffer_policy=STORE_CORRECTED)
        state = SsrState.initial(config)
        for _ in range(6):
            corrected, _, state = ssr_step(state, StateVector(rng.standard_normal(5)))
            assert state.window.current is corrected

    def test_store_raw_window_holds_inputs(self):
        rng = np.random.default_rng(19)
        config = SsrConfig(window_k=3, buffer_policy=STORE_RAW)
        state = SsrState.initial(config)
        for _ in range(6):
            incoming = StateVector(rng.standard_normal(5))
            _, _, state = ssr_step(state, incoming)
            assert state.window.current is incoming

    def test_raw_sum_mode_runs(self):
        rng = np.random.default_rng(23)
        config = SsrConfig(window_k=4, mode=MODE_RAW_SUM)
        states = [StateVector(rng.standard_normal(6) + 1.0) for _ in range(12)]
        corrected, affinities = run_stream(config, states)
        assert len(corrected) == 12
        for aff in affinities:
            assert np.allclose(aff.entries.sum(axis=1), 1.0, atol=1e-9)

    def test_smoothing_contracts_iid_noise_around_a_constant(self):
        # mean corrected error over a long run must undercut the raw one
        rng = np.random.default_rng(29)
        anchor = rng.standard_normal(16)
        anchor /= np.linalg.norm(anchor)
        noisy = [StateVector(anchor + 0.1 * rng.standard_normal(16)) for _ in range(200)]
        corrected, _ = run_stream(SsrConfig(window_k=8), noisy)
        raw_err = np.mean([np.linalg.norm(s.values - anchor) for s in noisy])
        corr_err = np.mean([np.linalg.norm(s.values - anchor) for s in corrected])
        assert corr_err < 0.6 * raw_err


class TestRunStream:
    def test_outputs_align_with_inputs(self):
        rng = np.random.default_rng(31)
        states = [StateVector(rng.standard_normal(4)) for _ in range(15)]
        corrected, affinities = run_stream(SsrConfig(window_k=2), states)
        assert len(corrected) == len(states)
        assert len(affinities) == len(states)

    def test_empty_stream_gives_empty_outputs(self):
        corrected, affinities = run_stream(SsrConfig(), [])
        assert corrected == [] and affinities == []


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

    def test_state_window_length_invariant(self):
        from ssrlab.affinity import StateWindow

        config = SsrConfig(window_k=2)
        with pytest.raises(ValueError):
            SsrState(
                config=config,
                window=StateWindow(states=(vec(1.0),), capacity=3),
                frames_seen=5,
            )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=9),
)
def test_property_corrected_is_convex_combination(seed: int, window_k: int):
    rng = np.random.default_rng(seed)
    state = SsrState.initial(SsrConfig(window_k=window_k))
    held = []
    for _ in range(12):
        incoming = StateVector(rng.standard_normal(5))
        held.append(incoming.values)
        corrected, affinity, state = ssr_step(state, incoming)
        window_rows = np.stack(held[-(window_k + 1):])
        weights = affinity.current_row()
        assert np.allclose(corrected.values, weights @ window_rows, atol=1e-12)
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
