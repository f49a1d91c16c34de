"""Streaming corrector tests.

The two-frame example is solved by hand: with states u = e1, v = e2 and
temperature 1, the current row of the affinity is
[1/(1+e), e/(1+e)], so the corrected state is that exact mix of u and v.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ssrlab.regularizer as regularizer_mod
from ssrlab.affinity import (
    DEGENERATE_ROW_TOL,
    MODE_RAW_SUM,
    compute_affinity,
    correct_current,
    default_temperature,
    self_expressive_residual,
)
from ssrlab.errors import (
    AlphaOutOfRange,
    DegenerateRow,
    DimensionMismatch,
    NonFiniteAffinity,
    NumericError,
)
from ssrlab.grassmann import GeodesicPiece, orthonormalize, span_membership_residual
from ssrlab.regularizer import (
    STORE_CORRECTED,
    STORE_RAW,
    SsrConfig,
    ema_fuse,
    passthrough_step,
    run_stream,
    ssr_step,
)
from stream_oracle import WindowFailure, list_oracle, padded_banded_residuals

E = math.e
# Frames per chunk of the residual pass that the properties below set, so
# that short streams reach chunk seams and a partial last chunk.
CHUNK_MAX = 8


def chunks_of(frames: int, window_k: int, dim: int):
    """Make the residual pass take `frames` banded windows per chunk."""
    width = min(window_k + 1, dim)
    return mock.patch.object(regularizer_mod, "_CHUNK_ENTRIES", frames * width * width)


def ema_oracle(stream: np.ndarray, alpha: float) -> np.ndarray:
    """The EMA recursion one row at a time: y_0 = x_0, y_t = alpha x_t + (1 - alpha) y_{t-1}."""
    fused = [stream[0]]
    for row in stream[1:]:
        fused.append(alpha * row + (1.0 - alpha) * fused[-1])
    return np.array(fused)


def random_states(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    return rng.standard_normal((count, dim))


def per_window_stream(states, config: SsrConfig, full: bool = False) -> np.ndarray:
    """run_stream's corrected states from one correct_current call per window.

    With full, each window's whole affinity is checked first, as when
    run_stream is asked for residuals. An error gets its window's frame.
    """
    buf = np.array(states, dtype=np.float64)
    corrected = np.empty_like(buf)
    for t in range(len(buf)):
        window = buf[max(t - config.window_k, 0) : t + 1]
        try:
            if full:
                compute_affinity(window, config.mode, config.temperature)
            corrected[t] = correct_current(window[None], config.mode, config.temperature)[0]
        except NumericError as exc:
            exc.frame = t
            raise
        if config.buffer_policy == STORE_CORRECTED:
            buf[t] = corrected[t]
    return corrected


def outcome(run, *args, **kwargs):
    """("ok", result) or (error type name, message, frame) of run(*args, **kwargs)."""
    try:
        return ("ok", run(*args, **kwargs))
    except NumericError as exc:
        return (type(exc).__name__, str(exc), exc.frame)


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
            assert span_membership_residual(out[None], (GeodesicPiece(0, 1, span),))[0] < 1e-9

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
        # long enough for the warm-up frames and two chunks of the residual pass
        chunk = regularizer_mod._CHUNK_ENTRIES // (3 + 1) ** 2
        states = random_states(np.random.default_rng(19), 3 + 2 * chunk + 1, 5)
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
            run_stream(SsrConfig(), np.ones((2, 2, 2, 2)))
        # a (B, T, d) stack is corrected only, without residuals or kept frames
        with pytest.raises(ValueError, match="no residuals and no kept frames"):
            run_stream(SsrConfig(), np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="no residuals and no kept frames"):
            run_stream(SsrConfig(), np.ones((2, 2, 2)), residuals=False, keep_affinities=[0])

    def test_numeric_error_carries_its_frame(self):
        config = SsrConfig(window_k=4, mode=MODE_RAW_SUM)
        with pytest.raises(DegenerateRow) as excinfo:
            run_stream(config, np.array([[1.0, 0.0], [2.0, 1.0], [-3.0, -1.0]]))
        assert excinfo.value.frame == 2


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # up to two chunks past the warm-up, so chunk seams, a partial last
    # chunk and the warm-up/full seam all occur
    extra=st.integers(min_value=-10, max_value=2 * CHUNK_MAX + 3),
    chunk=st.integers(min_value=1, max_value=CHUNK_MAX),
    dim=st.integers(min_value=1, max_value=8),
    window_k=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
    temperature=st.one_of(st.none(), st.floats(min_value=0.2, max_value=5.0)),
)
def test_property_run_stream_matches_list_oracle(
    seed, extra, chunk, dim, window_k, mode, policy, temperature
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
        with chunks_of(chunk, window_k, dim):
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
    streams=st.integers(min_value=1, max_value=4),
    window_k=st.integers(min_value=1, max_value=12),
    # from the empty stream through the warm-up to past k
    extra=st.integers(min_value=-13, max_value=10),
    dim=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
    temperature=st.one_of(st.none(), st.floats(min_value=0.2, max_value=5.0)),
)
def test_property_stack_matches_per_stream_runs(
    seed, streams, window_k, extra, dim, mode, policy, temperature
):
    # a stack takes the path of a stream (a stack of one), with B windows in
    # each store-raw warm-up call where a stream has one: the bits must be
    # the same, and a stack fails where some stream fails, at that stream's
    # first failure
    length = max(0, window_k + extra)
    if mode == MODE_RAW_SUM:
        temperature = None
    offset = 1.0 if mode == MODE_RAW_SUM else 0.0
    rng = np.random.default_rng(seed)
    stack = np.stack([random_states(rng, length, dim) + offset for _ in range(streams)])
    config = SsrConfig(
        window_k=window_k, mode=mode, temperature=temperature, buffer_policy=policy
    )
    expected, failures = [], set()
    for stream in stack:
        try:
            expected.append(run_stream(config, stream, residuals=False)[0])
        except NumericError as exc:
            failures.add(exc.frame)
    if failures:
        with pytest.raises(NumericError) as excinfo:
            run_stream(config, stack, residuals=False)
        assert excinfo.value.frame in failures
        return
    corrected, kept, residuals = run_stream(config, stack, residuals=False)
    assert corrected.shape == stack.shape
    assert np.array_equal(corrected, np.reshape(expected, stack.shape))
    assert kept == {} and residuals is None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=70),
    # from the empty stream through the warm-up to past k
    extra=st.integers(min_value=-71, max_value=20),
    dim=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
)
def test_property_row_kernel_matches_each_windows_affinity(seed, window_k, extra, dim, mode):
    # store-raw corrects every full window with one correct_current call,
    # which forms only the current affinity row; each frame must still be
    # its own window's last affinity row applied to that window
    length = max(0, window_k + extra)
    offset = 1.0 if mode == MODE_RAW_SUM else 0.0
    states = random_states(np.random.default_rng(seed), length, dim) + offset
    windows = [states[max(0, t - window_k) : t + 1] for t in range(length)]
    try:
        expected = [compute_affinity(w, mode)[-1] @ w for w in windows]
    except DegenerateRow:
        assume(False)
    corrected, _, _ = run_stream(SsrConfig(window_k=window_k, mode=mode), states, residuals=False)
    assert corrected.shape == states.shape
    # per frame, relative to the frame's norm: past about 11 rows the
    # kernel's row and compute_affinity's Gram matrix round differently,
    # and a component that cancels to 1e-6 of its row carries the row's
    # rounding, not its own
    expected = np.reshape(expected, states.shape)
    error = np.linalg.norm(corrected - expected, axis=1)
    assert np.all(error <= 1e-12 * np.linalg.norm(expected, axis=1))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=10),
    length=st.integers(min_value=1, max_value=2 * CHUNK_MAX + 14),
    chunk=st.integers(min_value=1, max_value=CHUNK_MAX),
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    fault=st.sampled_from(["overflow", "logits", "cancel", "hidden"]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
    full=st.booleans(),
)
def test_property_error_frame_is_the_oracles_first_failing_window(
    seed, window_k, length, chunk, where, fault, policy, full
):
    # one injected state breaks the window it enters: entries of 1e200
    # overflow every dot product with it; entries of 1e150 keep the dot
    # products finite but overflow them divided by a temperature of
    # 1e-10; in raw-sum mode a state that cancels the sum of the rows
    # held before it leaves every row of its window summing to about
    # lean times its magnitude, and a "hidden" one cancels only the
    # oldest held row's sum, which is checked only when residuals are
    # asked for (full)
    rng = np.random.default_rng(seed)
    states = rng.uniform(0.5, 1.5, (length, 3))
    frame = int(where * length)
    mode = "softmax" if fault in ("overflow", "logits") else MODE_RAW_SUM
    temperature = 1e-10 if fault == "logits" else None
    if mode == "softmax":
        states[frame] = (1e200 if fault == "overflow" else 1e150) * rng.uniform(0.5, 1.5, 3)
    else:
        if fault == "hidden":
            assume(length > 1)
            frame = max(frame, 1)
        stored = states[:frame]
        if policy == STORE_CORRECTED:
            stored = list_oracle(stored, window_k, mode, None, policy)[0]
        held = np.sum(stored[-window_k:], axis=0) if frame else np.zeros(3)
        lean = DEGENERATE_ROW_TOL * float(rng.uniform(0.0, 0.5))
        if fault == "cancel":
            states[frame] = -held / (1.0 + lean)
        else:
            # u is orthogonal to the oldest held row and long enough that
            # the current row's sum, |u|^2 - <held, u>, stays large
            oldest = stored[-window_k:][0]
            u = rng.standard_normal(3)
            u -= (u @ oldest) / (oldest @ oldest) * oldest
            u *= 4.0 * np.linalg.norm(held) / np.linalg.norm(u)
            states[frame] = u - held + lean * np.linalg.norm(held) * oldest
    try:
        list_oracle(states, window_k, mode, temperature, policy, full=full)
        expected = None
    except WindowFailure as exc:
        expected = (exc.kind, exc.frame)
    config = SsrConfig(
        window_k=window_k, mode=mode, temperature=temperature, buffer_policy=policy
    )
    try:
        with chunks_of(chunk, window_k, 3):
            run_stream(config, states, residuals=full)
        ours = None
    except (NonFiniteAffinity, DegenerateRow) as exc:
        ours = (type(exc).__name__, exc.frame)
        # the same error, message included, as the per-window reference
        ours_in_full = (type(exc).__name__, str(exc), exc.frame)
        assert outcome(per_window_stream, states, config, full) == ours_in_full
    assert ours == expected
    if fault == "hidden" and not full:
        assert expected is None or expected[1] > frame
    else:
        kind = "NonFiniteAffinity" if mode == "softmax" else "DegenerateRow"
        assert expected == (kind, frame)


def direct_residuals(states, config: SsrConfig) -> np.ndarray:
    """Each frame's residual from compute_affinity and self_expressive_residual of its window."""
    corrected = run_stream(config, states, residuals=False)[0]
    buf = corrected if config.buffer_policy == STORE_CORRECTED else states
    values = []
    for t in range(len(states)):
        window = np.array(buf[max(0, t - config.window_k) : t + 1])
        window[-1] = states[t]
        affinity = compute_affinity(window, config.mode, config.temperature)
        values.append(self_expressive_residual(window, affinity))
    return np.array(values)


def banded_residuals(states, config: SsrConfig) -> np.ndarray:
    """The banded pass's residuals of a stream; NaN marks a window left to the direct path."""
    if config.mode == MODE_RAW_SUM:  # run_stream sends every raw-sum window direct
        return np.full(len(states), np.nan)
    corrected = run_stream(config, states, residuals=False)[0]
    feedback = config.buffer_policy == STORE_CORRECTED
    buf = corrected if feedback else states
    tau = config.temperature
    if tau is None:
        tau = default_temperature(states.shape[1])
    with np.errstate(all="ignore"):
        return regularizer_mod._banded_residuals(
            buf, states, config.window_k, tau, len(states), feedback
        )


class TestDirectPath:
    """Windows the Gram form cannot vouch for get the direct form's value bit for bit."""

    @staticmethod
    def check(states, config, frames):
        routed = np.isnan(banded_residuals(states, config))
        assert routed[frames].all()
        residuals = run_stream(config, states)[2]
        expected = direct_residuals(states, config)
        assert np.array_equal(residuals[routed], expected[routed])
        return residuals

    @pytest.mark.parametrize("mode", ["softmax", MODE_RAW_SUM])
    @pytest.mark.parametrize("policy", [STORE_RAW, STORE_CORRECTED])
    def test_constant_stream(self, mode, policy):
        states = np.tile([0.6, 0.8, 0.0, 0.5], (40, 1))
        config = SsrConfig(window_k=8, mode=mode, buffer_policy=policy)
        # exactly 0 in exact arithmetic; the direct form rounds C S
        residuals = self.check(states, config, slice(1, None))
        assert np.all(residuals <= 4 * np.finfo(float).eps)

    def test_two_identical_states(self):
        states = random_states(np.random.default_rng(43), 20, 6)
        states[1] = states[0]
        self.check(states, SsrConfig(window_k=4), [1])

    def test_raw_sum_weights_near_the_degenerate_limit(self):
        # row 0 of frame 1's window sums to 1.5e-4 of its magnitudes, so
        # that window's weights reach 1 / (1.5 DEGENERATE_ROW_TOL) / 2
        a = 1.0 + 3.0 * DEGENERATE_ROW_TOL
        later = 2.0 + random_states(np.random.default_rng(47), 10, 2)
        states = np.vstack([[[1.0, 0.0], [-a, 0.5]], later])
        config = SsrConfig(window_k=1, mode=MODE_RAW_SUM)
        gram = states[:2] @ states[:2].T
        assert abs(gram[0].sum()) < 2.0 * DEGENERATE_ROW_TOL * np.abs(gram[0]).sum()
        assert np.abs(compute_affinity(states[:2], MODE_RAW_SUM)).max() > 0.3 / DEGENERATE_ROW_TOL
        self.check(states, config, [1])

    @pytest.mark.parametrize("exponent", [-500, 500])
    @pytest.mark.parametrize("mode", ["softmax", MODE_RAW_SUM])
    def test_states_scaled_far_from_one(self, exponent, mode):
        offset = 1.0 if mode == MODE_RAW_SUM else 0.0
        states = np.ldexp(random_states(np.random.default_rng(53), 30, 4) + offset, exponent)
        config = SsrConfig(window_k=5, mode=mode)
        residuals = self.check(states, config, slice(None))
        if mode == MODE_RAW_SUM:  # C does not change with the scale
            unscaled = run_stream(config, np.ldexp(states, -exponent))[2]
            np.testing.assert_allclose(residuals, unscaled, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("policy", [STORE_RAW, STORE_CORRECTED])
    def test_raw_sum_windows_take_the_direct_path(self, policy):
        # the Gram form serves softmax windows only
        states = random_states(np.random.default_rng(61), 30, 5) + 1.0
        config = SsrConfig(window_k=4, mode=MODE_RAW_SUM, buffer_policy=policy)
        self.check(states, config, slice(None))

    @pytest.mark.parametrize("policy", [STORE_RAW, STORE_CORRECTED])
    def test_windows_longer_than_the_dimension(self, policy):
        # k + 1 = 7 rows in R^3: frames 0 .. 2 fit in 3 rows, the rest do not
        states = random_states(np.random.default_rng(59), 30, 3)
        config = SsrConfig(window_k=6, buffer_policy=policy)
        self.check(states, config, slice(3, None))
        assert not np.isnan(banded_residuals(states, config)[1:3]).any()


def head_cases():
    """(dim, length) at window_k = 6: W = min(7, dim) rows, T in {1, W - 2, W - 1, W, W + 1}."""
    for dim in (1, 4, 9):  # W = 1; W = d < k + 1; W = k + 1 <= d
        width = min(7, dim)
        for length in sorted({max(1, t) for t in (1, width - 2, width - 1, width, width + 1)}):
            yield dim, length


def head_examples(test):
    """@example at every head_cases shape, under both buffer policies."""
    for dim, length in head_cases():
        for policy in (STORE_RAW, STORE_CORRECTED):
            test = example(
                seed=length, length=length, dim=dim, window_k=6, mode="softmax", policy=policy,
                temperature=None, noise=None, exponent=0,
            )(test)
    return test


@pytest.mark.parametrize("policy", [STORE_RAW, STORE_CORRECTED])
@pytest.mark.parametrize(("dim", "length"), list(head_cases()))
def test_banded_head_gives_the_padded_streams_residuals_bit_for_bit(dim, length, policy):
    # frames before W - 1 take their lag bands over a short zero-padded head,
    # the rest over views of the stream; both must give what one zero-padded
    # copy of the whole stream gives, and run_stream its residuals
    states = random_states(np.random.default_rng(length), length, dim)
    config = SsrConfig(window_k=6, buffer_policy=policy)
    corrected, _, residuals = run_stream(config, states)
    feedback = policy == STORE_CORRECTED
    padded = padded_banded_residuals(
        corrected if feedback else states, states, 6, default_temperature(dim), length, feedback
    )
    assert np.array_equal(banded_residuals(states, config), padded, equal_nan=True)
    expected = np.where(np.isnan(padded), direct_residuals(states, config), padded)
    assert np.array_equal(residuals, expected)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=1, max_value=24),
    window_k=st.integers(min_value=1, max_value=12),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
    temperature=st.one_of(st.none(), st.floats(min_value=0.05, max_value=20.0)),
    # iid states, or a common state plus noise down to 1e-8 of it
    noise=st.one_of(st.none(), st.floats(min_value=1e-8, max_value=1.0)),
    exponent=st.sampled_from([0, 0, 0, -300, 300]),
)
@head_examples
def test_property_banded_residuals_are_the_direct_ones_within_1e_12(
    seed, length, dim, window_k, mode, policy, temperature, noise, exponent
):
    # every window the banded pass vouches for is within 1e-12 of the
    # direct form; the others are left to it (NaN)
    rng = np.random.default_rng(seed)
    states = random_states(rng, length, dim)
    if noise is not None:
        states = rng.standard_normal(dim) + noise * states
    if mode == MODE_RAW_SUM:
        temperature = None
        states += 1.0
    states = np.ldexp(states, exponent)
    config = SsrConfig(
        window_k=window_k, mode=mode, temperature=temperature, buffer_policy=policy
    )
    try:
        expected = direct_residuals(states, config)
    except DegenerateRow:
        assume(False)
    ours = banded_residuals(states, config)
    vouched = ~np.isnan(ours)
    np.testing.assert_allclose(ours[vouched], expected[vouched], rtol=1e-12, atol=0.0)
    if mode == MODE_RAW_SUM:
        # every raw-sum window is left to the direct path, whose value run_stream returns
        assert not vouched.any()
        assert np.array_equal(run_stream(config, states)[2], expected)



@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window_k=st.integers(min_value=1, max_value=12),
    # from the empty stream through the warm-up to 20 frames past k
    extra=st.integers(min_value=-12, max_value=20),
    dim=st.integers(min_value=1, max_value=8),
    # up to 2^510 the dot products of up to 8 entries reach float64's limit
    exponent=st.integers(min_value=-510, max_value=510),
    mode=st.sampled_from(["softmax", MODE_RAW_SUM]),
    policy=st.sampled_from([STORE_RAW, STORE_CORRECTED]),
)
def test_property_row_loop_is_each_windows_correct_current(
    seed, window_k, extra, dim, exponent, mode, policy
):
    # run_stream corrects every store-corrected frame in its own row loop,
    # and store-raw windows in correct_current calls over many windows; each
    # row must be correct_current of its window bit for bit, and a failing
    # row must raise correct_current's error with the row's frame
    length = max(0, window_k + extra)
    offset = 1.0 if mode == MODE_RAW_SUM else 0.0
    states = np.ldexp(random_states(np.random.default_rng(seed), length, dim) + offset, exponent)
    config = SsrConfig(window_k=window_k, mode=mode, buffer_policy=policy)
    ours = outcome(lambda: run_stream(config, states, residuals=False)[0])
    theirs = outcome(per_window_stream, states, config)
    if ours[0] == "ok" and theirs[0] == "ok":
        assert np.array_equal(ours[1], theirs[1])
    else:
        assert ours == theirs


@pytest.fixture
def calls(monkeypatch):
    """The (windows, rows) shape of every correct_current call run_stream makes."""
    shapes = []

    def spy(windows, *args):
        shapes.append(windows.shape[:2])
        return correct_current(windows, *args)

    monkeypatch.setattr(regularizer_mod, "correct_current", spy)
    return shapes


@pytest.mark.parametrize("policy", [STORE_RAW, STORE_CORRECTED])
def test_logits_whose_max_plus_min_overflows_are_finite(policy, calls):
    # every logit lies near 1.5e308: finite, although the row's max plus
    # its min is not. No row may fail: store-raw rows go to correct_current,
    # and the store-corrected row loop must accept every row itself rather
    # than hand it to correct_current as a failure
    scale = math.sqrt(1.5e308)
    states = scale * np.array([[1.0], [1.0 - 2e-16], [0.9999], [1.0], [0.99995]])
    config = SsrConfig(window_k=2, temperature=1.0, buffer_policy=policy)
    expected = per_window_stream(states, config)
    corrected, _, _ = run_stream(config, states, residuals=False)
    assert np.all(np.isfinite(corrected))
    assert np.array_equal(corrected, expected)
    # store-raw corrects each warm-up window, then its three full windows in
    # one call; store-corrected forms every softmax row itself
    assert calls == ([(1, 1), (1, 2), (3, 3)] if policy == STORE_RAW else [])


class TestCorrectionFlow:
    """A stream is a stack of one; the buffer policy alone picks the correction path."""

    K, LENGTH = 3, 10

    def states(self, streams: int) -> np.ndarray:
        return random_states(np.random.default_rng(11), streams * self.LENGTH, 4).reshape(
            streams, self.LENGTH, 4
        )

    def test_one_stream_stack_batches_its_warm_up(self, calls):
        run_stream(SsrConfig(window_k=self.K), self.states(1), residuals=False)
        warm_up = [(1, t + 1) for t in range(self.K)]
        assert calls == warm_up + [(self.LENGTH - self.K, self.K + 1)]

    def test_stack_of_two_batches_its_warm_up(self, calls):
        run_stream(SsrConfig(window_k=self.K), self.states(2), residuals=False)
        warm_up = [(2, t + 1) for t in range(self.K)]
        assert calls == warm_up + [(self.LENGTH - self.K, self.K + 1)] * 2

    def test_store_corrected_softmax_stack_takes_the_row_loop(self, calls):
        config = SsrConfig(window_k=self.K, buffer_policy=STORE_CORRECTED)
        stack = self.states(2)
        corrected = run_stream(config, stack, residuals=False)[0]
        assert calls == []
        for ours, stream in zip(corrected, stack):
            assert np.array_equal(ours, per_window_stream(stream, config))

    def test_raw_sum_rows_take_correct_current(self, calls):
        config = SsrConfig(window_k=self.K, mode=MODE_RAW_SUM, buffer_policy=STORE_CORRECTED)
        states = self.states(1)[0] + 1.0
        corrected = run_stream(config, states, residuals=False)[0]
        assert calls == [(1, min(t, self.K) + 1) for t in range(self.LENGTH)]
        assert np.array_equal(corrected, per_window_stream(states, config))

    def test_direct_path_takes_each_warm_up_length_then_the_full_windows(self, monkeypatch):
        # every raw-sum window goes direct: one compute_affinity call per warm-up
        # length, shortest first, then the full windows in chunks of 4
        shapes = []

        def spy(stack, *args):
            shapes.append(stack.shape)
            return compute_affinity(stack, *args)

        monkeypatch.setattr(regularizer_mod, "compute_affinity", spy)
        states = self.states(1)[0] + 1.0
        with chunks_of(4, self.K, 4):
            run_stream(SsrConfig(window_k=self.K, mode=MODE_RAW_SUM), states)
        full = self.LENGTH - self.K
        assert shapes == [(1, t + 1, 4) for t in range(self.K)] + [
            (4, self.K + 1, 4), (full - 4, self.K + 1, 4)
        ]


def test_kept_frames_past_a_failure_still_check_every_window():
    # frame 1's window has a degenerate oldest row, [1, -1], checked only
    # in full; frame 2's current row, [sqrt 2, -sqrt 2 - 3, 3], sums to
    # rounding. Kept frames, even past the failure, check every window in
    # full, as residuals do
    states = np.array([[1.0, 0.0], [-1.0, 3.0], [math.sqrt(2.0), -1.0], [1.0, 1.0]])
    config = SsrConfig(window_k=2, mode=MODE_RAW_SUM)
    for residuals, keep, frame in ((False, (), 2), (True, (), 1), (False, (3,), 1)):
        with pytest.raises(DegenerateRow) as excinfo:
            run_stream(config, states, residuals=residuals, keep_affinities=keep)
        assert excinfo.value.frame == frame


class TestEmaFuse:
    def test_endpoints_are_bitwise_exact(self):
        stream = np.random.default_rng(5).standard_normal((6, 3))
        assert np.array_equal(ema_fuse(stream, 1.0), stream)
        assert np.array_equal(ema_fuse(stream, 0.0), np.repeat(stream[:1], 6, axis=0))

    def test_hand_example(self):
        fused = ema_fuse(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]), 0.25)
        assert np.allclose(fused, [[0.0, 1.0], [0.25, 0.75], [0.4375, 0.5625]], atol=1e-15)

    def test_interpolation_bound(self):
        # each row mixes the stream's rows so far: it stays inside their box
        rng = np.random.default_rng(37)
        for _ in range(50):
            stream = rng.standard_normal((8, 6))
            fused = ema_fuse(stream, float(rng.uniform()))
            hi = np.maximum.accumulate(stream, axis=0)
            lo = np.minimum.accumulate(stream, axis=0)
            assert np.all(fused <= hi + 1e-12)
            assert np.all(fused >= lo - 1e-12)

    def test_alpha_out_of_range(self):
        stream = np.ones((2, 1))
        with pytest.raises(AlphaOutOfRange):
            ema_fuse(stream, 1.5)
        with pytest.raises(AlphaOutOfRange):
            ema_fuse(stream, -0.1)
        with pytest.raises(AlphaOutOfRange):
            ema_fuse(stream, math.nan)

    def test_dimension_mismatch(self):
        # a stream is T x d; one state or a stack of streams is not
        with pytest.raises(DimensionMismatch):
            ema_fuse(np.array([1.0, 2.0]), 0.5)
        with pytest.raises(DimensionMismatch):
            ema_fuse(np.ones((2, 3, 4)), 0.5)


# the blocked EMA repeats the loop's rounding only where P is 0 or I, or
# where a block holds one row; test_property_blocked_ema_is_the_loop_within_a_data_bound
# holds every other case
@pytest.mark.parametrize(
    "length, alpha",
    [(length, alpha) for length in (1, 2) for alpha in (0.0, 0.123456789, 0.3, 0.5, 1.0)]
    + [(length, alpha) for length in (256, 1024) for alpha in (0.0, 1.0)],
)
def test_ema_fuse_is_the_plain_loop_bit_for_bit(alpha, length):
    stream = np.random.default_rng(length).standard_normal((length, 5))
    assert np.array_equal(ema_fuse(stream, alpha), ema_oracle(stream, alpha))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=1, max_value=200),
    alpha=st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    scale=st.integers(min_value=-1000, max_value=1000),
)
def test_property_blocked_ema_is_the_loop_within_a_data_bound(seed, length, alpha, scale):
    # P X plus the carried row rounds differently from the recurrence; both
    # carry each rounding into later rows, damped by (1 - alpha) per row, so
    # the bound grows with the rows and scales with the largest entry
    stream = np.ldexp(np.random.default_rng(seed).standard_normal((length, 3)), scale)
    fused = ema_fuse(stream, alpha)
    loop = ema_oracle(stream, alpha)
    largest = np.maximum.accumulate(np.abs(stream), axis=0)
    bound = 4.0 * (length + 32) * 2.0**-53 * largest + 64 * 2.0**-1074
    assert np.all(np.abs(fused - loop) <= bound)
    if alpha in (0.0, 1.0):
        assert np.array_equal(fused, loop)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=2, max_value=100),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    where=st.integers(min_value=0, max_value=10**6),
)
def test_property_blocked_ema_gives_the_loops_output_on_non_finite_rows(
    seed, length, alpha, bad, where
):
    # a non-finite entry would spread through 0 * inf to earlier rows of its
    # block: the loop runs instead
    stream = np.random.default_rng(seed).standard_normal((length, 3))
    stream.flat[where % stream.size] = bad
    with np.errstate(all="ignore"):
        loop = ema_oracle(stream, alpha)
    assert np.array_equal(ema_fuse(stream, alpha), loop, equal_nan=True)


class TestPassthrough:
    def test_identity(self):
        incoming = np.array([[4.0, 5.0], [6.0, 7.0]])
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

    def test_temperature_only_in_softmax_mode(self):
        # compute_affinity's rule, which the residual pass no longer reaches
        # for every window
        with pytest.raises(ValueError, match="softmax mode only"):
            SsrConfig(mode=MODE_RAW_SUM, temperature=1.0)


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
    # row t is a convex combination of rows 0..t, so no longer than the longest
    stream = np.random.default_rng(seed).standard_normal((12, 7))
    fused = ema_fuse(stream, alpha)
    bound = np.maximum.accumulate(np.linalg.norm(stream, axis=1))
    assert np.all(np.linalg.norm(fused, axis=1) <= bound + 1e-12)
