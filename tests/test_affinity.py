"""Affinity kernel tests against a naive reference implementation.

The double-loop oracle below was written first, straight from the
definition: phi(i, j) = <s_i, s_j>, softmax rows exp(phi/tau) normalized
by their sum, raw-sum rows phi / sum_j phi.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssrlab.affinity import (
    DEGENERATE_ROW_TOL,
    MODE_RAW_SUM,
    MODE_SOFTMAX,
    StateVector,
    compute_affinity,
    default_temperature,
    self_expressive_residual,
)
from ssrlab.errors import DegenerateRow, DimensionMismatch, NonFiniteAffinity

E = math.e


def naive_affinity(rows: np.ndarray, mode: str, temperature: float | None) -> np.ndarray:
    """Reference implementation, one scalar at a time."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    length = rows.shape[0]
    phi = np.zeros((length, length))
    for i in range(length):
        for j in range(length):
            phi[i, j] = float(np.dot(rows[i], rows[j]))
    out = np.zeros_like(phi)
    if mode == MODE_SOFTMAX:
        tau = temperature if temperature is not None else math.sqrt(rows.shape[1])
        for i in range(length):
            shifted = phi[i] / tau - max(phi[i] / tau)
            weights = np.array([math.exp(x) for x in shifted])
            out[i] = weights / weights.sum()
    else:
        for i in range(length):
            total = phi[i].sum()
            assert abs(total) >= 1e-12, "oracle cannot normalize this row"
            out[i] = phi[i] / total
    return out


class TestStateVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, np.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros((2, 2)))

    def test_values_read_only(self):
        v = StateVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            v.values[0] = 5.0


class TestSoftmaxAffinity:
    def test_single_state_gives_exactly_one(self):
        aff = compute_affinity(np.array([[3.0, -1.0, 2.0]]))
        assert aff.shape == (1, 1)
        assert aff[0, 0] == 1.0

    def test_identical_states_give_exactly_uniform_weights_pair(self):
        # equal logits shift to zero, exp gives ones, 1/2 is exact
        rows = np.array([[0.3, 0.4], [0.3, 0.4]])
        aff = compute_affinity(rows)
        assert np.array_equal(aff, np.full((2, 2), 0.5))

    def test_orthogonal_pair_matches_closed_form(self):
        # logits row 0: [1, 0] at tau=1 -> [e/(1+e), 1/(1+e)]
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        aff = compute_affinity(rows, temperature=1.0)
        assert aff[0, 0] == pytest.approx(E / (1 + E), abs=1e-15)
        assert aff[0, 1] == pytest.approx(1 / (1 + E), abs=1e-15)
        # frozen decimals, computed with mpmath beforehand
        assert aff[0, 0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert aff[0, 1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            rows = rng.standard_normal((int(rng.integers(1, 9)), 5))
            aff = compute_affinity(rows)
            assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(aff >= 0.0)

    def test_default_temperature_is_sqrt_dim(self):
        assert default_temperature(64) == 8.0
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        implicit = compute_affinity(rows)
        explicit = compute_affinity(rows, temperature=2.0)
        assert np.array_equal(implicit, explicit)

    def test_huge_temperature_flattens_to_uniform(self):
        rng = np.random.default_rng(73)
        rows = rng.standard_normal((4, 3))
        aff = compute_affinity(rows, temperature=1e6)
        assert np.allclose(aff, 0.25, atol=1e-5)

    def test_large_logits_do_not_overflow(self):
        rows = np.array([[1e3, 0.0], [0.0, 1e3]])
        aff = compute_affinity(rows, temperature=1.0)
        assert np.all(np.isfinite(aff))
        assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(79)
        rows = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        direct = compute_affinity(rows[perm], temperature=1.3)
        base = compute_affinity(rows, temperature=1.3)
        assert np.allclose(direct, base[np.ix_(perm, perm)], atol=1e-12)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            compute_affinity(np.eye(2), temperature=0.0)


class TestRawSumAffinity:
    def test_identity_pair_normalizes_rows(self):
        # gram of I_2 is I_2; each row sums to 1 already
        aff = compute_affinity(np.eye(2), mode=MODE_RAW_SUM)
        assert np.array_equal(aff, np.eye(2))

    def test_row_sums_exactly_one_shape(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            rows = rng.standard_normal((int(rng.integers(1, 7)), 6)) + 0.5
            try:
                aff = compute_affinity(rows, mode=MODE_RAW_SUM)
            except DegenerateRow:
                continue
            assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-9)

    def test_opposite_states_raise_degenerate_row(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateRow) as excinfo:
            compute_affinity(rows, mode=MODE_RAW_SUM)
        assert "row 0" in str(excinfo.value)

    def test_temperature_not_allowed(self):
        with pytest.raises(ValueError):
            compute_affinity(np.eye(2), mode=MODE_RAW_SUM, temperature=2.0)

    def test_scale_invariance(self):
        # phi scales quadratically but row normalization cancels it
        rng = np.random.default_rng(89)
        rows = rng.standard_normal((4, 5)) + 1.0
        a1 = compute_affinity(rows, mode=MODE_RAW_SUM)
        a2 = compute_affinity(3.0 * rows, mode=MODE_RAW_SUM)
        assert np.allclose(a1, a2, atol=1e-12)

    def test_entries_may_be_negative(self):
        # gram [[1, -0.5], [-0.5, 1.25]], row sums 0.5 and 0.75
        aff = compute_affinity(np.array([[1.0, 0.0], [-0.5, 1.0]]), mode=MODE_RAW_SUM)
        assert np.allclose(aff, [[2.0, -1.0], [-2.0 / 3.0, 5.0 / 3.0]], atol=1e-15)

    def test_guard_is_relative_to_row_magnitude(self):
        # unit-scale near-cancellation: |sum phi| = 1e-5 against
        # sum |phi| ~ 2, which an absolute 1e-12 floor let through
        rows = np.array([[1.0, 0.0], [-0.99999, 1e-3]])
        with pytest.raises(DegenerateRow):
            compute_affinity(rows, mode=MODE_RAW_SUM)
        # the last row sums to 1e-10 against sum |phi| = 2
        rows = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.3, -0.7, math.sqrt(0.42 + 1e-10)]]
        )
        with pytest.raises(DegenerateRow) as excinfo:
            compute_affinity(rows, mode=MODE_RAW_SUM)
        assert "row 2" in str(excinfo.value)
        # a well-conditioned window at tiny scale passes: every row sum is
        # below 1e-12 in absolute terms
        tiny = 1e-8 * np.array([[1.0, 0.0], [0.5, 1.0]])
        assert np.allclose(
            compute_affinity(tiny, mode=MODE_RAW_SUM),
            compute_affinity(tiny / 1e-8, mode=MODE_RAW_SUM),
            atol=1e-12,
        )


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", [MODE_SOFTMAX, MODE_RAW_SUM])
    def test_matches_naive_reference(self, mode):
        rng = np.random.default_rng(97)
        checked = 0
        for _ in range(300):
            length = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 5))
            rows = rng.standard_normal((length, dim))
            if mode == MODE_RAW_SUM:
                gram = rows @ rows.T
                if np.any(np.abs(gram.sum(axis=1)) < 1e-9):
                    continue  # skip near-degenerate draws, tested separately
                ours = compute_affinity(rows, mode=mode)
                theirs = naive_affinity(rows, mode, None)
            else:
                tau = float(rng.uniform(0.2, 5.0))
                ours = compute_affinity(rows, mode=mode, temperature=tau)
                theirs = naive_affinity(rows, mode, tau)
            assert np.allclose(ours, theirs, atol=1e-12)
            checked += 1
        assert checked >= 250


class TestResidualAndHeatmap:
    def test_known_residual_halved_reconstruction(self):
        # C maps both rows to their average; S has rows e1, e2, so
        # S - CS has all entries +/- 0.5: frobenius 1, ||S|| = sqrt(2)
        value = self_expressive_residual(np.eye(2), np.full((2, 2), 0.5))
        assert value == pytest.approx(2**-0.5, abs=1e-15)
        assert value == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_perfect_reconstruction_is_zero(self):
        assert self_expressive_residual(np.eye(2), np.eye(2)) == 0.0

    def test_zero_window_scores_zero(self):
        assert self_expressive_residual(np.zeros((3, 2)), np.full((3, 3), 1 / 3)) == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            self_expressive_residual(np.eye(3), np.eye(2))


class TestStacks:
    def test_stack_matches_each_window_bitwise(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((2, 5, 4, 6)) + 0.5
        for mode in (MODE_SOFTMAX, MODE_RAW_SUM):
            ours = compute_affinity(stack, mode=mode)
            assert ours.shape == (2, 5, 4, 4)
            assert not ours.flags.writeable
            residuals = self_expressive_residual(stack, ours)
            assert residuals.shape == (2, 5)
            for i in range(2):
                for j in range(5):
                    single = compute_affinity(stack[i, j], mode=mode)
                    assert np.array_equal(ours[i, j], single)
                    assert residuals[i, j] == self_expressive_residual(stack[i, j], single)

    @pytest.mark.parametrize("fault", ["overflow", "cancel", "both"])
    def test_error_names_the_first_failing_window(self, fault):
        stack = np.random.default_rng(5).uniform(0.5, 1.5, (6, 3, 2))
        expected = DegenerateRow
        if fault in ("overflow", "both"):
            stack[4, 1] = 1e200
            expected = NonFiniteAffinity
        if fault in ("cancel", "both"):
            stack[2, 1] = -stack[2, 0]
            stack[2, 2] = 0.0
            expected = DegenerateRow
        with pytest.raises(expected) as excinfo:
            compute_affinity(stack, mode=MODE_RAW_SUM)
        assert excinfo.value.frame == (4 if fault == "overflow" else 2)

    def test_overflowing_row_sum_is_degenerate_without_warning(self):
        # window 3's dot products are finite (1.69e308) but its row sums
        # overflow, so its rows cannot be normalized
        stack = np.random.default_rng(7).uniform(0.5, 1.5, (5, 3, 2))
        stack[3, :, 0] = 1.3e154
        stack[3, :, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRow) as excinfo:
                compute_affinity(stack, mode=MODE_RAW_SUM)
        assert excinfo.value.frame == 3

    def test_single_window_error_has_no_frame(self):
        with pytest.raises(DegenerateRow) as excinfo:
            compute_affinity(np.array([[1.0, 0.0], [-1.0, 0.0]]), mode=MODE_RAW_SUM)
        assert excinfo.value.frame is None


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=1, max_value=12),
    dim=st.integers(min_value=1, max_value=8),
    exponent=st.floats(min_value=-150.0, max_value=153.0),
)
def test_property_residual_is_scale_free(seed, length, dim, exponent):
    # the affinity is fixed, so ||cS - C cS|| / ||cS|| equals the ratio at
    # c = 1; up to c = 1e153 no intermediate may overflow either
    rng = np.random.default_rng(seed)
    window = rng.standard_normal((length, dim))
    affinity = compute_affinity(window)
    scale = 10.0**exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = self_expressive_residual(scale * window, affinity)
    assert abs(scaled - self_expressive_residual(window, affinity)) <= 1e-12


@pytest.mark.parametrize("mode", [MODE_SOFTMAX, MODE_RAW_SUM])
def test_overflowing_dot_products_raise_numeric_error(mode):
    # entries of 1e160 are finite, but their squares overflow float64
    rows = np.array([[1e160, 1.0], [1.0, -1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteAffinity):
            compute_affinity(rows, mode=mode)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=1, max_value=10),
    dim=st.integers(min_value=1, max_value=8),
)
def test_property_softmax_rows_are_convex_weights(seed: int, length: int, dim: int):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((length, dim)) * float(rng.uniform(0.1, 10.0))
    aff = compute_affinity(rows)
    assert np.all(aff >= 0.0)
    assert np.all(aff <= 1.0 + 1e-12)
    assert np.allclose(aff.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shift=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_property_softmax_invariant_to_logit_shift(seed: int, shift: float):
    # adding a constant to every gram entry of a row cancels in softmax;
    # realized here by comparing against the naive oracle with shift
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((4, 3))
    tau = 1.7
    gram = rows @ rows.T
    ours = compute_affinity(rows, temperature=tau)
    logits = gram / tau + shift
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = shifted / shifted.sum(axis=1, keepdims=True)
    assert np.allclose(ours, expected, atol=1e-12)


def _near_cancelling_window(seed: int, length: int, dim: int, lean: float) -> np.ndarray:
    """Random window whose last row has raw sum lean * ||x_last|| * scale.

    The first row is chosen so that the window sum S is a random vector
    orthogonal to the last state x plus lean along x, so the last row
    sums to x . S = lean * ||x||; small leans sit near the guard.
    """
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((length, dim))
    last = rows[-1]
    unit = last / np.linalg.norm(last)
    ortho = rng.standard_normal(dim)
    ortho -= (ortho @ unit) * unit
    rows[0] += ortho + lean * unit - rows.sum(axis=0)
    return rows


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    length=st.integers(min_value=2, max_value=65),
    dim=st.integers(min_value=1, max_value=8),
    lean=st.floats(min_value=-8.0, max_value=0.0).map(lambda e: 10.0**e),
)
@example(seed=0, length=2, dim=2, lean=2.0 * DEGENERATE_ROW_TOL)
def test_property_raw_sum_guard_bounds_amplification(
    seed: int, length: int, dim: int, lean: float
):
    # an accepted row has sum |C_ij| < 1 / tol, so the corrected state is
    # at most 1 / tol times the largest window state, and rows sum to 1
    rows = _near_cancelling_window(seed, length, dim, lean)
    try:
        aff = compute_affinity(rows, mode=MODE_RAW_SUM)
    except DegenerateRow:
        return
    bound = np.linalg.norm(rows, axis=1).max() / DEGENERATE_ROW_TOL
    assert np.linalg.norm(aff[-1] @ rows) <= bound * (1.0 + 1e-9)
    assert np.allclose(aff.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
