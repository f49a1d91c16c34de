"""Subspace geometry tests.

Oracle values were computed independently before the implementation:
hand geometry for axis-aligned planes, and a plain modified Gram-Schmidt
as a second opinion on orthonormalization.
"""

import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ssrlab.grassmann as grassmann_mod
from ssrlab.errors import (
    DegenerateGeodesic,
    DimensionMismatch,
    RankDeficient,
    RankMismatch,
)
from ssrlab.grassmann import (
    GeodesicPiece,
    geodesic,
    orthonormalize,
    principal_angles,
    projection_distance,
    span_membership_residual,
)
from scenario_oracle import frame_bases, frame_pieces


def gram_schmidt_oracle(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt, the textbook way; independent of the library."""
    m = np.array(m, dtype=np.float64)
    q = np.zeros_like(m)
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        # second pass for numerical insurance
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        norm = np.linalg.norm(v)
        assert norm > 1e-12, "oracle needs full-rank input"
        q[:, j] = v / norm
    return q


def random_point(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    return orthonormalize(rng.standard_normal((n, r)))


def axis_span(n: int, axes: list[int]) -> np.ndarray:
    basis = np.zeros((n, len(axes)))
    for j, axis in enumerate(axes):
        basis[axis, j] = 1.0
    return basis


def point_at(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Basis of the point at s on the geodesic from a to b, from its frame."""
    p, g, theta = geodesic(a, b)
    return p * np.cos(s * theta) + g * np.sin(s * theta)


def geodesic_path(rng: np.random.Generator, n: int, r: int, length: int) -> tuple:
    """A truth path as synth builds one: frame 0 on a point, then frames on the
    geodesic from it to another point, at sorted positions, under a random rotation."""
    a, b = random_point(rng, n, r), random_point(rng, n, r)
    p, g, theta = geodesic(a, b)
    angles = np.sort(rng.uniform(0.0, 1.0, length - 1))[:, None] * theta
    cos_sin = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rotation = np.linalg.qr(rng.standard_normal((r, r)))[0]
    return (
        GeodesicPiece.point(0, 1, a),
        GeodesicPiece(1, length, np.concatenate([p, g], axis=1), cos_sin, rotation),
    )


def chunk_rows(rows: int | None, n: int):
    """The residual's chunk budget at rows frames of R^n; None leaves it as it is."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(grassmann_mod, "_CHUNK_ENTRIES", rows * n)


def residual(v: np.ndarray, basis: np.ndarray) -> float:
    """span_membership_residual of one vector against one basis."""
    return float(span_membership_residual(v[None], (GeodesicPiece.point(0, 1, basis),))[0])


class TestOrthonormalize:
    def test_matches_gram_schmidt_span(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            r = int(rng.integers(1, n))
            m = rng.standard_normal((n, r))
            ours = orthonormalize(m)
            oracle = gram_schmidt_oracle(m)
            # same span: projectors agree
            assert np.allclose(ours @ ours.T, oracle @ oracle.T, atol=1e-10)

    def test_orthonormal_input_passes_through_exactly(self):
        basis = axis_span(5, [0, 2])
        assert np.array_equal(orthonormalize(basis), basis)

    def test_diagonal_scaling_recovers_axes_exactly(self):
        m = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(orthonormalize(m), expected)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        first = random_point(rng, 9, 3)
        assert np.allclose(orthonormalize(first), first, atol=1e-12)

    def test_rank_deficient_rejected(self):
        col = np.ones((6, 1))
        with pytest.raises(RankDeficient):
            orthonormalize(np.hstack([col, 2.0 * col]))
        with pytest.raises(RankDeficient):
            orthonormalize(np.zeros((6, 2)))

    @pytest.mark.parametrize("exponent", [-1000, -560, -400, -40, 40, 400, 560, 1000])
    def test_rank_test_is_relative_to_the_matrix(self, exponent):
        # a scaled orthonormal matrix has condition number 1 at any scale;
        # past 2**+-511 the squared column norms of the pivot loop would
        # overflow or underflow, unless the matrix is scaled back exactly
        rng = np.random.default_rng(17)
        basis = random_point(rng, 8, 3)
        general = rng.standard_normal((8, 3)) * np.array([1.0, 5.0, 0.2])
        for m in (basis, general):
            scaled = np.ldexp(m, exponent)
            assert np.array_equal(np.ldexp(scaled, -exponent), m)
            assert np.array_equal(orthonormalize(scaled), orthonormalize(m))

    def test_preserves_span(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((8, 3))
            point = orthonormalize(m)
            for j in range(3):
                assert residual(m[:, j], point) < 1e-9

    def test_output_is_read_only(self):
        point = random_point(np.random.default_rng(13), 7, 2)
        with pytest.raises(ValueError):
            point[0, 0] = 2.0

    def test_rejects_empty_square_and_fat(self):
        for m in (np.zeros((4, 0)), np.eye(3), np.eye(2, 3)):
            with pytest.raises(ValueError, match="1 <= r < n"):
                orthonormalize(m)


class TestProjectionDistance:
    def test_orthogonal_lines_have_distance_one(self):
        # spans of e1 and e2 in R^3: projectors differ in two diagonal
        # slots, Frobenius norm sqrt(2), scaled by 1/sqrt(2) gives 1.
        a = axis_span(3, [0])
        b = axis_span(3, [1])
        assert projection_distance(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_known_plane_rotation(self):
        # rotating a line by angle t gives distance sin(t)
        t = 0.3
        a = axis_span(3, [0])
        basis = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        assert projection_distance(a, basis) == pytest.approx(np.sin(t), abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = random_point(rng, 8, 3)
            b = random_point(rng, 8, 3)
            assert projection_distance(a, b) == projection_distance(b, a)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(19)
        a = random_point(rng, 10, 4)
        assert projection_distance(a, a) == 0.0
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert projection_distance(a, a @ rot) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = random_point(rng, 6, 2)
            b = random_point(rng, 6, 2)
            c = random_point(rng, 6, 2)
            assert projection_distance(a, b) <= (
                projection_distance(a, c) + projection_distance(c, b) + 1e-9
            )

    def test_matches_sin_angle_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            a = random_point(rng, 9, 3)
            b = random_point(rng, 9, 3)
            d = projection_distance(a, b)
            angles = principal_angles(a, b)
            assert d**2 == pytest.approx(np.sum(np.sin(angles) ** 2), abs=1e-9)

    def test_rank_may_differ(self):
        a = axis_span(4, [0])
        b = axis_span(4, [0, 1])
        # span(e1) inside span(e1, e2): projectors differ in one diagonal
        # slot, Frobenius norm 1, scaled by 1/sqrt(2)
        assert projection_distance(a, b) == pytest.approx(2**-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            projection_distance(axis_span(3, [0]), axis_span(4, [0]))


class TestPrincipalAngles:
    def test_known_angle_between_lines(self):
        t = np.pi / 4
        a = axis_span(3, [0])
        b = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        angles = principal_angles(a, b)
        assert angles[0] == pytest.approx(t, abs=1e-12)

    def test_identical_subspaces_have_zero_angles(self):
        rng = np.random.default_rng(31)
        a = random_point(rng, 7, 3)
        assert principal_angles(a, a)[-1] < 1e-7

    def test_sorted_ascending(self):
        rng = np.random.default_rng(37)
        a = random_point(rng, 10, 4)
        b = random_point(rng, 10, 4)
        angles = principal_angles(a, b)
        assert np.all(np.diff(angles) >= 0.0)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankMismatch):
            principal_angles(axis_span(4, [0]), axis_span(4, [0, 1]))


class TestGeodesic:
    def test_endpoints_are_the_inputs(self):
        rng = np.random.default_rng(41)
        a = random_point(rng, 8, 2)
        b = random_point(rng, 8, 2)
        # the frame at s = 0 is a's basis p, at s = 1 it spans b
        assert np.array_equal(point_at(a, b, 0.0), geodesic(a, b)[0])
        assert projection_distance(point_at(a, b, 0.0), a) < 1e-12
        assert projection_distance(point_at(a, b, 1.0), b) < 1e-12

    def test_midpoint_of_lines_bisects_the_angle(self):
        # lines at angle pi/4; the midpoint must sit at pi/8 from both
        t = np.pi / 4
        a = axis_span(3, [0])
        b = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        mid = point_at(a, b, 0.5)
        assert principal_angles(a, mid)[-1] == pytest.approx(
            np.pi / 8, abs=1e-12
        )
        assert principal_angles(mid, b)[-1] == pytest.approx(
            np.pi / 8, abs=1e-12
        )

    def test_distance_grows_monotonically_along_the_path(self):
        rng = np.random.default_rng(43)
        a = random_point(rng, 10, 3)
        b = random_point(rng, 10, 3)
        grid = np.linspace(0.0, 1.0, 9)
        dists = [projection_distance(a, point_at(a, b, float(s))) for s in grid]
        assert all(y >= x - 1e-12 for x, y in zip(dists, dists[1:]))

    def test_stays_on_the_manifold(self):
        rng = np.random.default_rng(47)
        a = random_point(rng, 9, 3)
        b = random_point(rng, 9, 3)
        for s in (0.25, 0.5, 0.75):
            point = point_at(a, b, s)
            gram = point.T @ point
            assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_additivity_along_the_path(self):
        # gamma(0.5) of (a, gamma(1.0)) equals gamma(0.5) directly
        rng = np.random.default_rng(53)
        a = random_point(rng, 8, 2)
        b = random_point(rng, 8, 2)
        quarter = point_at(a, b, 0.25)
        half = point_at(a, b, 0.5)
        assert projection_distance(a, quarter) == pytest.approx(
            projection_distance(quarter, half), abs=1e-9
        )

    def test_orthogonal_lines_are_degenerate(self):
        with pytest.raises(DegenerateGeodesic):
            geodesic(axis_span(3, [0]), axis_span(3, [1]))


class TestSpanMembership:
    def test_known_residual_for_tilted_vector(self):
        # v = 0.6 u + 0.8 w with w orthogonal to span{u}: residual 0.8
        u = axis_span(3, [0])
        v = np.array([0.6, 0.8, 0.0])
        assert residual(v, u) == pytest.approx(0.8, abs=1e-15)

    def test_member_has_zero_residual(self):
        rng = np.random.default_rng(61)
        point = random_point(rng, 8, 3)
        v = point @ rng.standard_normal(3)
        assert residual(v, point) < 1e-12

    def test_orthogonal_vector_has_residual_one(self):
        u = axis_span(3, [0])
        assert residual(np.array([0.0, 0.0, 2.0]), u) == 1.0

    def test_zero_vector_is_safe(self):
        u = axis_span(3, [0])
        assert residual(np.zeros(3), u) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(67)
        point = random_point(rng, 7, 2)
        v = rng.standard_normal(7)
        r1 = residual(v, point)
        r2 = residual(10.0 * v, point)
        assert r1 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize(
        "scale", [2.0**530, 1e160, 1e-200, 2.0**-1000], ids=["2^530", "1e160", "1e-200", "2^-1000"]
    )
    def test_scale_invariance_where_squares_overflow_or_underflow(self, scale):
        rng = np.random.default_rng(71)
        point = random_point(rng, 7, 2)
        v = rng.standard_normal(7)
        assert residual(scale * v, point) == pytest.approx(residual(v, point), rel=1e-12)

    def test_norm_beyond_float64_is_measured_after_scaling(self):
        # ||v|| overflows, v - U U^T v does not: unscaled, the row read 0.0
        v = np.array([1.5e308, 1.5e308])
        u = axis_span(2, [0])
        assert residual(v, u) == residual(np.ldexp(v, -1024), u)
        assert residual(v, u) == pytest.approx(2**-0.5, rel=1e-15)

    def test_overflowing_projection_is_measured_after_scaling(self):
        # v in span(u) is finite, but ||v|| and U^T v overflow: unscaled,
        # inf - inf made the row NaN
        u = np.full((2, 1), np.sqrt(0.5))
        v = np.full(2, 1.3e308)
        assert residual(v, u) == residual(np.ldexp(v, -1024), u)
        assert 0.0 <= residual(v, u) < 1e-15

    def test_non_finite_vector_or_basis_gives_nan_without_warning(self):
        u = axis_span(2, [0])
        vectors = np.array([[np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308]])
        bases = np.stack([u, u, np.full((2, 1), np.nan)])
        nan = np.full((2, 1), np.nan)
        for path, first_two in (
            (frame_pieces(bases), frame_pieces(bases[:2])),
            ((GeodesicPiece.point(0, 3, nan),), (GeodesicPiece.point(0, 2, nan),)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(span_membership_residual(vectors, path)).all()
                assert np.isnan(span_membership_residual(vectors[:2], first_two)).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=3, max_value=12),
)
def test_property_distance_bounded_by_sqrt_rank(seed: int, n: int):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    a = random_point(rng, n, r)
    b = random_point(rng, n, r)
    d = projection_distance(a, b)
    assert 0.0 <= d <= np.sqrt(r) + 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_property_orthonormalize_gives_valid_point(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    r = int(rng.integers(1, n))
    m = rng.standard_normal((n, r))
    point = orthonormalize(m)
    assert np.allclose(point.T @ point, np.eye(r), atol=1e-10)
    # every original column is inside the recovered span
    for j in range(r):
        assert residual(m[:, j], point) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=200),
    r=st.integers(min_value=1, max_value=16),
)
def test_property_orthonormalize_matches_lapack_pivoted_qr(seed: int, n: int, r: int):
    # LAPACK's dgeqp3 through scipy, with the same sign fix and
    # un-permutation: the numpy pivot loop must pick the same columns and
    # round to the same basis.
    r = min(r, n - 1)
    m = np.random.default_rng(seed).standard_normal((n, r))
    q, upper, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    expected = np.empty_like(q)
    expected[:, piv] = q * np.where(np.diag(upper) < 0.0, -1.0, 1.0)
    # Two backward-stable QRs differ by up to about eps * cond(m); the
    # bound is 1e-14 absolute up to cond 10 and grows with cond beyond.
    tol = 1e-14 * max(1.0, np.linalg.cond(m) / 10.0)
    assert np.abs(orthonormalize(m) - expected).max() <= tol


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=12),
    kind=st.sampled_from(["same", "rotated", "near", "random", "orthogonal"]),
)
def test_property_principal_angles_are_sorted_radians_in_range(seed: int, n: int, kind: str):
    # equal spans (cosines may round past 1), near ones, random ones and
    # orthogonal ones (cosines near 0): r finite angles in [0, pi/2], nondecreasing
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    a = random_point(rng, n, r)
    g = rng.standard_normal((n, r))
    if kind == "same":
        b = a
    elif kind == "rotated":
        b = a @ np.linalg.qr(rng.standard_normal((r, r)))[0]
    elif kind == "near":
        b = orthonormalize(a + 1e-9 * g)
    elif kind == "orthogonal" and 2 * r <= n:
        b = orthonormalize(g - a @ (a.T @ g))
    else:
        b = orthonormalize(g)
    angles = principal_angles(a, b)
    assert angles.shape == (r,)
    assert np.isfinite(angles).all()
    assert np.all((angles >= 0.0) & (angles <= np.pi / 2))
    assert np.all(np.diff(angles) >= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    s=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_property_geodesic_interpolates_the_metric(seed: int, s: float):
    rng = np.random.default_rng(seed)
    a = random_point(rng, 8, 2)
    b = random_point(rng, 8, 2)
    try:
        point = point_at(a, b, s)
    except DegenerateGeodesic:
        return
    total = projection_distance(a, b)
    assert projection_distance(a, point) <= total + 1e-9
    assert projection_distance(point, b) <= total + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=70),
    length=st.integers(min_value=1, max_value=40),
    scale=st.integers(min_value=-1000, max_value=1000),
    inside=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    rows=st.none(),
)
# a point piece of 40 frames in chunks of 3
@example(seed=5, n=9, length=40, scale=0, inside=0.5, rows=3)
def test_property_one_basis_residual_is_the_per_frame_residual(
    seed, n, length, scale, inside, rows
):
    # one point piece takes (V U) U^T for a chunk of frames at once; each
    # value may round differently from the one-frame pieces' products, by a
    # few units of the last bit of a value in [0, 1] (plus what underflow
    # loses next to the vector's norm)
    rng = np.random.default_rng(seed)
    basis = orthonormalize(rng.standard_normal((n, rng.integers(1, n))))
    vectors = basis @ rng.standard_normal((basis.shape[1], length))
    vectors = vectors.T + (1.0 - inside) * rng.standard_normal((length, n))
    vectors = np.ldexp(vectors, scale)
    vectors[rng.random(length) < 0.1] = 0.0
    with chunk_rows(rows, n):
        got = span_membership_residual(vectors, (GeodesicPiece.point(0, length, basis),))
    want = span_membership_residual(vectors, frame_pieces([basis] * length))
    norms = np.linalg.norm(np.ldexp(vectors, -scale), axis=1) * 2.0**scale
    floor = np.divide(n * 2.0**-1070, norms, out=np.zeros(length), where=norms > 0.0)
    assert np.all(np.abs(got - want) <= 8 * n * 2.0**-53 + floor)
    assert np.all((got >= 0.0) & (got <= 1.0))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=12),
    length=st.integers(min_value=1, max_value=8),
    exponent=st.integers(min_value=0, max_value=1023),
    path=st.sampled_from(["static", "per-frame", "geodesic"]),
)
def test_property_residual_is_the_same_at_any_scale(seed, n, length, exponent, path):
    # scaling v by 2**e leaves its residual as it is, bit for bit, also
    # where ||v||, U^T v or v - U U^T v overflow and the row is measured
    # again, against one basis for every frame, a basis per frame, or a
    # point and a geodesic piece
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    if path == "static":
        bases = (GeodesicPiece.point(0, length, random_point(rng, n, r)),)
    elif path == "per-frame":
        bases = frame_pieces(np.stack([random_point(rng, n, r) for _ in range(length)]))
    else:
        try:
            bases = geodesic_path(rng, n, r, length)
        except DegenerateGeodesic:
            assume(False)
    vectors = rng.uniform(0.5, 2.0, (length, n)) * rng.choice([-1.0, 1.0], (length, n))
    scaled = np.ldexp(vectors, exponent)
    assume(np.isfinite(scaled).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = span_membership_residual(scaled, bases)
    assert np.array_equal(got, span_membership_residual(vectors, bases))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=2, max_value=140),
    length=st.integers(min_value=2, max_value=150),
    scale=st.integers(min_value=-1000, max_value=1000),
    inside=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    rows=st.none(),
)
# a geodesic piece of 79 frames in chunks of 4
@example(seed=5, n=9, length=80, scale=0, inside=0.5, rows=4)
def test_property_piece_residual_is_the_per_frame_residual(seed, n, length, scale, inside, rows):
    # a geodesic piece takes U U^T v as p (cos * y) + g (sin * y), with
    # y = cos * p^T v + sin * g^T v, in chunks of frames; against each
    # frame's basis formed on its own, the value (relative to ||v||) may
    # round differently by at most 8 sqrt(n) r units of 2**-53 (plus what
    # underflow loses next to the vector's norm)
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, n))
    try:
        path = geodesic_path(rng, n, r, length)
    except DegenerateGeodesic:
        assume(False)
    bases = frame_bases(path)
    coefs = rng.standard_normal((length, r))
    vectors = (bases @ coefs[:, :, None])[:, :, 0]
    vectors += (1.0 - inside) * rng.standard_normal((length, n))
    vectors = np.ldexp(vectors, scale)
    vectors[rng.random(length) < 0.1] = 0.0
    with chunk_rows(rows, n):
        got = span_membership_residual(vectors, path)
    want = span_membership_residual(vectors, frame_pieces(bases))
    norms = np.linalg.norm(np.ldexp(vectors, -scale), axis=1) * 2.0**scale
    floor = np.divide(n * 2.0**-1070, norms, out=np.zeros(length), where=norms > 0.0)
    assert np.all(np.abs(got - want) <= 8 * np.sqrt(n) * r * 2.0**-53 + floor)
    assert np.all((got >= 0.0) & (got <= 1.0))
