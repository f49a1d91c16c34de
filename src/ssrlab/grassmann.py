"""Subspace geometry on plain arrays: points on the Grassmannian of r-planes in R^n.

A subspace is an orthonormal basis matrix of shape (n, r), 1 <= r < n,
as orthonormalize returns it; every function here takes such arrays
(Edelman, Arias & Smith 1998). Distances use the projection metric

    d(U1, U2) = 2**-0.5 * ||U1 U1^T - U2 U2^T||_F

which equals sqrt(sum_i sin^2 theta_i) over the principal angles theta_i,
so the metric and the angle decomposition cross-check each other.

A path of subspaces, one per frame, is a sequence of GeodesicPieces:
runs of frames on one geodesic, each held by its factors rather than by
a basis per frame; a point is a geodesic that does not move.

Tolerances are module constants; tests may monkeypatch them, production
code must not.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .affinity import _CHUNK_ENTRIES, vector_norms
from .errors import (
    DegenerateGeodesic,
    DimensionMismatch,
    RankDeficient,
    RankMismatch,
)

__all__ = [
    "ORTHONORMALITY_TOL",
    "ANGLE_DEGENERACY_MARGIN",
    "orthonormalize",
    "projection_distance",
    "principal_angles",
    "geodesic",
    "GeodesicPiece",
    "span_membership_residual",
]

# Full column rank: the smallest singular value exceeds this times the largest.
RANK_TOL = 1e-12
# Allowed Frobenius deviation of basis^T basis from the identity.
ORTHONORMALITY_TOL = 1e-10
# Principal angles this close to pi/2 make the geodesic non-unique.
ANGLE_DEGENERACY_MARGIN = 1e-8

# Below this, sin(theta) is treated as zero in the geodesic construction.
_SIN_FLOOR = 1e-12


class GeodesicPiece(NamedTuple):
    """Frames start .. stop - 1 of a path of r-planes in R^n, on one geodesic.

    basis is [m_1 .. m_j], n x jr, and cos_sin[t - start] a (j, r) array:
    frame t's basis is (m_1 K_1 + ... + m_j K_j) @ rotation, with K_i the
    diagonal matrix of its row i and rotation an r x r orthogonal matrix.
    On the geodesic (p, g, theta) that geodesic returns, j = 2: basis is
    [p g] and the rows are cos(s_t theta) and sin(s_t theta), for frame t
    at position s_t. On a point (GeodesicPiece.point), j = 1: the rows are ones.
    """

    start: int
    stop: int
    basis: np.ndarray
    cos_sin: np.ndarray
    rotation: np.ndarray

    @classmethod
    def point(cls, start: int, stop: int, basis: np.ndarray) -> GeodesicPiece:
        """Frames start .. stop - 1 on basis: cos_sin a read-only broadcast of ones, rotation I."""
        r = basis.shape[1]
        return cls(start, stop, basis, np.broadcast_to(1.0, (stop - start, 1, r)), np.eye(r))


def orthonormalize(m: np.ndarray) -> np.ndarray:
    """Read-only orthonormal (n, r) basis for the column space of a full-column-rank matrix.

    Uses QR with greedy column pivoting (Businger & Golub 1965, as in
    LAPACK's dgeqp3): each step takes the column with the largest norm
    left after projecting out the columns already taken, ties going to
    the lowest index. m is first scaled by the power of two just above
    its largest |entry|: the scaling is exact, so the basis does not
    depend on the scale, and no squared column norm can overflow or
    underflow. Columns are sign-fixed (positive R diagonal) and returned
    in the original column order so that already-orthonormal input
    passes through unchanged.

    Raises:
        ValueError: m is not a finite (n, r) matrix with 1 <= r < n.
        RankDeficient: smallest singular value of m is <= RANK_TOL x its largest.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or not 1 <= m.shape[1] < m.shape[0]:
        raise ValueError(f"expected an n x r matrix with 1 <= r < n, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    largest, smallest = np.linalg.svd(m, compute_uv=False)[[0, -1]]
    if smallest <= RANK_TOL * largest:
        raise RankDeficient(
            f"smallest singular value {smallest:.3e} <= {RANK_TOL:.0e} x largest {largest:.3e}"
        )
    m = np.ldexp(m, -np.frexp(np.abs(m).max())[1])
    rest, piv = m.copy(), []
    for _ in range(m.shape[1]):
        norms = np.einsum("ij,ij->j", rest, rest)
        norms[piv] = -1.0
        piv.append(int(np.argmax(norms)))
        unit = rest[:, piv[-1]] / np.sqrt(norms[piv[-1]])
        rest -= np.outer(unit, unit @ rest)
    q, r = np.linalg.qr(m[:, piv])
    # LAPACK leaves the sign of each Householder column arbitrary.
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    out = np.empty_like(q)
    out[:, piv] = q * signs
    out.flags.writeable = False
    return out


def _check_pair(a: np.ndarray, b: np.ndarray, same_rank: bool = True) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"ambient dims differ: {a.shape[0]} vs {b.shape[0]}")
    if same_rank and a.shape[1] != b.shape[1]:
        raise RankMismatch(f"ranks differ: {a.shape[1]} vs {b.shape[1]}")


def projection_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Projection-metric distance between two subspaces.

    Ranks may differ; ambient dimensions must match.
    """
    _check_pair(a, b, same_rank=False)
    return float(np.linalg.norm(a @ a.T - b @ b.T) / np.sqrt(2.0))


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles of two equal-rank subspaces: r ascending radians in [0, pi/2]."""
    _check_pair(a, b)
    sigma = np.linalg.svd(a.T @ b, compute_uv=False)
    # Rounding can push cosines a hair outside [-1, 1]; clamp before arccos.
    sigma = np.clip(sigma, -1.0, 1.0)
    return np.sort(np.arccos(sigma))


def geodesic(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame (p, g, theta) of the geodesic from a to b.

    Standard principal-angle construction: SVD of a^T b gives matched
    frames in both subspaces, then each principal direction rotates by
    s * theta_i inside its own 2-plane, so p cos(s theta) + g sin(s theta)
    is an orthonormal basis of the point at s in [0, 1], spanning a at
    s = 0 and b at s = 1.

    Raises:
        DegenerateGeodesic: some principal angle is >= pi/2 minus margin,
            so the connecting geodesic is not unique.
    """
    _check_pair(a, b)
    v, sigma, wt = np.linalg.svd(a.T @ b)
    theta = np.arccos(np.clip(sigma, -1.0, 1.0))
    if theta.max(initial=0.0) >= np.pi / 2 - ANGLE_DEGENERACY_MARGIN:
        raise DegenerateGeodesic(
            f"max principal angle {theta.max():.6f} is too close to pi/2"
        )
    p = a @ v
    q = b @ wt.T
    sin_theta = np.sin(theta)
    # For near-zero angles the in-plane normal direction is numerically
    # undefined, but its coefficient sin(s * theta) vanishes with it.
    safe = np.where(sin_theta > _SIN_FLOOR, sin_theta, 1.0)
    g = np.where(sin_theta > _SIN_FLOOR, 1.0, 0.0) * (q - p * np.cos(theta)) / safe
    return p, g, theta


def span_membership_residual(vectors: np.ndarray, bases: Sequence[GeodesicPiece]) -> np.ndarray:
    """Relative distance of T vectors (T, n) from a path of T subspaces, each in [0, 1].

    bases is a path: GeodesicPieces covering frames 0 .. T - 1 in order.
    Row t is ||v - U U^T v|| / ||v|| for v = vectors[t] and U frame t's
    basis; an exact zero vector gives 0. The rotation drops out: U U^T v is
    p (cos * y) + g (sin * y), y = cos * p^T v + sin * g^T v, on a geodesic
    and (v^T U) U^T on a point, taken affinity._CHUNK_ENTRIES // n frames
    at a time as products with the piece's basis. These round differently
    from per-frame products with formed bases, within a bound that scales
    with the data. A finite vector whose norm or leftover v - U U^T v is
    not finite is measured once more, after exact scaling by the power of
    two just above its largest |entry|, as in affinity.vector_norms: a row
    is NaN only where its vector or basis is not finite, and no overflow
    warns.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        leftover, norms = _span_norms(vectors, bases)
        redo = ~(np.isfinite(leftover) & np.isfinite(norms))
        if redo.any():
            redo &= np.isfinite(vectors).all(axis=1)  # a non-finite vector stays NaN
            rows = vectors[redo]
            scaled = np.array(vectors)
            scaled[redo] = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])
            again, scaled_norms = _span_norms(scaled, bases)
            leftover[redo], norms[redo] = again[redo], scaled_norms[redo]
    return np.minimum(leftover / np.where(norms > 0.0, norms, 1.0), 1.0)


def _span_norms(
    vectors: np.ndarray, bases: Sequence[GeodesicPiece]
) -> tuple[np.ndarray, np.ndarray]:
    """The norms of v - U U^T v and of v, row by row, along a path of pieces."""
    leftover = np.empty(len(vectors))
    step = max(1, _CHUNK_ENTRIES // vectors.shape[1])
    for piece in bases:
        a, b, basis = piece.start, piece.stop, piece.basis
        for c in range(a, b, step):
            d = min(c + step, b)
            v, cos_sin = vectors[c:d], piece.cos_sin[c - a : d - a]
            y = ((v @ basis).reshape(cos_sin.shape) * cos_sin).sum(axis=1)
            leftover[c:d] = vector_norms(v - (cos_sin * y[:, None]).reshape(d - c, -1) @ basis.T)
    return leftover, vector_norms(vectors)
