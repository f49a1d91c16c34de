"""Subspace geometry: points on the Grassmannian of r-planes in R^n.

A subspace is represented by an orthonormal basis matrix of shape (n, r).
Distances use the projection metric

    d(U1, U2) = 2**-0.5 * ||U1 U1^T - U2 U2^T||_F

which equals sqrt(sum_i sin^2 theta_i) over the principal angles theta_i,
so the metric and the angle decomposition cross-check each other.

Tolerances are module constants; tests may monkeypatch them, production
code must not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import vector_norms
from .errors import (
    DegenerateGeodesic,
    DimensionMismatch,
    RankDeficient,
    RankMismatch,
)

__all__ = [
    "RANK_TOL",
    "ORTHONORMALITY_TOL",
    "ANGLE_DEGENERACY_MARGIN",
    "SubspacePoint",
    "orthonormalize",
    "projection_distance",
    "principal_angles",
    "geodesic_frame",
    "geodesic",
    "span_membership_residual",
    "span_residuals",
]

# Full column rank: the smallest singular value exceeds this times the largest.
RANK_TOL = 1e-12
# Allowed Frobenius deviation of basis^T basis from the identity.
ORTHONORMALITY_TOL = 1e-10
# Principal angles this close to pi/2 make the geodesic non-unique.
ANGLE_DEGENERACY_MARGIN = 1e-8

# Denominator floor for relative residuals.
_NORM_FLOOR = 1e-12
# Below this, sin(theta) is treated as zero in the geodesic construction.
_SIN_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class SubspacePoint:
    """An r-dimensional subspace of R^n, stored as an orthonormal basis.

    Attributes:
        basis: array of shape (n, r) with orthonormal columns.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        n, r = basis.shape
        if r < 1:
            raise ValueError("rank must be at least 1")
        if n <= r:
            raise ValueError(f"need ambient_dim > rank, got n={n}, r={r}")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis entries must be finite")
        gram_defect = basis.T @ basis - np.eye(r)
        if np.linalg.norm(gram_defect) > ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal")
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector U U^T onto the subspace."""
        return self.basis @ self.basis.T


def orthonormalize(m: np.ndarray) -> SubspacePoint:
    """Orthonormal basis for the column space of a full-column-rank matrix.

    Uses QR with greedy column pivoting (Businger & Golub 1965, as in
    LAPACK's dgeqp3): each step takes the column with the largest norm
    left after projecting out the columns already taken, ties going to
    the lowest index. Columns are sign-fixed (positive R diagonal) and
    returned in the original column order so that already-orthonormal
    input passes through unchanged.

    Raises:
        RankDeficient: smallest singular value of m is <= RANK_TOL x its largest.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    largest, smallest = np.linalg.svd(m, compute_uv=False)[[0, -1]]
    if smallest <= RANK_TOL * largest:
        raise RankDeficient(
            f"smallest singular value {smallest:.3e} <= {RANK_TOL:.0e} x largest {largest:.3e}"
        )
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
    q = q * signs
    out = np.empty_like(q)
    out[:, piv] = q
    return SubspacePoint(out)


def projection_distance(a: SubspacePoint, b: SubspacePoint) -> float:
    """Projection-metric distance between two subspaces.

    Ranks may differ; ambient dimensions must match.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    diff = a.projector() - b.projector()
    return float(np.linalg.norm(diff) / np.sqrt(2.0))


def principal_angles(a: SubspacePoint, b: SubspacePoint) -> np.ndarray:
    """Principal angles of two equal-rank subspaces: r ascending radians in [0, pi/2]."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    sigma = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    # Rounding can push cosines a hair outside [-1, 1]; clamp before arccos.
    sigma = np.clip(sigma, -1.0, 1.0)
    return np.sort(np.arccos(sigma))


def geodesic_frame(
    a: SubspacePoint, b: SubspacePoint
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame (p, g, theta) of the geodesic from a to b.

    Standard principal-angle construction: SVD of a^T b gives matched
    frames in both subspaces, then each principal direction rotates by
    s * theta_i inside its own 2-plane: p cos(s theta) + g sin(s theta).

    Raises:
        DegenerateGeodesic: some principal angle is >= pi/2 minus margin,
            so the connecting geodesic is not unique.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    v, sigma, wt = np.linalg.svd(a.basis.T @ b.basis)
    theta = np.arccos(np.clip(sigma, -1.0, 1.0))
    if theta.max(initial=0.0) >= np.pi / 2 - ANGLE_DEGENERACY_MARGIN:
        raise DegenerateGeodesic(
            f"max principal angle {theta.max():.6f} is too close to pi/2"
        )
    p = a.basis @ v
    q = b.basis @ wt.T
    sin_theta = np.sin(theta)
    # For near-zero angles the in-plane normal direction is numerically
    # undefined, but its coefficient sin(s * theta) vanishes with it.
    safe = np.where(sin_theta > _SIN_FLOOR, sin_theta, 1.0)
    g = np.where(sin_theta > _SIN_FLOOR, 1.0, 0.0) * (q - p * np.cos(theta)) / safe
    return p, g, theta


def geodesic(a: SubspacePoint, b: SubspacePoint, s: float) -> SubspacePoint:
    """Point at parameter s in [0, 1] on the geodesic from a to b; s = 0 and 1 give a and b.

    Raises DegenerateGeodesic as geodesic_frame does.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    p, g, theta = geodesic_frame(a, b)
    if s == 0.0:
        return a
    if s == 1.0:
        return b
    return SubspacePoint(p * np.cos(s * theta) + g * np.sin(s * theta))


def span_membership_residual(v: np.ndarray, u: SubspacePoint) -> float:
    """Relative distance of a vector from a subspace, in [0, 1].

    Defined as ||v - U U^T v|| / max(||v||, 1e-12).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if v.shape[0] != u.ambient_dim:
        raise DimensionMismatch(
            f"vector dim {v.shape[0]} vs ambient dim {u.ambient_dim}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return float(span_residuals(v[None], u.basis[None])[0])


def span_residuals(vectors: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """span_membership_residual of T vectors (T, n) against T bases (T, n, r)."""
    coords = np.swapaxes(bases, 1, 2) @ vectors[:, :, None]
    leftover = vectors - (bases @ coords)[:, :, 0]
    value = vector_norms(leftover) / np.maximum(vector_norms(vectors), _NORM_FLOOR)
    return np.minimum(value, 1.0)
