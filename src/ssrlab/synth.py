"""Synthetic subspace trajectories with controlled corruption.

Ground truth is a piecewise geodesic through seeded random subspaces,
each a read-only n x r orthonormal basis array (sample_waypoints).
The trajectory advances at a constant arc rate of speed * D / T per
frame, where D is the largest pairwise waypoint distance, so consecutive
truth subspaces are never farther apart than that step (chord length is
bounded by arc length). Clean states are unit vectors inside the current
subspace whose coefficients optionally follow a slow seeded random walk
(state_drift per frame; 0 freezes them).

generate_scenario holds the truth path as pieces, not as a basis per
frame: each run of frames on one waypoint or inside one segment is one
grassmann.GeodesicPiece, aligned by a single rotation (see _truth_path),
with the segment's geodesic frame (grassmann.geodesic) computed once. The
clean states and the checks take a few products per chunk of
affinity._CHUNK_ENTRIES // n frames of a piece, and orthonormality is
checked once per piece (see _checked).

All randomness comes from counter-based Philox streams keyed by
(seed, stream, frame), so frame i's draws do not depend on the sequence
length and extending a scenario never perturbs its prefix (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011). One generator
per (seed, stream) is reseeked to each frame's substream by setting its
state from plain Python ints, which the Philox setter reads faster than
uint64 arrays. Every frame's draws are taken first, each filling its row
of one array; only the coefficient walk then steps frame by frame, for
every scenario of a block together (coefficient_walks: the runners step
all their trials' walks at once, generate_scenario alone a block of one),
each row bit for bit its one-scenario walk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affinity import _CHUNK_ENTRIES, _SCALED_NORM_BELOW, vector_norms
from .errors import DegenerateGeodesic, DimensionMismatch, InvalidScenario, RankDeficient
from .grassmann import (
    ANGLE_DEGENERACY_MARGIN,
    ORTHONORMALITY_TOL,
    GeodesicPiece,
    geodesic,
    orthonormalize,
    principal_angles,
    projection_distance,
    span_membership_residual,
)

__all__ = [
    "NOISE_KINDS",
    "WAYPOINT_ATTEMPTS",
    "TrajectoryConfig",
    "NoiseModel",
    "Scenario",
    "generate_scenario",
    "coefficient_walks",
    "derive_trial_seed",
]

NOISE_GAUSSIAN = "gaussian-iid"
NOISE_DRIFT_WALK = "drift-random-walk"
NOISE_BURST = "burst"
NOISE_KINDS = frozenset({NOISE_GAUSSIAN, NOISE_DRIFT_WALK, NOISE_BURST})

# Clean states must lie in their truth subspace within this residual.
MEMBERSHIP_TOL = 1e-9
# Waypoint sets are redrawn at most this many times before giving up.
WAYPOINT_ATTEMPTS = 8

_SEED_LIMIT = 2**64
# Philox stream ids; each (seed, stream, frame) triple is one substream.
_STREAM_WAYPOINTS = 0
_STREAM_CLEAN = 1
_STREAM_NOISE = 2
_STREAM_BURST = 3
# Counter stride between frames, in 64-bit outputs.
_FRAME_STRIDE = 1 << 32


@dataclass(frozen=True)
class TrajectoryConfig:
    """Shape of one synthetic run.

    Attributes:
        n: ambient dimension.
        r: subspace rank, 1 <= r < n.
        length: number of frames T >= 1.
        seed: uint64 scenario seed.
        speed: total arc traversed over the run, as a fraction of the
            largest pairwise waypoint distance; 0 freezes the subspace.
        waypoint_count: number of random waypoints (>= 2).
        state_drift: per-frame step of the clean-state coefficient walk
            inside the current subspace; 0 freezes the coefficients.
    """

    n: int
    r: int
    length: int
    seed: int
    speed: float = 0.0
    waypoint_count: int = 2
    state_drift: float = 0.0

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.n <= self.r:
            raise ValueError(f"need n > r, got n={self.n}, r={self.r}")
        if self.length < 1:
            raise ValueError("length must be at least 1")
        # The T x n float64 states are the largest generated arrays.
        if self.length * self.n * 8 > np.iinfo(np.intp).max:
            raise ValueError("length x n states exceed the largest array numpy can index")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must fit in uint64")
        if not (np.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError("speed must be finite and nonnegative")
        if self.waypoint_count < 2:
            raise ValueError("waypoint_count must be at least 2")
        if not (np.isfinite(self.state_drift) and self.state_drift >= 0.0):
            raise ValueError("state_drift must be finite and nonnegative")


@dataclass(frozen=True)
class NoiseModel:
    """Additive corruption applied to clean states.

    kind "gaussian-iid" adds sigma * N(0, I) per frame,
    "drift-random-walk" adds the running sum of such draws, and "burst"
    rescales a frame's draw by burst_scale with probability burst_prob.
    """

    kind: str = NOISE_GAUSSIAN
    sigma: float = 0.0
    burst_prob: float = 0.0
    burst_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ValueError("burst_prob must lie in [0, 1]")
        if not (np.isfinite(self.burst_scale) and self.burst_scale >= 0.0):
            raise ValueError("burst_scale must be finite and nonnegative")


class Scenario(NamedTuple):
    """A generated scenario: read-only arrays, one row per frame, and its truth path.

    Attributes:
        clean: T x n clean states, each inside its truth subspace.
        noisy: T x n observed states; the clean array itself when sigma is 0.
        bases: the T frames' orthonormal truth bases as a tuple of
            grassmann.GeodesicPiece, their arrays read-only: one point
            piece when the subspace is static, else the runs of frames on
            one waypoint or inside one segment. No T x n x r array is
            formed; span_membership_residual reads the pieces.
    """

    clean: np.ndarray
    noisy: np.ndarray
    bases: tuple[GeodesicPiece, ...]


def _substreams(seed: int, stream: int, frames: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, moved to each frame's (seed, stream, frame) substream in turn.

    Setting counter word 0 to frame * 2**32 with an empty buffer leaves
    the generator exactly as advance(frame * 2**32) leaves a fresh one.
    The state is plain ints and lists, not uint64 arrays: the setter reads
    those about 2.5x faster.
    """
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    rng = np.random.Generator(bits)
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": bits.state["state"]["key"].tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for frame in frames:
        counter[0] = frame * _FRAME_STRIDE
        bits.state = state
        yield rng


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Stable per-trial scenario seed from a base seed and trial index."""
    if not 0 <= base_seed < _SEED_LIMIT:
        raise ValueError("seed must fit in uint64")
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial,))
    return int(seq.generate_state(1, np.uint64)[0])


def sample_waypoints(config: TrajectoryConfig) -> list[np.ndarray]:
    """Seeded random waypoints as read-only n x r bases; adjacent pairs admit a unique geodesic.

    Redraws the whole set up to WAYPOINT_ATTEMPTS times when an adjacent
    pair comes within the degeneracy margin of pi/2, then raises
    DegenerateGeodesic.
    """
    for attempt in range(WAYPOINT_ATTEMPTS):
        first = attempt << 20
        indices = range(first, first + config.waypoint_count)
        points: list[np.ndarray] = []
        try:
            for rng in _substreams(config.seed, _STREAM_WAYPOINTS, indices):
                points.append(orthonormalize(rng.standard_normal((config.n, config.r))))
        except RankDeficient:
            continue
        if all(
            principal_angles(a, b)[-1] < np.pi / 2 - ANGLE_DEGENERACY_MARGIN
            for a, b in zip(points, points[1:])
        ):
            return points
    raise DegenerateGeodesic(
        f"no usable waypoint set after {WAYPOINT_ATTEMPTS} attempts"
    )


def _truth_path(config: TrajectoryConfig) -> tuple[GeodesicPiece, ...]:
    """The truth subspaces along the waypoint path as pieces, each rotated onto its predecessor.

    Geodesic bases carry an arbitrary r x r rotation that jumps between
    segments. Rotating each basis onto its predecessor (orthogonal
    Procrustes) removes the jumps, so states U_t @ c move no faster than
    the subspace itself; spans are untouched. Frames split into pieces,
    runs on one waypoint or inside one segment, contiguous because the
    position is monotone. Inside a segment B(s)^T B(s') is
    diag(cos((s - s') theta)), positive definite as theta < pi/2, so its
    Procrustes rotation (polar factor) is I: the rotation of a piece's
    first frame, from the SVD of B_first^T B_last of the previous piece,
    is the per-frame rotation of every frame in it. A waypoint piece is a
    point piece, a segment piece the segment's geodesic frame and the cos
    and sin of its frames' angles, each with its rotation (I on the
    first). Of a piece, only the first and last frame's bases are formed.
    """
    waypoints = sample_waypoints(config)
    if config.speed == 0.0 or config.length == 1:
        return (GeodesicPiece.point(0, config.length, waypoints[0]),)
    max_dist = max(
        projection_distance(a, b)
        for i, a in enumerate(waypoints)
        for b in waypoints[i + 1:]
    )
    # Arc length of each segment in the principal-angle metric; chord
    # length never exceeds it, which is what bounds the per-frame step.
    seg_arcs = [
        float(np.linalg.norm(principal_angles(a, b)))
        for a, b in zip(waypoints, waypoints[1:])
    ]
    cum = np.concatenate([[0.0], np.cumsum(seg_arcs)])
    total = float(cum[-1])
    # An overflowing step would make 0 * inf NaN at frame 0; any step
    # past the path length already puts frame 1 on the last waypoint.
    step = min(config.speed * max_dist / config.length, total)
    position = np.minimum(np.arange(config.length) * step, total)
    inside = (position > 0.0) & (position < total)
    # Inside the path cum[seg] <= position < cum[seg + 1], so the arc is positive.
    seg = np.searchsorted(cum, position, side="right") - 1
    local = np.zeros(config.length)
    local[inside] = np.clip(
        (position[inside] - cum[seg[inside]]) / np.array(seg_arcs)[seg[inside]], 0.0, 1.0
    )
    # The waypoint each frame sits on, or -1 for a point inside a segment;
    # a geodesic's endpoints are its waypoints themselves.
    on_waypoint = np.select(
        [position <= 0.0, position >= total, local == 0.0, local == 1.0],
        [0, len(seg_arcs), seg, seg + 1],
        default=-1,
    )
    piece = np.where(on_waypoint >= 0, 2 * on_waypoint, 2 * seg + 1)
    starts = np.flatnonzero(np.diff(piece, prepend=-1)).tolist()
    # frame 0 sits on the first waypoint, so every segment piece has a predecessor
    path: list[GeodesicPiece] = []
    for a, b in zip(starts, [*starts[1:], config.length]):
        if on_waypoint[a] >= 0:
            piece = GeodesicPiece.point(a, b, waypoints[on_waypoint[a]])
        else:
            p, g, theta = geodesic(waypoints[seg[a]], waypoints[seg[a] + 1])
            angles = local[a:b, None] * theta
            cos_sin = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            piece = GeodesicPiece(a, b, np.concatenate([p, g], axis=1), cos_sin, np.eye(config.r))
        # a frame's basis before its rotation: m_1 K_1 + ... + m_j K_j
        frames = piece.basis.reshape(config.n, -1, config.r) * piece.cos_sin[[0, -1], None]
        first, final = frames.sum(axis=2)
        if path:
            v, _, wt = np.linalg.svd(first.T @ last)
            piece = piece._replace(rotation=v @ wt)
        last = final @ piece.rotation
        path.append(piece)
    return tuple(path)


def _walks(config: TrajectoryConfig, seeds: Sequence[int]) -> np.ndarray:
    """(B, W, r) unit coefficient walks of the scenarios seeded by seeds, stepped together.

    W is T with a coefficient walk (state_drift > 0), else 1. Every row of
    every walk is drawn first; then each step takes all B rows at once.
    The squared norms are the batched (1, r) @ (r, 1) products, each the
    dot product x.dot(x) (np.linalg.norm's own sum for a 1-D vector) bit
    for bit. A row whose step or squares overflow is rescaled exactly by a
    power of two, and a row whose squares overflow or underflow is
    measured again by vector_norms, each row on its own, so every row is
    its one-scenario walk bit for bit.
    """
    drawn = config.length if config.state_drift > 0.0 else 1
    draws = np.empty((len(seeds), drawn, config.r))
    for seed, rows in zip(seeds, draws):
        for row, rng in zip(rows, _substreams(seed, _STREAM_CLEAN, range(drawn))):
            rng.standard_normal(out=row)
    walks = np.empty_like(draws)
    coef = np.zeros((len(seeds), config.r))
    coef[:, 0] = 1.0  # kept where the first draw is exactly zero
    drift = config.state_drift
    with np.errstate(over="ignore"):
        steps = drift * draws
        for t in range(drawn):
            stepped = draws[:, 0] if t == 0 else coef + steps[:, t]
            norms = np.sqrt((stepped[:, None, :] @ stepped[:, :, None])[:, 0, 0])
            low, high = norms.min(initial=np.inf), norms.max(initial=0.0)
            if not (low >= _SCALED_NORM_BELOW and high < np.inf):  # NaN fails both
                for b in np.flatnonzero(~((norms >= _SCALED_NORM_BELOW) & (norms < np.inf))):
                    if t > 0 and norms[b] == np.inf:
                        # the step or its squares overflow: rescale it exactly by a power of two
                        shift = -np.frexp(drift)[1]
                        stepped[b] = np.ldexp(coef[b], shift) + np.ldexp(drift, shift) * draws[b, t]
                        norms[b] = np.linalg.norm(stepped[b])
                    if not _SCALED_NORM_BELOW <= norms[b] < np.inf:
                        # squares overflow or underflow: measure again, scaling with the step
                        norms[b] = vector_norms(stepped[b])
            np.divide(stepped, norms[:, None], out=coef, where=norms[:, None] > 0.0)
            walks[:, t] = coef
    return walks


def coefficient_walks(config: TrajectoryConfig, trials: Sequence[int]) -> np.ndarray:
    """The coefficient walks of config's trials, stepped together, as a (B, W, r) array.

    Row i is the walk that generate_scenario takes for the scenario of
    seed derive_trial_seed(config.seed, trials[i]); W is config.length
    with a coefficient walk (state_drift > 0), else 1. Both runners step
    their trials' walks in blocks of this call.
    """
    return _walks(config, [derive_trial_seed(config.seed, trial) for trial in trials])


def _clean_states(bases: Sequence[GeodesicPiece], walk: np.ndarray) -> np.ndarray:
    """Unit-norm states in each frame's subspace: the walk's rows, the last one held to the end.

    Frame t of a piece is [m_1 .. m_j] (K_t * z_t), with z_t = rotation @ c_t,
    a batched (n, jr) @ (jr, 1) product taken affinity._CHUNK_ENTRIES // n
    frames at a time: on a geodesic p (cos_t * z_t) + g (sin_t * z_t), on
    a point under the identity rotation U c_t, bit for bit.
    """
    length, n = bases[-1].stop, bases[0].basis.shape[0]
    coefs = np.empty((length, walk.shape[1]))
    coefs[: len(walk)] = walk
    coefs[len(walk) :] = walk[-1]
    clean = np.empty((length, n))
    step = max(1, _CHUNK_ENTRIES // n)
    for piece in bases:
        a, b, basis = piece.start, piece.stop, piece.basis
        for c in range(a, b, step):
            d = min(c + step, b)
            cos_sin = piece.cos_sin[c - a : d - a]
            z = cos_sin * (coefs[c:d] @ piece.rotation.T)[:, None]
            stack = np.broadcast_to(basis, (d - c, *basis.shape))
            np.matmul(stack, z.reshape(d - c, -1, 1), out=clean[c:d, :, None])
    return clean


def _noisy_states(config: TrajectoryConfig, noise: NoiseModel, clean: np.ndarray) -> np.ndarray:
    """Frame t is clean_t + sigma * g_t, or the walk's clean_t + sigma * sum_{i <= t} g_i.

    The draws are scaled and the clean states added in place: the same two
    roundings per entry as clean + scale * draws, with no T x n temporary.
    """
    if noise.sigma == 0.0:
        return clean
    draws = np.empty_like(clean)
    for row, rng in zip(draws, _substreams(config.seed, _STREAM_NOISE, range(config.length))):
        rng.standard_normal(out=row)
    scale = np.full(config.length, noise.sigma)
    if noise.kind == NOISE_DRIFT_WALK:
        np.cumsum(draws, axis=0, out=draws)
    elif noise.kind == NOISE_BURST:
        hits = np.array(
            [rng.random() for rng in _substreams(config.seed, _STREAM_BURST, range(config.length))]
        )
        scale[hits < noise.burst_prob] = noise.sigma * noise.burst_scale
    with np.errstate(over="ignore", invalid="ignore"):
        draws *= scale[:, None]
        draws += clean
    return draws


def _piece_defect(piece: GeodesicPiece) -> float:
    """A bound on ||U_t^T U_t - I||_F over the piece's frames, as _checked derives it.

    NaN or inf where a factor is not finite.
    """
    basis, cos_sin, rotation = piece[2:]
    j, r = cos_sin.shape[1:]
    weights = np.abs(cos_sin).max(axis=0).ravel()
    d_frame = np.linalg.norm((basis.T @ basis - np.eye(j * r)) * np.outer(weights, weights))
    d_turn = np.sqrt((((cos_sin**2).sum(axis=1) - 1.0) ** 2).sum(axis=1)).max()
    d_rotation = np.linalg.norm(rotation.T @ rotation - np.eye(r))
    return float((1.0 + d_rotation) * (j * d_frame + d_turn) + d_rotation)


def _checked(clean: np.ndarray, noisy: np.ndarray, bases: Sequence[GeodesicPiece]) -> Scenario:
    """The arrays and truth path as a read-only Scenario, after every check the generator promises.

    Orthonormality is checked once per piece, and a failing piece names
    its first frame. Frame t of a piece has the basis U_t = M K_t R, with
    M = [m_1 .. m_j], K_t the jr x r stack of the diagonal matrices of
    cos_sin's rows (on a geodesic [C_t; S_t], on a point I) and R the
    rotation. Write K_t = W L_t with W = diag(w), w the largest |entry| of
    each row's column over the piece's frames, so that ||L_t||_2^2 <= j.
    With d_M = ||W (M^T M - I) W||_F, d_K the largest ||K_t^T K_t - I||_F
    (diagonal: cos^2 + sin^2 - 1, as rounded) and d_R = ||R^T R - I||_F,
    every frame of the piece has

        ||U_t^T U_t - I||_F <= (1 + d_R) (j d_M + d_K) + d_R,

    since U_t^T U_t - I = R^T (L_t^T W (M^T M - I) W L_t + K_t^T K_t - I) R
    + R^T R - I; the piece passes when that bound is at most
    ORTHONORMALITY_TOL. On a point under the identity it is exactly
    ||U^T U - I||_F. The weights let a column of g count by its sine: one
    that geodesic left zero, or whose angle is too small to fix its
    direction (where 2r > n), moves no basis. A factor that is not finite
    fails. The clean states' membership is checked through
    span_membership_residual.
    """
    stops = [piece.stop for piece in bases]
    if (
        noisy.shape != clean.shape
        or [piece.start for piece in bases] != [0, *stops[:-1]]
        or stops[-1:] != [len(clean)]
        or any(piece.basis.shape[0] != clean.shape[1] for piece in bases)
    ):
        raise DimensionMismatch(
            f"clean {clean.shape}, noisy {noisy.shape} and the truth pieces' frames"
            " and ambient dimension do not match"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        bad_bases = np.zeros(len(clean), dtype=bool)
        for piece in bases:
            bad_bases[piece.start] = not _piece_defect(piece) <= ORTHONORMALITY_TOL
        outside = span_membership_residual(clean, bases) >= MEMBERSHIP_TOL
        checks = {
            "truth basis is not finite with orthonormal columns": bad_bases,
            "clean state is not finite": ~np.isfinite(clean).all(axis=1),
            f"clean state leaves its subspace (residual >= {MEMBERSHIP_TOL:.0e})": outside,
            "noisy state is not finite": ~np.isfinite(noisy).all(axis=1),
        }
    for what, failed in checks.items():
        if failed.any():
            frame = int(np.flatnonzero(failed)[0])
            exc = InvalidScenario(f"frame {frame}: {what}")
            exc.frame = frame
            raise exc
    for array in (clean, noisy, *(a for piece in bases for a in piece[2:])):
        array.flags.writeable = False
    return Scenario(clean, noisy, tuple(bases))


def generate_scenario(
    config: TrajectoryConfig, noise: NoiseModel, walk: np.ndarray | None = None
) -> Scenario:
    """Full scenario: clean states, corrupted states, truth path.

    Frame t's noise is sigma * g_t; the drift walk adds the running sum
    sigma * sum_{i <= t} g_i instead, so its expected error norm grows
    like sqrt(t + 1). Bitwise deterministic for identical (config, noise).
    walk is this scenario's row of a coefficient_walks block; without it
    the walk is stepped here as a block of one.

    Raises:
        InvalidScenario: the first frame whose state is not finite (sigma
            or sigma * burst_scale overflows) or whose basis or clean state
            breaks its invariants.
    """
    bases = _truth_path(config)
    if walk is None:
        walk = _walks(config, [config.seed])[0]
    clean = _clean_states(bases, walk)
    return _checked(clean, _noisy_states(config, noise, clean), bases)
