"""Synthetic subspace trajectories with controlled corruption.

Ground truth is a piecewise geodesic through seeded random subspaces,
each a read-only n x r orthonormal basis array (sample_waypoints).
The trajectory advances at a constant arc rate of speed * D / T per
frame, where D is the largest pairwise waypoint distance, so consecutive
truth subspaces are never farther apart than that step (chord length is
bounded by arc length). Clean states are unit vectors inside the current
subspace whose coefficients optionally follow a slow seeded random walk
(state_drift per frame; 0 freezes them).

generate_scenario builds the Scenario arrays whole: each geodesic
segment's frame (grassmann.geodesic) is computed once and evaluated at
all of its frames, each run of frames on one segment or waypoint is
aligned by a single rotation (see _truth_bases), and every check runs
once over the arrays.

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

from .affinity import _SCALED_NORM_BELOW, vector_norms
from .errors import DegenerateGeodesic, DimensionMismatch, InvalidScenario, RankDeficient
from .grassmann import (
    ANGLE_DEGENERACY_MARGIN,
    ORTHONORMALITY_TOL,
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
# Frames of one piece evaluated per array pass; bounds the temporaries.
_PIECE_CHUNK = 64


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
        # The T x n x r float64 truth bases are the largest generated array.
        if self.length * self.n * self.r * 8 > np.iinfo(np.intp).max:
            raise ValueError("length x n x r bases exceed the largest array numpy can index")
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
    """A generated scenario as read-only arrays, one row per frame.

    Attributes:
        clean: T x n clean states, each inside its truth subspace.
        noisy: T x n observed states; the clean array itself when sigma is 0.
        bases: T x n x r orthonormal truth bases; a broadcast view of one
            basis when the subspace is static.
    """

    clean: np.ndarray
    noisy: np.ndarray
    bases: np.ndarray


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


def _truth_bases(config: TrajectoryConfig) -> np.ndarray:
    """T x n x r truth bases along the waypoint path, each aligned onto its predecessor.

    Geodesic bases carry an arbitrary r x r rotation that jumps between
    segments. Rotating each basis onto its predecessor (orthogonal
    Procrustes) removes the jumps, so states U_t @ c move no faster than
    the subspace itself; spans are untouched. Frames split into pieces,
    runs on one waypoint or inside one segment, contiguous because the
    position is monotone. Inside a segment B(s)^T B(s') is
    diag(cos((s - s') theta)), positive definite as theta < pi/2, so its
    Procrustes rotation (polar factor) is I: the rotation of a piece's
    first frame is the per-frame rotation of every frame in it.
    """
    waypoints = sample_waypoints(config)
    if config.speed == 0.0 or config.length == 1:
        return np.broadcast_to(waypoints[0], (config.length, config.n, config.r))
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
    # Each segment's frame, transposed: a chunk evaluates as (m, r, n), long axis innermost.
    frames = {}
    for s in sorted(set(seg[inside].tolist())):
        p, g, theta = geodesic(waypoints[s], waypoints[s + 1])
        frames[s] = np.ascontiguousarray(p.T), np.ascontiguousarray(g.T), theta[:, None]
    piece = np.where(on_waypoint >= 0, 2 * on_waypoint, 2 * seg + 1)
    starts = np.flatnonzero(np.diff(piece, prepend=-1))
    bases = np.empty((config.length, config.n, config.r))
    for a, b in zip(starts, [*starts[1:], config.length]):
        for c in range(a, b, _PIECE_CHUNK):
            d = min(c + _PIECE_CHUNK, b)
            if on_waypoint[a] >= 0:
                raw = waypoints[on_waypoint[a]][None]
            else:
                pt, gt, theta = frames[seg[a]]
                angles = local[c:d, None, None] * theta
                raw = np.swapaxes(pt * np.cos(angles) + gt * np.sin(angles), 1, 2)
            if a == 0:
                bases[c:d] = raw
                continue
            if c == a:
                # the product rounds by its operands' memory order: take it
                # from an (n, r) C-ordered basis, as for a single frame
                v, _, wt = np.linalg.svd(np.ascontiguousarray(raw[0]).T @ bases[a - 1])
                rot = v @ wt
            bases[c:d] = raw @ rot
    return bases


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


def _clean_states(bases: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """Unit-norm states in each frame's subspace: the walk's rows, the last one held to the end."""
    coefs = np.empty((len(bases), walk.shape[1]))
    coefs[: len(walk)] = walk
    coefs[len(walk) :] = walk[-1]
    return (bases @ coefs[:, :, None])[:, :, 0]


def _noisy_states(config: TrajectoryConfig, noise: NoiseModel, clean: np.ndarray) -> np.ndarray:
    """Frame t is clean_t + sigma * g_t, or the walk's clean_t + sigma * sum_{i <= t} g_i."""
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
        return clean + scale[:, None] * draws


def _checked(clean: np.ndarray, noisy: np.ndarray, bases: np.ndarray) -> Scenario:
    """The arrays as a read-only Scenario, after every check the generator promises."""
    if noisy.shape != clean.shape or bases.shape[:2] != clean.shape:
        raise DimensionMismatch(
            f"clean {clean.shape}, noisy {noisy.shape} and bases {bases.shape} do not match"
        )
    # a static subspace is one basis broadcast over the frames: check it once
    distinct = bases[:1] if bases.strides[0] == 0 else bases
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.swapaxes(distinct, 1, 2) @ distinct - np.eye(bases.shape[2])
        bad_bases = ~np.isfinite(distinct).all(axis=(1, 2)) | (
            np.linalg.norm(defect, axis=(1, 2)) > ORTHONORMALITY_TOL
        )
        bad_bases = np.broadcast_to(bad_bases, bases.shape[:1])
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
    for array in (clean, noisy, bases):
        array.flags.writeable = False
    return Scenario(clean, noisy, bases)


def generate_scenario(
    config: TrajectoryConfig, noise: NoiseModel, walk: np.ndarray | None = None
) -> Scenario:
    """Full scenario: truth bases, clean states, corrupted states.

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
    bases = _truth_bases(config)
    if walk is None:
        walk = _walks(config, [config.seed])[0]
    clean = _clean_states(bases, walk)
    return _checked(clean, _noisy_states(config, noise, clean), bases)
