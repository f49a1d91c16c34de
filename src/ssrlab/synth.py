"""Synthetic subspace trajectories with controlled corruption.

Ground truth is a piecewise geodesic through seeded random subspaces.
The trajectory advances at a constant arc rate of speed * D / T per
frame, where D is the largest pairwise waypoint distance, so consecutive
truth subspaces are never farther apart than that step (chord length is
bounded by arc length). Clean states are unit vectors inside the current
subspace whose coefficients optionally follow a slow seeded random walk
(state_drift per frame; 0 freezes them).

All randomness comes from counter-based Philox streams keyed by
(seed, stream, frame), so frame i's draws do not depend on the sequence
length and extending a scenario never perturbs its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import StateVector
from .errors import DegenerateGeodesic, RankDeficient
from .grassmann import (
    ANGLE_DEGENERACY_MARGIN,
    SubspacePoint,
    geodesic,
    orthonormalize,
    principal_angles,
    projection_distance,
    span_membership_residual,
)

__all__ = [
    "NOISE_GAUSSIAN",
    "NOISE_DRIFT_WALK",
    "NOISE_BURST",
    "NOISE_KINDS",
    "MEMBERSHIP_TOL",
    "WAYPOINT_ATTEMPTS",
    "TrajectoryConfig",
    "NoiseModel",
    "ScenarioFrame",
    "sample_waypoints",
    "generate_scenario",
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


@dataclass(frozen=True, eq=False)
class ScenarioFrame:
    """One frame: ground truth subspace, clean state, observed state."""

    clean_state: StateVector
    noisy_state: StateVector
    truth_subspace: SubspacePoint

    def __post_init__(self) -> None:
        if self.clean_state.dim != self.truth_subspace.ambient_dim:
            raise ValueError("clean state and subspace dims differ")
        if self.noisy_state.dim != self.clean_state.dim:
            raise ValueError("noisy and clean state dims differ")
        residual = span_membership_residual(
            self.clean_state.values, self.truth_subspace
        )
        if residual >= MEMBERSHIP_TOL:
            raise ValueError(
                f"clean state leaves its subspace, residual {residual:.3e}"
            )


def _frame_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one (seed, stream, frame) cell of the counter space."""
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bits.advance(index * _FRAME_STRIDE)
    return np.random.Generator(bits)


def derive_trial_seed(base_seed: int, trial: int) -> int:
    """Stable per-trial scenario seed from a base seed and trial index."""
    if not 0 <= base_seed < _SEED_LIMIT:
        raise ValueError("seed must fit in uint64")
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial,))
    return int(seq.generate_state(1, np.uint64)[0])


def sample_waypoints(config: TrajectoryConfig) -> list[SubspacePoint]:
    """Seeded random waypoints; adjacent pairs admit a unique geodesic.

    Redraws the whole set up to WAYPOINT_ATTEMPTS times when an adjacent
    pair comes within the degeneracy margin of pi/2, then raises
    DegenerateGeodesic.
    """
    for attempt in range(WAYPOINT_ATTEMPTS):
        points: list[SubspacePoint] = []
        ok = True
        for i in range(config.waypoint_count):
            rng = _frame_rng(
                config.seed, _STREAM_WAYPOINTS, (attempt << 20) + i
            )
            raw = rng.standard_normal((config.n, config.r))
            try:
                points.append(orthonormalize(raw))
            except RankDeficient:
                ok = False
                break
        if not ok:
            continue
        for a, b in zip(points, points[1:]):
            angles = principal_angles(a, b)
            if angles.max_angle() >= np.pi / 2 - ANGLE_DEGENERACY_MARGIN:
                ok = False
                break
        if ok:
            return points
    raise DegenerateGeodesic(
        f"no usable waypoint set after {WAYPOINT_ATTEMPTS} attempts"
    )


def _align_bases(path: list[SubspacePoint]) -> list[SubspacePoint]:
    """Rotate each basis onto its predecessor (orthogonal Procrustes).

    Geodesic points are only subspace-continuous: their bases carry an
    arbitrary r x r rotation that jumps between frames. Aligning removes
    the jumps so states U_t @ c move no faster than the subspace itself;
    spans are untouched.
    """
    aligned = [path[0]]
    for prev_raw, point in zip(path, path[1:]):
        if point is prev_raw:
            aligned.append(aligned[-1])
            continue
        v, _, wt = np.linalg.svd(point.basis.T @ aligned[-1].basis)
        aligned.append(SubspacePoint(point.basis @ (v @ wt)))
    return aligned


def _truth_subspaces(config: TrajectoryConfig) -> list[SubspacePoint]:
    """Per-frame truth subspaces along the waypoint path."""
    waypoints = sample_waypoints(config)
    if config.speed == 0.0 or config.length == 1:
        return [waypoints[0]] * config.length
    max_dist = max(
        projection_distance(a, b)
        for i, a in enumerate(waypoints)
        for b in waypoints[i + 1:]
    )
    # Arc length of each segment in the principal-angle metric; chord
    # length never exceeds it, which is what bounds the per-frame step.
    seg_arcs = [
        float(np.linalg.norm(principal_angles(a, b).angles))
        for a, b in zip(waypoints, waypoints[1:])
    ]
    cum = np.concatenate([[0.0], np.cumsum(seg_arcs)])
    total = float(cum[-1])
    step = config.speed * max_dist / config.length
    out: list[SubspacePoint] = []
    for t in range(config.length):
        position = min(t * step, total)
        if position <= 0.0:
            out.append(waypoints[0])
            continue
        if position >= total:
            out.append(waypoints[-1])
            continue
        seg = int(np.searchsorted(cum, position, side="right")) - 1
        seg = min(max(seg, 0), len(seg_arcs) - 1)
        if seg_arcs[seg] <= 0.0:
            out.append(waypoints[seg])
            continue
        local = (position - float(cum[seg])) / seg_arcs[seg]
        local = min(max(local, 0.0), 1.0)
        out.append(geodesic(waypoints[seg], waypoints[seg + 1], local))
    return _align_bases(out)


def _clean_states(
    config: TrajectoryConfig, subspaces: list[SubspacePoint]
) -> list[StateVector]:
    """Unit-norm states in each frame's subspace with optional coef walk."""
    rng0 = _frame_rng(config.seed, _STREAM_CLEAN, 0)
    coef = rng0.standard_normal(config.r)
    norm = np.linalg.norm(coef)
    if norm < 1e-12:
        coef = np.zeros(config.r)
        coef[0] = 1.0
    else:
        coef = coef / norm
    states: list[StateVector] = []
    prev_coef = None
    prev_basis = None
    prev_state = None
    for t, subspace in enumerate(subspaces):
        if t > 0 and config.state_drift > 0.0:
            stepped = coef + config.state_drift * _frame_rng(
                config.seed, _STREAM_CLEAN, t
            ).standard_normal(config.r)
            norm = np.linalg.norm(stepped)
            if norm >= 1e-12:
                coef = stepped / norm
        if prev_state is not None and coef is prev_coef and subspace is prev_basis:
            # Frozen coefficients on a frozen subspace: reuse the exact
            # vector so static streams are bitwise constant.
            state = prev_state
        else:
            state = StateVector(subspace.basis @ coef)
        states.append(state)
        prev_coef, prev_basis, prev_state = coef, subspace, state
    return states


def generate_scenario(
    config: TrajectoryConfig, noise: NoiseModel
) -> list[ScenarioFrame]:
    """Full scenario: truth subspaces, clean states, corrupted states.

    Frame t's noise is sigma * g_t; the drift walk adds the running sum
    sigma * sum_{i <= t} g_i instead, so its expected error norm grows
    like sqrt(t + 1). Bitwise deterministic for identical (config, noise).
    """
    subspaces = _truth_subspaces(config)
    cleans = _clean_states(config, subspaces)
    frames: list[ScenarioFrame] = []
    walk: np.ndarray | None = None
    for t, (clean, subspace) in enumerate(zip(cleans, subspaces)):
        if noise.sigma == 0.0:
            noisy = clean
        else:
            draw = _frame_rng(config.seed, _STREAM_NOISE, t).standard_normal(config.n)
            scale = noise.sigma
            if noise.kind == NOISE_DRIFT_WALK:
                walk = draw if walk is None else walk + draw
                draw = walk
            elif noise.kind == NOISE_BURST:
                hit = _frame_rng(config.seed, _STREAM_BURST, t).random()
                if hit < noise.burst_prob:
                    scale = noise.sigma * noise.burst_scale
            noisy = StateVector(clean.values + scale * draw)
        frames.append(
            ScenarioFrame(clean_state=clean, noisy_state=noisy, truth_subspace=subspace)
        )
    return frames
