"""Per-frame reference for synth.generate_scenario.

Builds a scenario one frame at a time, the way the generator did before
it worked on arrays: a fresh Philox generator advanced to each
(seed, stream, frame) cell, one geodesic point per moving frame, an
orthogonal Procrustes rotation onto the previous basis computed on
entering each piece (a run of frames on one waypoint or inside one
segment) and applied to every frame of that piece, and a clean and a
noisy state array per frame, each checked to be finite, the clean one
also to lie in its subspace. Subspaces are n x r basis arrays. Frames
that reuse a waypoint, or a frozen state on a frozen subspace, reuse the
same object, so static streams are bitwise constant.

scenario_oracle stacks the frames into (clean, noisy, bases) arrays for
comparison with generate_scenario. frame_bases forms the per-frame bases
of a generated truth path, frame_pieces turns per-frame bases into a
path, and same_scenario compares two scenarios bit for bit.
"""

import numpy as np

from ssrlab.affinity import vector_norms
from ssrlab.errors import DegenerateGeodesic, RankDeficient
from ssrlab.grassmann import (
    ANGLE_DEGENERACY_MARGIN,
    GeodesicPiece,
    geodesic,
    orthonormalize,
    principal_angles,
    projection_distance,
    span_membership_residual,
)
from ssrlab.synth import MEMBERSHIP_TOL, NOISE_BURST, NOISE_DRIFT_WALK, WAYPOINT_ATTEMPTS

STREAM_WAYPOINTS, STREAM_CLEAN, STREAM_NOISE, STREAM_BURST = range(4)
FRAME_STRIDE = 1 << 32


def frame_rng(seed, stream, index):
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bits.advance(index * FRAME_STRIDE)
    return np.random.Generator(bits)


def sample_waypoints(config):
    for attempt in range(WAYPOINT_ATTEMPTS):
        points = []
        try:
            for i in range(config.waypoint_count):
                rng = frame_rng(config.seed, STREAM_WAYPOINTS, (attempt << 20) + i)
                points.append(orthonormalize(rng.standard_normal((config.n, config.r))))
        except RankDeficient:
            continue
        if all(
            principal_angles(a, b)[-1] < np.pi / 2 - ANGLE_DEGENERACY_MARGIN
            for a, b in zip(points, points[1:])
        ):
            return points
    raise DegenerateGeodesic("no usable waypoint set")


def geodesic_point(a, b, s):
    """Basis at s on the geodesic from a to b; s = 0 and 1 give a and b themselves."""
    if s == 0.0:
        return a
    if s == 1.0:
        return b
    p, g, theta = geodesic(a, b)
    return p * np.cos(s * theta) + g * np.sin(s * theta)


def align_bases(path, pieces):
    """Rotates each piece's first basis onto its predecessor; the rest of the piece reuses it."""
    aligned = [path[0]]
    rot = None
    for t in range(1, len(path)):
        if pieces[t] != pieces[t - 1]:
            v, _, wt = np.linalg.svd(path[t].T @ aligned[-1])
            rot = v @ wt
        elif path[t] is path[t - 1]:
            aligned.append(aligned[-1])
            continue
        aligned.append(path[t] if rot is None else path[t] @ rot)
    return aligned


def truth_subspaces(config):
    waypoints = sample_waypoints(config)
    if config.speed == 0.0 or config.length == 1:
        return [waypoints[0]] * config.length
    max_dist = max(
        projection_distance(a, b) for i, a in enumerate(waypoints) for b in waypoints[i + 1:]
    )
    seg_arcs = [
        float(np.linalg.norm(principal_angles(a, b)))
        for a, b in zip(waypoints, waypoints[1:])
    ]
    cum = np.concatenate([[0.0], np.cumsum(seg_arcs)])
    total = float(cum[-1])
    step = min(config.speed * max_dist / config.length, total)
    out = []
    pieces = []
    for t in range(config.length):
        position = min(t * step, total)
        if position <= 0.0:
            out.append(waypoints[0])
            pieces.append(("waypoint", 0))
            continue
        if position >= total:
            out.append(waypoints[-1])
            pieces.append(("waypoint", len(waypoints) - 1))
            continue
        seg = int(np.searchsorted(cum, position, side="right")) - 1
        seg = min(max(seg, 0), len(seg_arcs) - 1)
        if seg_arcs[seg] <= 0.0:
            out.append(waypoints[seg])
            pieces.append(("waypoint", seg))
            continue
        local = (position - float(cum[seg])) / seg_arcs[seg]
        local = min(max(local, 0.0), 1.0)
        point = geodesic_point(waypoints[seg], waypoints[seg + 1], local)
        out.append(point)
        # a geodesic's endpoints are its waypoints themselves
        ends = [i for i in (seg, seg + 1) if point is waypoints[i]]
        pieces.append(("waypoint", ends[0]) if ends else ("segment", seg))
    return align_bases(out, pieces)


def scaled_norm(vector):
    """Plain norm, or vector_norms' scaled one where the squares overflow or underflow."""
    norm = np.linalg.norm(vector)
    return norm if 2.0**-484 <= norm < np.inf else vector_norms(vector)


def clean_states(config, subspaces):
    coef = frame_rng(config.seed, STREAM_CLEAN, 0).standard_normal(config.r)
    norm = scaled_norm(coef)
    if norm == 0.0:
        coef = np.zeros(config.r)
        coef[0] = 1.0
    else:
        coef = coef / norm
    states = []
    prev = None
    for t, subspace in enumerate(subspaces):
        if t > 0 and config.state_drift > 0.0:
            draw = frame_rng(config.seed, STREAM_CLEAN, t).standard_normal(config.r)
            with np.errstate(over="ignore"):
                stepped = coef + config.state_drift * draw
                norm = np.linalg.norm(stepped)
            if np.isinf(norm):
                # overflowed: the same step times 2**shift, exactly
                shift = -np.frexp(config.state_drift)[1]
                stepped = np.ldexp(coef, shift) + np.ldexp(config.state_drift, shift) * draw
            norm = scaled_norm(stepped)
            if norm > 0.0:
                coef = stepped / norm
        if prev is not None and coef is prev[0] and subspace is prev[1]:
            state = prev[2]
        else:
            state = subspace @ coef
        states.append(state)
        prev = (coef, subspace, state)
    return states


def scenario_oracle(config, noise):
    """Returns (clean, noisy, bases) arrays built frame by frame."""
    subspaces = truth_subspaces(config)
    cleans = clean_states(config, subspaces)
    noisy = []
    walk = None
    for t, (clean, subspace) in enumerate(zip(cleans, subspaces)):
        assert np.isfinite(clean).all()
        residual = span_membership_residual(clean[None], frame_pieces(subspace[None]))[0]
        assert residual < MEMBERSHIP_TOL
        if noise.sigma == 0.0:
            noisy.append(clean)
            continue
        draw = frame_rng(config.seed, STREAM_NOISE, t).standard_normal(config.n)
        scale = noise.sigma
        if noise.kind == NOISE_DRIFT_WALK:
            walk = draw if walk is None else walk + draw
            draw = walk
        elif noise.kind == NOISE_BURST:
            if frame_rng(config.seed, STREAM_BURST, t).random() < noise.burst_prob:
                scale = noise.sigma * noise.burst_scale
        noisy.append(clean + scale * draw)
        assert np.isfinite(noisy[-1]).all()
    return (
        np.array(cleans),
        np.array(noisy),
        np.array(subspaces),
    )


def frame_pieces(bases):
    """A (T, n, r) stack of bases as a truth path: one point piece per frame."""
    return tuple(GeodesicPiece.point(t, t + 1, basis) for t, basis in enumerate(bases))


def frame_bases(path):
    """The (T, n, r) bases of a truth path, each frame's formed as the oracle forms it:
    (p * cos + g * sin) @ rotation on a geodesic piece, basis @ rotation on a point."""
    out = []
    for piece in path:
        j, r = piece.cos_sin.shape[1:]
        columns = piece.basis.reshape(-1, j, r)
        out += [(columns * rows).sum(axis=1) @ piece.rotation for rows in piece.cos_sin]
    return np.array(out)


def same_scenario(a, b):
    """Two scenarios' states and truth pieces, bit for bit."""
    return (
        np.array_equal(a.clean, b.clean)
        and np.array_equal(a.noisy, b.noisy)
        and len(a.bases) == len(b.bases)
        and all(all(map(np.array_equal, p, q)) for p, q in zip(a.bases, b.bases))
    )
