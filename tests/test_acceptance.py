"""Acceptance suite: the ten gate properties for this package.

Each test prints one PASS line with its measured margin (visible with
pytest -s; pytest -v shows the per-test verdicts either way). Scales and
tolerances are fixed here on purpose; loosening them is a behavior
change, not a cleanup.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import ssrlab.metrics as metrics_mod
from ssrlab.affinity import MODE_RAW_SUM, MODE_SOFTMAX, compute_affinity
from ssrlab.grassmann import (
    orthonormalize,
    principal_angles,
    projection_distance,
    span_membership_residual,
)
from ssrlab.metrics import ablate_window, score_run
from ssrlab.regularizer import SsrConfig, ema_fuse, run_stream, ssr_step
from ssrlab.synth import (
    NoiseModel,
    Scenario,
    TrajectoryConfig,
    derive_trial_seed,
    generate_scenario,
)
from ssrlab.cli import main

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# The benchmark scenario shared by the denoising and ablation gates:
# a static 4-plane in R^64, slowly wandering clean state, iid noise.
BENCH_TRAJECTORY = TrajectoryConfig(
    n=64, r=4, length=256, seed=1234, speed=0.0,
    waypoint_count=2, state_drift=0.05,
)
BENCH_NOISE = NoiseModel(kind="gaussian-iid", sigma=0.1)
BENCH_SSR = SsrConfig(window_k=8)


def report(line: str) -> None:
    print(line, flush=True)


def load_fixture(name: str) -> dict:
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_affinity_rows_are_convex_weights():
    # 10,000 random windows across the full size envelope; every softmax
    # row must be a convex weight vector. Budget: 5 seconds.
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst_defect = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(2, 65))
        length = int(rng.integers(1, 66))
        rows = rng.standard_normal((length, dim))
        entries = compute_affinity(rows)
        assert np.all(entries >= 0.0)
        defect = float(np.abs(entries.sum(axis=1) - 1.0).max())
        assert defect <= 1e-9
        worst_defect = max(worst_defect, defect)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"row-convexity sweep took {elapsed:.2f}s"
    report(
        f"PASS affinity row convexity: 10000 windows, worst row defect "
        f"{worst_defect:.2e}, {elapsed:.2f}s"
    )


def test_affinity_matches_naive_oracle():
    # 1,000 small windows against a scalar-at-a-time reference, both
    # normalization modes: softmax elementwise within 1e-12; each raw-sum
    # row i within its rounding, 2 L d u kappa_i max_j |ref_ij| with
    # u = 2^-53 and kappa_i = sum_j |phi_ij| / |sum_j phi_ij|, a bound
    # that holds whatever order a BLAS kernel sums the dot products in.
    def naive(rows: np.ndarray, mode: str, tau: float | None) -> np.ndarray:
        length = rows.shape[0]
        phi = np.empty((length, length))
        for i in range(length):
            for j in range(length):
                phi[i, j] = float(np.dot(rows[i], rows[j]))
        out = np.empty_like(phi)
        for i in range(length):
            if mode == MODE_SOFTMAX:
                logits = phi[i] / tau
                weights = np.array([math.exp(x - logits.max()) for x in logits])
                out[i] = weights / weights.sum()
            else:
                out[i] = phi[i] / phi[i].sum()
        return out

    rng = np.random.default_rng(4096)
    raw_sum_checked = 0
    worst = worst_raw = 0.0
    for _ in range(1_000):
        length = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 5))
        rows = rng.standard_normal((length, dim))
        tau = float(rng.uniform(0.2, 4.0))
        ours = compute_affinity(rows, temperature=tau)
        gap = float(np.abs(ours - naive(rows, MODE_SOFTMAX, tau)).max())
        assert gap <= 1e-12
        worst = max(worst, gap)
        phi = rows @ rows.T
        row_sums = phi.sum(axis=1)
        if np.all(np.abs(row_sums) >= 1e-9):
            ours_raw = compute_affinity(rows, mode=MODE_RAW_SUM)
            ref = naive(rows, MODE_RAW_SUM, None)
            kappa = np.abs(phi).sum(axis=1) / np.abs(row_sums)
            bound = 2.0 * length * dim * 2.0**-53 * kappa * np.abs(ref).max(axis=1)
            ratio = float((np.abs(ours_raw - ref).max(axis=1) / bound).max())
            assert ratio <= 1.0
            worst_raw = max(worst_raw, ratio)
            raw_sum_checked += 1
    assert raw_sum_checked >= 700
    report(
        f"PASS oracle equivalence: 1000 softmax windows, worst gap {worst:.2e};"
        f" {raw_sum_checked} raw-sum windows, worst gap {worst_raw:.2f} of its bound"
    )


def test_corrected_state_stays_in_window_span():
    # 1,000 streaming steps; the output must lie in the span of the
    # window that produced it (residual < 1e-9).
    rng = np.random.default_rng(777)
    steps = 0
    worst = 0.0
    for stream in range(25):
        window_k = int(rng.integers(1, 9))
        dim = int(rng.integers(12, 20))
        held = rng.standard_normal((40, dim))
        corrected, _, _ = run_stream(SsrConfig(window_k=window_k), held)
        for t, out in enumerate(corrected):
            rows = held[max(0, t - window_k) : t + 1]
            span = orthonormalize(rows.T)
            residual = float(span_membership_residual(out[None], span[None])[0])
            assert residual < 1e-9
            worst = max(worst, residual)
            steps += 1
    assert steps == 1_000
    report(f"PASS span containment: 1000 steps, worst residual {worst:.2e}")


def test_identity_calibrations():
    # single frame: bitwise passthrough with affinity [[1.0]]
    incoming = np.array([[2.5, -1.0, 0.25]])
    corrected, affinity = ssr_step(incoming, SsrConfig(window_k=8))
    assert np.array_equal(corrected, incoming[0])
    assert affinity.shape == (1, 1)
    assert affinity[0, 0] == 1.0

    # constant streams: fixed points within 1e-10, both buffer policies
    anchor = np.array([0.6, 0.8, 0.0])
    worst = 0.0
    for policy in ("store-raw", "store-corrected"):
        for window_k in (1, 3, 8):
            config = SsrConfig(window_k=window_k, buffer_policy=policy)
            corrected_stream, _, _ = run_stream(config, np.tile(anchor, (64, 1)))
            drift = float(np.max(np.abs(corrected_stream - anchor)))
            assert drift < 1e-10
            worst = max(worst, drift)

    # blend endpoints: bitwise
    stream = np.array([[-3.0, 4.0], [1.0, 2.0]])
    assert np.array_equal(ema_fuse(stream, 1.0), stream)
    assert np.array_equal(ema_fuse(stream, 0.0), stream[[0, 0]])
    report(
        f"PASS identity calibrations: single-frame bitwise, constant-stream "
        f"drift {worst:.2e}, blend endpoints bitwise"
    )


def test_projection_metric_axioms():
    rng = np.random.default_rng(31337)
    worst_triangle = -np.inf
    worst_cross = 0.0
    for i in range(10_000):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(1, min(4, n)))
        a = orthonormalize(rng.standard_normal((n, r)))
        b = orthonormalize(rng.standard_normal((n, r)))
        c = orthonormalize(rng.standard_normal((n, r)))
        d_ab = projection_distance(a, b)
        assert d_ab == projection_distance(b, a)  # symmetry, exact
        slack = projection_distance(a, c) + projection_distance(c, b) - d_ab
        assert slack >= -1e-9
        worst_triangle = max(worst_triangle, -slack)
        if i < 1_000:
            angles = principal_angles(a, b)
            gap = abs(d_ab**2 - float(np.sum(np.sin(angles) ** 2)))
            assert gap <= 1e-9
            worst_cross = max(worst_cross, gap)
    # changing the basis without changing the span moves nothing
    worst_basis = 0.0
    for _ in range(1_000):
        point = orthonormalize(rng.standard_normal((8, 3)))
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = projection_distance(point, point @ rot)
        assert moved < 1e-10
        worst_basis = max(worst_basis, moved)
    report(
        f"PASS metric axioms: 10000 triples (triangle slack >= "
        f"{-worst_triangle:.1e}), angle cross-check {worst_cross:.2e}, "
        f"basis invariance {worst_basis:.2e}"
    )


def test_denoising_beats_passthrough():
    # 100 trials on the benchmark scenario; the corrector must beat the
    # identity baseline in at least 95, and the improvement ratios must
    # reproduce the frozen regression values. Budget: 30 seconds.
    fixture = load_fixture("denoising_regression.json")
    started = time.perf_counter()
    wins = 0
    ratios = []
    for trial in range(100):
        seed = derive_trial_seed(BENCH_TRAJECTORY.seed, trial)
        scenario = generate_scenario(replace(BENCH_TRAJECTORY, seed=seed), BENCH_NOISE)
        corrected, _, _ = run_stream(BENCH_SSR, scenario.noisy)
        _, summary = score_run(scenario, corrected)
        _, baseline = score_run(scenario, scenario.noisy)
        wins += int(summary.mean_corrected_error < baseline.mean_corrected_error)
        ratios.append(summary.improvement_ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"denoising benchmark took {elapsed:.1f}s"
    assert wins >= 95
    assert wins == fixture["wins_over_passthrough"]
    frozen = fixture["per_trial_improvement_ratio"]
    assert len(frozen) == len(ratios)
    for got, want in zip(ratios, frozen):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio == pytest.approx(
        fixture["mean_improvement_ratio"], rel=1e-12
    )
    report(
        f"PASS denoising direction: {wins}/100 wins, mean improvement "
        f"{mean_ratio:.4f} matches frozen regression, {elapsed:.1f}s"
    )


def test_window_ablation_saturates():
    # Sweeping the window on the benchmark scenario must show strictly
    # positive gains from k=2 to k=8 and no meaningful gain from k=16 to
    # k=64 (not more than one pooled std). Budget: 3 minutes.
    fixture = load_fixture("window_ablation.json")
    started = time.perf_counter()
    rows = ablate_window(
        [2, 4, 8, 16, 32, 64], BENCH_TRAJECTORY, BENCH_NOISE,
        trials=100, ssr=BENCH_SSR,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0, f"ablation sweep took {elapsed:.1f}s"
    by_k = {row.window_k: row for row in rows}
    gain_2_4 = by_k[4].mean_improvement_ratio - by_k[2].mean_improvement_ratio
    gain_4_8 = by_k[8].mean_improvement_ratio - by_k[4].mean_improvement_ratio
    assert gain_2_4 > 0.0
    assert gain_4_8 > 0.0
    pooled = math.sqrt(
        (by_k[16].std_improvement_ratio ** 2 + by_k[64].std_improvement_ratio ** 2)
        / 2.0
    )
    excess = by_k[64].mean_improvement_ratio - by_k[16].mean_improvement_ratio
    assert excess <= pooled
    for frozen in fixture["rows"]:
        row = by_k[frozen["window_k"]]
        assert row.mean_improvement_ratio == pytest.approx(
            frozen["mean_improvement_ratio"], rel=1e-12, abs=1e-12
        )
        assert row.std_improvement_ratio == pytest.approx(
            frozen["std_improvement_ratio"], rel=1e-12, abs=1e-12
        )
    report(
        f"PASS window ablation: gains +{gain_2_4:.3f} (2->4), "
        f"+{gain_4_8:.3f} (4->8), k64-k16 = {excess:+.3f} vs pooled std "
        f"{pooled:.3f}, matches frozen table, {elapsed:.1f}s"
    )


def test_drift_error_scaling():
    # accumulating noise must grow like sqrt(t): the mean raw error at
    # frame 400 is twice the frame-100 value within 15%; the corrector's
    # tail must beat passthrough in at least 90% of 200 seeds.
    trajectory = replace(BENCH_TRAJECTORY, length=400)
    noise = NoiseModel(kind="drift-random-walk", sigma=0.05)
    at_100, at_400 = [], []
    tail_wins = 0
    for trial in range(200):
        seed = derive_trial_seed(trajectory.seed, trial)
        scenario = generate_scenario(replace(trajectory, seed=seed), noise)
        scores, baseline = score_run(scenario, scenario.noisy)
        at_100.append(scores[99, 0])
        at_400.append(scores[399, 0])
        corrected, _, _ = run_stream(BENCH_SSR, scenario.noisy)
        _, summary = score_run(scenario, corrected)
        tail_wins += int(summary.tail_error_mean < baseline.tail_error_mean)
    ratio = float(np.mean(at_400)) / float(np.mean(at_100))
    assert ratio == pytest.approx(2.0, rel=0.15)
    assert tail_wins >= 180
    report(
        f"PASS drift scaling: growth ratio {ratio:.3f} (target 2 +/- 15%), "
        f"tail wins {tail_wins}/200"
    )


def test_outputs_byte_identical_across_reruns(tmp_path):
    # identical config, two runs into the same directory: every payload
    # byte must match (the timestamp lives in run_meta.json, outside the
    # comparison)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "scenario.n = 16",
                "scenario.r = 3",
                "scenario.length = 48",
                "scenario.seed = 1234",
                "scenario.state_drift = 0.05",
                "noise.kind = gaussian-iid",
                "noise.sigma = 0.1",
                "methods = ssr,ema,passthrough",
                "trials = 4",
                "ssr.window_k = 4",
                "ema.alpha = 0.3",
                "output.emit_heatmaps = true",
                "output.heatmap_frames = 0,7,40",
                f"output.dir = {out_dir}",
            ]
        )
        + "\n"
    )
    names = ("results.csv", "summary.json", "affinity_f00000.csv",
             "affinity_f00007.csv", "affinity_f00040.csv")

    def run_and_snapshot() -> dict[str, bytes]:
        assert main(["simulate", str(cfg)]) == 0
        snapshot = {}
        for name in names:
            path = os.path.join(out_dir, name)
            with open(path, "rb") as fh:
                snapshot[name] = fh.read()
            os.remove(path)  # the rerun must write every file afresh
        return snapshot

    first = run_and_snapshot()
    second = run_and_snapshot()
    for name in names:
        assert first[name] == second[name], f"{name} differs across reruns"
    report(f"PASS determinism: {', '.join(names)} byte-identical across reruns")


def test_degenerate_row_failure_is_structured(tmp_path, monkeypatch, capsys):
    # a window containing a state and its exact negation has a zero
    # row sum; raw-sum mode must fail with exit code 3 and a message
    # naming the method, the trial, and the frame. Random noise cannot
    # reach an exactly-zero sum, so the scenario is injected.
    # (against a constant clean state: a trial whose noisy states are its
    # clean ones fails before any correction)
    states = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    clean = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    crafted = Scenario(clean, states, np.broadcast_to(np.eye(3, 1), (2, 3, 1)))
    monkeypatch.setattr(metrics_mod, "generate_scenario", lambda cfg, noise, walk: crafted)
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(
        "\n".join(
            [
                "scenario.n = 3",
                "scenario.r = 1",
                "scenario.length = 2",
                "scenario.seed = 1",
                "noise.kind = gaussian-iid",
                "noise.sigma = 0.0",
                "methods = ssr",
                "trials = 1",
                "ssr.window_k = 4",
                "ssr.mode = raw-sum",
                f"output.dir = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    code = main(["simulate", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert "method=ssr" in err
    assert "trial=0" in err
    assert "frame=1" in err
    report(
        "PASS degeneracy handling: zero row sum exits 3 and names "
        "(method=ssr, trial=0, frame=1)"
    )
