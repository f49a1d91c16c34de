"""Command line front end.

Subcommands:
  simulate CONFIG        run the configured experiment, write outputs
  ablate-window CONFIG   sweep window sizes, write ablation.csv/.json
  affinity-dump CONFIG   write affinity heatmap grids for chosen frames
  selfcheck              run a quick built-in oracle suite

Exit codes: 0 success, 1 selfcheck failure, 2 bad config or arguments,
3 numeric failure during a run, 4 filesystem error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import METHOD_SSR, load_config, parse_int_list
from .errors import ConfigInvalid, NUMERIC_ERRORS
from .harness import (
    dump_heatmaps,
    run_experiment,
    summary_table,
    write_ablation_outputs,
    write_experiment_outputs,
)
from .metrics import ablate_window

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrlab",
        description="streaming self-expressive correction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment end to end")
    sim.add_argument("config", help="path to a key=value config file")

    abl = sub.add_parser("ablate-window", help="sweep the window size")
    abl.add_argument("config", help="path to a key=value config file")
    abl.add_argument(
        "--sizes",
        default="2,4,8,16,32,64",
        help="comma separated window sizes (default 2,4,8,16,32,64)",
    )

    dump = sub.add_parser("affinity-dump", help="write affinity heatmaps")
    dump.add_argument("config", help="path to a key=value config file")
    dump.add_argument(
        "--frames",
        required=True,
        help="comma separated frame indices to capture",
    )

    sub.add_parser("selfcheck", help="run the built-in consistency checks")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    bundle = run_experiment(config)
    paths = write_experiment_outputs(bundle)
    print(summary_table(bundle))
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['summary']}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    sizes = parse_int_list(args.sizes, "--sizes")
    if any(k < 1 for k in sizes):
        raise ConfigInvalid("--sizes: window sizes must be at least 1")
    rows = ablate_window(
        sizes, config.trajectory, config.noise, config.trials, config.ssr
    )
    paths = write_ablation_outputs(config, rows)
    print(f"{'window_k':>9} {'mean_improve':>13} {'std_improve':>12}")
    for row in rows:
        print(
            f"{row.window_k:>9} {row.mean_improvement_ratio:>13.6f} "
            f"{row.std_improvement_ratio:>12.6f}"
        )
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['json']}")
    return 0


def _cmd_affinity_dump(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    frames = parse_int_list(args.frames, "--frames")
    config = replace(
        config,
        methods=(METHOD_SSR,),
        trials=1,
        emit_heatmaps=True,
        heatmap_frames=frames,
    )
    bundle = run_experiment(config)
    os.makedirs(config.output_dir, exist_ok=True)
    written = dump_heatmaps(bundle, config.output_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _selfcheck_cases() -> list[tuple[str, object]]:
    from .affinity import MODE_RAW_SUM, StateVector, compute_affinity
    from .grassmann import geodesic, orthonormalize, projection_distance
    from .regularizer import SsrConfig, ema_fuse, run_stream

    def check_orthonormalize_idempotent() -> None:
        rng = np.random.default_rng(7)
        basis = orthonormalize(rng.standard_normal((6, 2)))
        again = orthonormalize(basis.basis)
        assert np.allclose(again.basis, basis.basis, atol=1e-12)

    def check_distance_axioms() -> None:
        rng = np.random.default_rng(11)
        pts = [orthonormalize(rng.standard_normal((8, 3))) for _ in range(3)]
        a, b, c = pts
        assert projection_distance(a, a) < 1e-12
        d_ab = projection_distance(a, b)
        assert abs(d_ab - projection_distance(b, a)) < 1e-12
        assert d_ab <= projection_distance(a, c) + projection_distance(c, b) + 1e-12

    def check_geodesic_endpoints() -> None:
        rng = np.random.default_rng(13)
        a = orthonormalize(rng.standard_normal((10, 2)))
        b = orthonormalize(rng.standard_normal((10, 2)))
        assert projection_distance(geodesic(a, b, 0.0), a) < 1e-9
        assert projection_distance(geodesic(a, b, 1.0), b) < 1e-9

    def check_affinity_rows() -> None:
        window = np.random.default_rng(17).standard_normal((4, 5))
        soft = compute_affinity(window)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        raw = compute_affinity(window, mode=MODE_RAW_SUM)
        assert np.allclose(raw.sum(axis=1), 1.0, atol=1e-9)

    def check_single_frame_identity() -> None:
        aff = compute_affinity(np.array([[3.0, -1.0]]))
        assert aff.shape == (1, 1)
        assert aff[0, 0] == 1.0

    def check_softmax_pair_value() -> None:
        aff = compute_affinity(np.array([[1.0, 0.0], [0.0, 0.0]]), temperature=1.0)
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        assert abs(aff[0, 0] - expected) < 1e-15

    def check_ema_endpoints() -> None:
        cur = StateVector(np.array([1.0, 2.0]))
        prev = StateVector(np.array([-3.0, 5.0]))
        assert ema_fuse(cur, prev, 1.0) is cur
        assert ema_fuse(cur, prev, 0.0) is prev

    def check_constant_stream_fixed_point() -> None:
        vec = np.array([0.6, 0.8, 0.0])
        corrected, _, _ = run_stream(SsrConfig(window_k=4), np.tile(vec, (12, 1)))
        assert np.allclose(corrected, vec, rtol=0.0, atol=1e-12)

    return [
        ("orthonormalize is idempotent", check_orthonormalize_idempotent),
        ("projection distance satisfies metric axioms", check_distance_axioms),
        ("geodesic hits both endpoints", check_geodesic_endpoints),
        ("affinity rows sum to one", check_affinity_rows),
        ("single frame affinity is [[1.0]]", check_single_frame_identity),
        ("softmax pair matches closed form", check_softmax_pair_value),
        ("ema endpoints are exact", check_ema_endpoints),
        ("constant stream is a fixed point", check_constant_stream_fixed_point),
    ]


def _cmd_selfcheck() -> int:
    failures = 0
    for name, check in _selfcheck_cases():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "ablate-window":
            return _cmd_ablate(args)
        if args.command == "affinity-dump":
            return _cmd_affinity_dump(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck()
        parser.error(f"unknown command {args.command!r}")
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(
            f"config error: the configured scenario does not fit in memory ({exc})",
            file=sys.stderr,
        )
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
