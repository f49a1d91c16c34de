"""Command line front end.

Subcommands:
  simulate CONFIG        run the configured experiment, write outputs
  ablate-window CONFIG   sweep window sizes, write ablation.csv/.json, run_meta.json
  affinity-dump CONFIG   write trial 0's affinity grids for chosen frames

Each subparser names its handler (set_defaults(run=...)), and main maps
the errors a handler raises onto exit codes: 0 success, 2 bad config or
arguments (ssrlab.errors.ConfigInvalid; argparse also exits 2), 3
numeric failure during a run (any ssrlab.errors.NumericError), 4
filesystem error. Any other exit is an uncaught bug.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config, parse_int_list
from .errors import ConfigInvalid, NumericError, annotated, frame_named
from .harness import (
    dump_heatmaps,
    fit_column,
    run_experiment,
    summary_table,
    write_ablation_outputs,
    write_experiment_outputs,
)
from .metrics import ablate_window, trial_scenarios
from .regularizer import run_stream

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssrlab",
        description="streaming self-expressive correction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment end to end")
    sim.add_argument("config", help="path to a key=value config file")
    sim.set_defaults(run=_cmd_simulate)

    abl = sub.add_parser("ablate-window", help="sweep the window size")
    abl.add_argument("config", help="path to a key=value config file")
    abl.add_argument(
        "--sizes",
        default="2,4,8,16,32,64",
        help="comma separated window sizes (default 2,4,8,16,32,64)",
    )
    abl.set_defaults(run=_cmd_ablate)

    dump = sub.add_parser("affinity-dump", help="write affinity heatmaps")
    dump.add_argument("config", help="path to a key=value config file")
    dump.add_argument(
        "--frames",
        required=True,
        help="comma separated frame indices to capture",
    )
    dump.set_defaults(run=_cmd_affinity_dump)

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
    timings: dict[str, float | dict[int, float]] = {}
    rows = ablate_window(
        sizes, config.trajectory, config.noise, config.trials, config.ssr, timings
    )
    paths = write_ablation_outputs(config, rows, timings)
    print(f"{'window_k':>9} {'mean_improve':>13} {'std_improve':>12}")
    for row in rows:
        print(
            f"{row.window_k:>9} {fit_column(row.mean_improvement_ratio, 13, 6)} "
            f"{fit_column(row.std_improvement_ratio, 12, 6)}"
        )
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['json']}")
    return 0


def _cmd_affinity_dump(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    frames = parse_int_list(args.frames, "--frames")
    for frame in frames:
        if not 0 <= frame < config.trajectory.length:
            raise ConfigInvalid(f"--frames: frame {frame} outside [0, {config.trajectory.length})")
    # trial 0 corrected as simulate corrects it, every window checked in full; nothing scored
    noisy = next(trial_scenarios(config.trajectory, config.noise, 1)).noisy
    try:
        kept = run_stream(config.ssr, noisy, residuals=False, keep_affinities=frames)[1]
    except NumericError as exc:
        raise annotated(exc, frame_named("method=ssr, trial=0", exc)) from exc
    os.makedirs(config.output_dir, exist_ok=True)
    for path in dump_heatmaps(kept, config.output_dir):
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(
            f"config error: the configured scenario does not fit in memory ({exc})",
            file=sys.stderr,
        )
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
