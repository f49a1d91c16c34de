#!/usr/bin/env python3
"""Time two checkouts against each other in alternating benchmark pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads window_sweep,example --seeds 9201,9202 --seconds 15 \\
        --traced-seed 1234 --out BENCH_7.json

For every workload and seed it runs ``perfbench/run.py --trace 0`` once
in each checkout, the parent first on odd pairs (1st, 3rd, ...) and the
change first on even ones, so a slow phase of the host does not always
land on the same side. Each pair records the five end-to-end metrics of
both runs. With ``--traced-seed`` it also runs ``--trace 1`` at that seed
three times per checkout and workload, alternating which checkout goes
first, and records each per-layer metric's median, min and max: one
traced run moves a layer's timing by 20% on unchanged code.

Each workload also gets a ``summary``: per end-to-end metric, the parent
and change medians over the pairs, their ratio (change / parent), the
number of pairs the change won, and each side's interquartile range
(Q3 - Q1 of ``statistics.quantiles(values, n=4)``; None under 2 pairs).
Three flags read these against the metric's ``bound``:

- ``past_bound``: the change median is worse than the parent median by
  more than bound x parent median;
- ``unresolved``: the parent IQR exceeds bound x parent median;
- ``gain_met``: the change won at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent IQR.

The last two are None under 2 pairs. Which way is better, and each
bound, come from the ``better`` and ``bound`` fields of the change
checkout's BENCHMARK.json, which the script only reads.

The output names each checkout by its git commit and source digest, as
perfbench reports them, plus the host (nproc; Python, numpy and scipy
versions). Numbers are taken from perfbench's JSON lines, never retyped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

END_TO_END = ("run_s", "frames_per_s", "setup_s", "peak_rss_mb", "ok_rate")
TRACED_RUNS = 3


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench's context and metrics for one run in the given checkout."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            f"--workload={workload}",
            f"--seed={seed}",
            f"--seconds={seconds}",
            f"--trace={trace}",
        ],
        cwd=checkout,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"context": context, "correct": result["correct"], "metrics": metrics}


def spread(runs: list[dict]) -> dict:
    """Median, min and max of each metric over several runs."""
    return {
        name: {
            "median": statistics.median(run[name] for run in runs),
            "min": min(run[name] for run in runs),
            "max": max(run[name] for run in runs),
        }
        for name in runs[0]
    }


def iqr(values: list[float]) -> float | None:
    """Q3 - Q1 of values, or None under 2 values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: list[dict], spec: dict[str, dict]) -> dict:
    """Per end-to-end metric: medians, change / parent, pairs the change won, IQRs and flags."""
    summary = {}
    for name in END_TO_END:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = 1.0 if spec[name]["better"] == "higher" else -1.0
        medians = statistics.median(parent), statistics.median(change)
        allowed = spec[name]["bound"] * medians[0]
        gain = sign * (medians[1] - medians[0])
        won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        spread_p = iqr(parent)
        judged = spread_p is not None
        summary[name] = {
            "parent_median": medians[0],
            "change_median": medians[1],
            "ratio": medians[1] / medians[0] if medians[0] else None,
            "change_won": won,
            "pairs": len(pairs),
            "parent_iqr": spread_p,
            "change_iqr": iqr(change),
            "past_bound": -gain > allowed,
            "unresolved": (spread_p > allowed) if judged else None,
            "gain_met": (10 * won >= 9 * len(pairs) and gain > spread_p) if judged else None,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma list of perfbench workloads")
    parser.add_argument("--seeds", required=True, help="comma list of benchmark seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {metric["name"]: metric for metric in json.load(fh)["end_to_end"]}
    seeds = [int(part) for part in args.seeds.split(",")]
    report: dict = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        for number, seed in enumerate(seeds, start=1):
            order = ("parent", "change") if number % 2 else ("change", "parent")
            runs = {side: run_perfbench(checkouts[side], workload, seed, args.seconds, 0) for side in order}
            pairs.append(
                {
                    "seed": seed,
                    "order": list(order),
                    **{side: {k: runs[side]["metrics"][k] for k in END_TO_END} for side in order},
                    "correct": all(run["correct"] for run in runs.values()),
                }
            )
            print(workload, seed, {side: runs[side]["metrics"]["frames_per_s"] for side in order})
            context = runs["change"]["context"]
            report.setdefault("host", {k: context[k] for k in ("nproc", "python", "numpy", "scipy")})
            report.setdefault(
                "checkouts",
                {
                    side: {k: runs[side]["context"][k] for k in ("git_commit", "src_sha256")}
                    for side in order
                },
            )
        entry = {"pairs": pairs, "summary": summarize(pairs, spec)}
        if args.traced_seed is not None:
            traced: dict = {"parent": [], "change": []}
            for number in range(TRACED_RUNS):
                for side in ("parent", "change") if number % 2 == 0 else ("change", "parent"):
                    run = run_perfbench(checkouts[side], workload, args.traced_seed, args.seconds, 1)
                    traced[side].append(run["metrics"])
            entry["traced"] = {
                "seed": args.traced_seed,
                "runs": TRACED_RUNS,
                **{side: spread(runs) for side, runs in traced.items()},
            }
        report["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
