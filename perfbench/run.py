"""ssrlab benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload example --seed 1234 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ssrlab from ``src``.
The workload's config is generated from the seed into a scratch
directory inside the checkout (``.perfbench_work``, removed again).

With ``--trace 0`` the metrics are the end-to-end ones: wall seconds per
invocation, frames per second, set-up time in a fresh interpreter, peak
RSS of the workload's process and the share of invocations that passed
their output checks. With ``--trace 1`` they are the per-layer ones from
traced invocations (see tracer.py), and the spans of every traced
invocation are written to ``.perfbench_out/``.

A pure-Python calibration loop runs before and after the workload, so a
slow phase of the host shows beside the results; it never rescales them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import unit_of
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().with_name("worker.py")

# Fresh interpreters started per run to time set-up; the first one only
# compiles bytecode and is not counted. Each prints the system-wide
# monotonic clock when done, so no polling delay of the parent's wait
# enters the sample.
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, time\n"
    "import ssrlab.cli\n"
    "from ssrlab.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)
CALIBRATION_LOOPS = 1_000_000
# The whole run must end within 180 s; leave room for the last steps.
DEADLINE_S = 170.0


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def measure_setup(config_path: str, env: dict, timeout: float) -> list[float]:
    """Wall seconds to start Python, import ssrlab.cli and load the config."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, config_path],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples[1:]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def e2e_metrics(workload, result: dict, setup: list[float]) -> dict:
    """End-to-end metrics as {name: (value, unit)} from a worker result."""
    run_s = result["run_s"]
    attempted, failed = result["attempted"], result["failed"]
    return {
        "run_s": (statistics.median(run_s), "s"),
        "frames_per_s": (
            statistics.median(workload.frames / s for s in run_s),
            "frames/s",
        ),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_rate": ((attempted - failed) / attempted, "fraction"),
    }


def layer_metrics(result: dict, calib_before: float, calib_after: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}: medians over traced runs."""
    metrics = {
        name: (statistics.median(s[name] for s in result["layers"]), unit_of(name))
        for name in result["layers"][0]
    }
    overhead = (
        statistics.median(result["traced_run_s"]) / statistics.median(result["run_s"])
        - 1
    )
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["host.calib_before_s"] = (calib_before, "s")
    metrics["host.calib_after_s"] = (calib_after, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    began = time.monotonic()
    workload = WORKLOADS[args.workload]
    if not (SRC / "ssrlab" / "cli.py").is_file():
        print(f"perfbench: no ssrlab sources under {SRC}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "SSRLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        config_path = os.path.join(work, "workload.cfg")
        out_dir = os.path.join(work, "out")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(args.seed, out_dir))
        calib_before = calibrate()
        setup = measure_setup(config_path, env, DEADLINE_S)
        worker = subprocess.run(
            [
                sys.executable,
                str(WORKER),
                f"--workload={workload.name}",
                f"--config={config_path}",
                f"--out={out_dir}",
                f"--seconds={args.seconds}",
                f"--trace={args.trace}",
                f"--seed={args.seed}",
            ],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - began)),
        )
        calib_after = calibrate()
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    if worker.returncode != 0:
        print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": workload.default_seed,
        "frames_per_invocation": workload.frames,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **result["libraries"],
        "calibration_before_s": calib_before,
        "calibration_after_s": calib_after,
        "setup_samples_s": setup,
        "run_s_samples": result["run_s"],
        "traced_run_s_samples": result["traced_run_s"],
        "missing_spans": result["missing_spans"],
    }
    print("context " + json.dumps(context))

    if args.trace:
        metrics = layer_metrics(result, calib_before, calib_after)
        TRACE_ROOT.mkdir(exist_ok=True)
        trace_path = TRACE_ROOT / f"{workload.name}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "invocations": result["spans"]}, fh, indent=1)
    else:
        metrics = e2e_metrics(workload, result, setup)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
