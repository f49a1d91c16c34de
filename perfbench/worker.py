"""Times one workload's CLI invocations inside a single process.

run.py starts this script as the workload's own child process, with the
checkout's ``src`` on PYTHONPATH and SSRLAB_THREADS unset. It calls
``ssrlab.cli.main`` in-process: one untimed warm-up invocation, then
timed invocations until ``--seconds`` are used up. Every invocation's
outputs are checked (see checks.py). With ``--trace 1`` untraced and
traced invocations alternate, so the tracing overhead is measured under
the same host conditions. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

from checks import check_invocation, payload_digests
from workloads import SWEEP_SIZES, WORKLOADS

MIN_INVOCATIONS = 3
MIN_TRACED_INVOCATIONS = 2
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Failure messages kept for the report; the count is unbounded.
MAX_PROBLEMS = 5


def _clear(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def invoke(cli, argv: list[str], out_dir: str) -> tuple[int | None, float]:
    """One CLI invocation into an emptied out_dir: (exit code, seconds).

    The exit code is None when main raised instead of returning.
    """
    _clear(out_dir)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit):  # a crash is a failed invocation
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, perf_counter() - start


def measure(workload, cli, config_path, out_dir, seconds, reference, tracer=None):
    """Warm up, then invoke the workload until `seconds` are used.

    Returns attempted and failed counts, the first problems found,
    per-invocation samples (untraced seconds and, with a tracer, traced
    seconds plus each traced invocation's per-layer metrics and spans)
    and the process's peak RSS.
    """
    argv = workload.argv(config_path)
    code, _ = invoke(cli, argv, out_dir)
    problems = check_invocation(workload, out_dir, code, None, reference)
    baseline = payload_digests(out_dir) if code == 0 else None
    attempted, failed = 1, int(bool(problems))
    kept = [f"warm-up: {p}" for p in problems[:MAX_PROBLEMS]]
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    spans: list[list[dict]] = []
    start = perf_counter()
    while True:
        durations = plain + traced
        enough = len(durations) >= MIN_INVOCATIONS and (
            tracer is None or len(traced) >= MIN_TRACED_INVOCATIONS
        )
        elapsed = perf_counter() - start
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        use_tracer = tracer is not None and len(durations) % 2 == 1
        if use_tracer:
            tracer.reset()
            tracer.install()
        try:
            code, run_s = invoke(cli, argv, out_dir)
        finally:
            if use_tracer:
                tracer.uninstall()
        problems = check_invocation(workload, out_dir, code, baseline, reference)
        attempted += 1
        if problems:
            failed += 1
            kept += [f"invocation {attempted - 1}: {p}" for p in problems]
            kept = kept[:MAX_PROBLEMS]
        if use_tracer:
            traced.append(run_s)
            layers.append(tracer.metrics(run_s, SWEEP_SIZES))
            spans.append(tracer.trial_table())
        else:
            plain.append(run_s)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": kept,
        "run_s": plain,
        "traced_run_s": traced,
        "layers": layers,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pinned_aggregates(workload: str, seed: int) -> dict | None:
    """The aggregates pinned for this workload, if seed is its pinned seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload)
    if pinned is None or pinned["seed"] != seed:
        return None
    return pinned["aggregates"]


def library_context() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    reference = pinned_aggregates(args.workload, args.seed)

    from ssrlab import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.out)
    result = measure(
        workload, cli, args.config, args.out, args.seconds, reference, tracer
    )
    result["missing_spans"] = tracer.missing if tracer else []
    result["libraries"] = library_context()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
