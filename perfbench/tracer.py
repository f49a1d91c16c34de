"""Layer spans recorded from outside the program.

Every public function (not class) in a layer module's ``__all__`` is
wrapped under each name a caller looks it up by: the binding in its own
module, in every other ssrlab module that imported it, and in the
package. A layer's span is the outermost call into that layer, so a
renamed or new kernel still lands in its layer. Self time is a span
minus the spans of other layers nested directly inside it.

Spans are kept per trial. A trial starts where a span calls
``derive_trial_seed(seed, trial)``; the frames the next synth span
returns are registered under that trial, and any later call that
receives one of those frames or their states inherits it. Per-frame
calls fold into their trial as a call count plus busy seconds.

Function-level counters (calls, busy seconds, frames produced) count the
outermost call of each function, so ``score_run`` inside
``ablate_window`` is counted although the metrics layer is already open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "config",
    "synth",
    "grassmann",
    "regularizer",
    "affinity",
    "metrics",
    "harness",
    "cli",
)

# Functions that the named per-layer metrics read. One that is gone is
# reported as a missing span; its metrics then read 0.
EXPECTED = {
    "config": ("load_config",),
    "synth": ("generate_scenario", "derive_trial_seed"),
    "grassmann": ("geodesic", "span_membership_residual"),
    "regularizer": ("ssr_step", "run_stream", "ema_fuse", "passthrough_step"),
    "affinity": ("self_expressive_residual",),
    "metrics": ("score_run", "ablate_window"),
    "harness": ("run_experiment", "write_experiment_outputs"),
    "cli": ("main",),
}

# Regularizer entry points that are baselines, not the corrector.
BASELINES = frozenset({"ema_fuse", "passthrough_step"})
TRIAL_MARKER = "derive_trial_seed"
# Stands in for the result of a call that raised.
_RAISED = object()


def frames_of(result) -> int:
    """State vectors or frames a call produced, judged from its result."""
    if isinstance(result, list):
        return len(result)
    if isinstance(result, tuple):
        return frames_of(result[0]) if result else 0
    if isinstance(result, np.ndarray):
        return result.shape[0] if result.ndim == 2 else int(result.ndim == 1)
    return int(isinstance(getattr(result, "values", None), np.ndarray))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "us_per_frame" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name == "trace.coverage":
        return "fraction"
    return "count"


def _window_k(args) -> int | None:
    for arg in args:
        for holder in (arg, getattr(arg, "config", None)):
            k = getattr(holder, "window_k", None)
            if isinstance(k, int):
                return k
    return None


def _dir_state(path: str) -> dict[str, tuple[int, int, int]]:
    try:
        entries = list(os.scandir(path))
    except FileNotFoundError:
        return {}
    state = {}
    for entry in entries:
        st = entry.stat()
        state[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return state


class Tracer:
    """Wraps the layers' public functions and accumulates spans.

    Single-threaded use only: spans form one stack.
    """

    def __init__(self, watch_dir: str):
        self.watch_dir = watch_dir
        self.modules = {}
        self.missing: list[str] = []
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"ssrlab.{layer}")
            except ImportError:
                self.missing += [f"{layer}.{name}" for name in EXPECTED[layer]]
        self._wrappers: dict[int, object] = {}
        wrapped: set[str] = set()
        for layer, module in self.modules.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or id(fn) in self._wrappers:
                    continue
                home = fn.__module__.rpartition(".")[2]
                owner = home if home in self.modules else layer
                self._wrappers[id(fn)] = self._wrap(owner, fn.__name__, fn)
                wrapped.add(f"{owner}.{fn.__name__}")
        for layer, names in EXPECTED.items():
            if layer in self.modules:
                self.missing += [
                    f"{layer}.{name}" for name in names if f"{layer}.{name}" not in wrapped
                ]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget all spans; call between invocations."""
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_errors = defaultdict(int)
        self.layer_frames = defaultdict(int)
        self.fn_stats = defaultdict(lambda: [0, 0.0, 0])
        self.trial_spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.correct_by_k = defaultdict(lambda: [0.0, 0])
        self.write_busy = 0.0
        self.bytes_written = 0
        self.files_written = 0
        self._stack: list[list] = []
        self._layer_depth = dict.fromkeys(LAYERS, 0)
        self._fn_depth: dict[str, int] = defaultdict(int)
        self._trial_of_id: dict[int, int] = {}
        self._keep: list[object] = []

    def install(self) -> None:
        """Bind the wrappers in place of the originals in every ssrlab module."""
        for modname, module in list(sys.modules.items()):
            if modname != "ssrlab" and not modname.startswith("ssrlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, key, fn, args, kwargs)

        return traced

    def _trial_of(self, args, parent) -> int | None:
        lookup = self._trial_of_id
        if lookup:
            for arg in args:
                trial = lookup.get(id(arg))
                if trial is None and type(arg) is list and arg:
                    trial = lookup.get(id(arg[0]))
                if trial is not None:
                    return trial
        if parent is None:
            return None
        return parent[3] if parent[3] is not None else parent[2]

    def _call(self, layer, name, key, fn, args, kwargs):
        fn_depth = self._fn_depth
        first_fn = fn_depth[key] == 0
        first_layer = self._layer_depth[layer] == 0
        if not (first_fn or first_layer):
            return fn(*args, **kwargs)
        span = None
        if first_layer:
            parent = self._stack[-1] if self._stack else None
            if name == TRIAL_MARKER and parent is not None:
                parent[3] = kwargs.get("trial", args[1] if len(args) > 1 else None)
            # [layer, child seconds, trial, trial started inside this span]
            span = [layer, 0.0, self._trial_of(args, parent), None]
            self._stack.append(span)
            if layer == "harness":
                before = _dir_state(self.watch_dir)
        fn_depth[key] += 1
        self._layer_depth[layer] += 1
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            elapsed = perf_counter() - start
            fn_depth[key] -= 1
            self._layer_depth[layer] -= 1
            frames = frames_of(result) if ok else 0
            if first_fn:
                stat = self.fn_stats[key]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frames
            if span is not None:
                self._close_span(span, name, elapsed, args, result if ok else _RAISED, frames)
                if layer == "harness":
                    self._count_writes(before, elapsed)

    def _close_span(self, span, name, elapsed, args, result, frames) -> None:
        """Fold a finished outermost layer call into the totals."""
        self._stack.pop()
        layer, children, trial = span[0], span[1], span[2]
        if self._stack:
            self._stack[-1][1] += elapsed
        self.layer_busy[layer] += elapsed
        self.layer_self[layer] += elapsed - children
        cell = self.trial_spans[(trial, layer)]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - children
        if result is _RAISED:
            self.layer_errors[layer] += 1
            return
        self.layer_frames[layer] += frames
        if layer == "synth" and trial is not None and isinstance(result, list):
            self._keep.append(result)
            for frame in result:
                self._trial_of_id[id(frame)] = trial
                state = getattr(frame, "noisy_state", None)
                if state is not None:
                    self._trial_of_id[id(state)] = trial
        if layer == "regularizer" and name not in BASELINES:
            cell = self.correct_by_k[_window_k(args)]
            cell[0] += elapsed
            cell[1] += frames

    def _count_writes(self, before, elapsed) -> None:
        after = _dir_state(self.watch_dir)
        written = [name for name, st in after.items() if before.get(name) != st]
        if written:
            self.write_busy += elapsed
            self.files_written += len(written)
            self.bytes_written += sum(after[name][2] for name in written)

    def trial_table(self) -> list[dict]:
        """Per-(trial, layer) spans of the current invocation."""
        return [
            {
                "trial": trial,
                "layer": layer,
                "calls": calls,
                "busy_s": busy,
                "self_s": self_s,
            }
            for (trial, layer), (calls, busy, self_s) in sorted(
                self.trial_spans.items(),
                key=lambda item: (item[0][0] is not None, item[0][0] or 0, item[0][1]),
            )
        ]

    def metrics(self, run_s: float, sweep_sizes) -> dict[str, float]:
        """Per-layer metrics of the current invocation, by name."""
        fn = self.fn_stats

        def calls(key):
            return fn.get(key, (0, 0.0, 0))[0]

        def busy(key):
            return fn.get(key, (0, 0.0, 0))[1]

        def us_per_frame(seconds, frames):
            return 1e6 * seconds / frames if frames else 0.0

        correct_s = sum(seconds for seconds, _ in self.correct_by_k.values())
        correct_frames = sum(frames for _, frames in self.correct_by_k.values())
        out = {
            "synth.generate_s": self.layer_busy["synth"],
            "synth.frames": self.layer_frames["synth"],
            "grassmann.geodesic_s": busy("grassmann.geodesic"),
            "grassmann.geodesic_calls": calls("grassmann.geodesic"),
            "grassmann.span_residual_s": busy("grassmann.span_membership_residual"),
            "grassmann.span_residual_calls": calls("grassmann.span_membership_residual"),
            "regularizer.correct_s": correct_s,
            "regularizer.frames": correct_frames,
            "regularizer.us_per_frame": us_per_frame(correct_s, correct_frames),
        }
        for k in sweep_sizes:
            seconds, frames = self.correct_by_k.get(k, (0.0, 0))
            out[f"regularizer.us_per_frame.k{k}"] = us_per_frame(seconds, frames)
        out.update(
            {
                "regularizer.ema_s": busy("regularizer.ema_fuse"),
                "regularizer.ema_calls": calls("regularizer.ema_fuse"),
                "affinity.residual_s": busy("affinity.self_expressive_residual"),
                "affinity.residual_calls": calls("affinity.self_expressive_residual"),
                "metrics.score_s": busy("metrics.score_run"),
                "metrics.frames_scored": fn.get("metrics.score_run", (0, 0.0, 0))[2],
                "harness.write_s": self.write_busy,
                "harness.bytes_written": self.bytes_written,
                "harness.files_written": self.files_written,
                "config.load_s": busy("config.load_config"),
            }
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.layer_errors[layer]
        out["trace.coverage"] = sum(self.layer_self.values()) / run_s if run_s > 0 else 0.0
        out["trace.missing_spans"] = len(self.missing)
        out["trace.trials"] = len({t for t, _ in self.trial_spans if t is not None})
        return out
