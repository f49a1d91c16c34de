"""The benchmark's workloads: config templates, CLI arguments, output shapes.

Each workload is one ssrlab CLI invocation on a config generated from the
benchmark seed. The seed becomes ``scenario.seed``; nothing else in a
config depends on it. Why each workload exists is recorded in
``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

# scripts/example.cfg (the README run), with the seed and output directory
# left open. At seed 1234 it is that file exactly, apart from output.dir.
EXAMPLE_CONFIG = """\
# Denoising benchmark: static 4-plane in R^64, slowly wandering clean
# state, iid gaussian corruption. Compares the window corrector against
# the two-frame blend and the identity baseline.
scenario.n = 64
scenario.r = 4
scenario.length = 256
scenario.seed = {seed}
scenario.speed = 0.0
scenario.state_drift = 0.05
noise.kind = gaussian-iid
noise.sigma = 0.1
methods = ssr,ema,passthrough
trials = 20
ssr.window_k = 8
ssr.mode = softmax
ssr.buffer_policy = store-raw
ema.alpha = 0.3
output.dir = {out}
output.emit_heatmaps = true
output.heatmap_frames = 0,64,128
"""

# A moving subspace with accumulating noise; the corrector feeds its
# outputs back into the window (store-corrected), so it runs as a loop.
MOVING_FEEDBACK_CONFIG = """\
scenario.n = 128
scenario.r = 8
scenario.length = 1024
scenario.seed = {seed}
scenario.speed = 1.0
scenario.waypoints = 4
scenario.state_drift = 0.05
noise.kind = drift-random-walk
noise.sigma = 0.01
methods = ssr,ema,passthrough
trials = 4
ssr.window_k = 16
ssr.mode = softmax
ssr.buffer_policy = store-corrected
ema.alpha = 0.3
output.dir = {out}
output.emit_heatmaps = true
output.heatmap_frames = 0,256,512
"""

SEED_LIMIT = 2**64


def _config_values(text: str) -> dict[str, str]:
    """Key/value pairs of a flat config text (comments and blanks skipped)."""
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    Attributes:
        name: workload name, as in BENCHMARK.json.
        template: config text with ``{seed}`` and ``{out}`` placeholders.
        command: subcommand and its options; the config path follows the
            subcommand.
        default_seed: the seed whose aggregates are pinned in
            ``reference.json``.
        sizes: swept window sizes, for an ``ablate-window`` workload.
    """

    name: str
    template: str
    command: tuple[str, ...]
    default_seed: int
    sizes: tuple[int, ...] = ()

    def config_text(self, seed: int, out_dir: str) -> str:
        return self.template.format(seed=seed % SEED_LIMIT, out=out_dir)

    def argv(self, config_path: str) -> list[str]:
        return [self.command[0], config_path, *self.command[1:]]

    @property
    def is_sweep(self) -> bool:
        return bool(self.sizes)

    @property
    def _values(self) -> dict[str, str]:
        return _config_values(self.template)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(m.strip() for m in self._values["methods"].split(","))

    @property
    def trials(self) -> int:
        return int(self._values["trials"])

    @property
    def length(self) -> int:
        return int(self._values["scenario.length"])

    @property
    def heatmap_frames(self) -> tuple[int, ...]:
        values = self._values
        if values.get("output.emit_heatmaps", "false") != "true":
            return ()
        raw = values.get("output.heatmap_frames", "")
        return tuple(int(part) for part in raw.split(",") if part.strip())

    @property
    def frames(self) -> int:
        """Corrected-and-scored frames per invocation."""
        streams = len(self.sizes) if self.is_sweep else len(self.methods)
        return streams * self.trials * self.length


SWEEP_SIZES = (2, 4, 8, 16, 32, 64)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("example", EXAMPLE_CONFIG, ("simulate",), default_seed=1234),
        Workload(
            "window_sweep",
            EXAMPLE_CONFIG,
            ("ablate-window", "--sizes", ",".join(map(str, SWEEP_SIZES))),
            default_seed=1234,
            sizes=SWEEP_SIZES,
        ),
        Workload(
            "moving_feedback",
            MOVING_FEEDBACK_CONFIG,
            ("simulate",),
            default_seed=1234,
        ),
    )
}
