"""Experiment configuration: typed container plus flat-file parser.

Config files are plain text, one dotted key per line:

    scenario.n = 64
    noise.kind = gaussian-iid
    ssr.window_k = 8
    methods = ssr,passthrough

Unknown keys are a hard error naming the key; every parse failure raises
ConfigInvalid with the offending field path in the message.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affinity import MODE_RAW_SUM, MODE_SOFTMAX, default_temperature
from .errors import ConfigInvalid
from .regularizer import STORE_RAW, SsrConfig
from .synth import NOISE_GAUSSIAN, NoiseModel, TrajectoryConfig

__all__ = [
    "METHOD_SSR",
    "METHOD_EMA",
    "METHOD_PASSTHROUGH",
    "KNOWN_METHODS",
    "ExperimentConfig",
    "parse_config_text",
    "parse_int_list",
    "load_config",
    "config_to_dict",
]

METHOD_SSR = "ssr"
METHOD_EMA = "ema"
METHOD_PASSTHROUGH = "passthrough"
KNOWN_METHODS = (METHOD_SSR, METHOD_EMA, METHOD_PASSTHROUGH)

_KNOWN_KEYS = frozenset(
    {
        "scenario.n",
        "scenario.r",
        "scenario.length",
        "scenario.seed",
        "scenario.speed",
        "scenario.waypoints",
        "scenario.state_drift",
        "noise.kind",
        "noise.sigma",
        "noise.burst_prob",
        "noise.burst_scale",
        "methods",
        "trials",
        "ssr.window_k",
        "ssr.mode",
        "ssr.temperature",
        "ssr.buffer_policy",
        "ema.alpha",
        "output.dir",
        "output.emit_heatmaps",
        "output.heatmap_frames",
    }
)
_REQUIRED_KEYS = (
    "scenario.n",
    "scenario.r",
    "scenario.length",
    "scenario.seed",
    "methods",
    "output.dir",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings."""

    trajectory: TrajectoryConfig
    noise: NoiseModel
    methods: tuple[str, ...]
    ssr: SsrConfig
    ema_alpha: float
    trials: int
    output_dir: str
    emit_heatmaps: bool = False
    heatmap_frames: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigInvalid("methods: must list at least one method")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigInvalid(
                    f"methods: unknown method {m!r}, expected one of {KNOWN_METHODS}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigInvalid("methods: duplicate method names")
        if not 0.0 <= self.ema_alpha <= 1.0:
            raise ConfigInvalid("ema.alpha: must lie in [0, 1]")
        if self.trials < 1:
            raise ConfigInvalid("trials: must be at least 1")
        if not self.output_dir:
            raise ConfigInvalid("output.dir: must be a nonempty path")
        for f in self.heatmap_frames:
            if not 0 <= f < self.trajectory.length:
                raise ConfigInvalid(
                    f"output.heatmap_frames: frame {f} outside [0, {self.trajectory.length})"
                )
        if self.ssr.mode == MODE_SOFTMAX and self.ssr.temperature is None:
            raise ConfigInvalid(
                "ssr.temperature: must be resolved to a number before running"
            )


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key/value pairs from config text; rejects unknown keys."""
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigInvalid(f"unknown config key {key!r}")
        if key in values:
            raise ConfigInvalid(f"duplicate config key {key!r}")
        values[key] = value
    return values


def _parse_int(values: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in values:
        if default is None:
            raise ConfigInvalid(f"{key}: required key is missing")
        return default
    try:
        return int(values[key])
    except ValueError:
        raise ConfigInvalid(f"{key}: expected an integer, got {values[key]!r}") from None


def _parse_float(values: dict[str, str], key: str, default: float) -> float:
    if key not in values:
        return default
    try:
        return float(values[key])
    except ValueError:
        raise ConfigInvalid(f"{key}: expected a number, got {values[key]!r}") from None


def _parse_bool(values: dict[str, str], key: str, default: bool) -> bool:
    if key not in values:
        return default
    lowered = values[key].lower()
    if lowered in {"true", "1", "yes"}:
        return True
    if lowered in {"false", "0", "no"}:
        return False
    raise ConfigInvalid(f"{key}: expected true or false, got {values[key]!r}")


def parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers such as "0,64,128"; at least one."""
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigInvalid(
            f"{what}: expected comma-separated integers, got {raw!r}"
        ) from None


def build_experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from raw key/value pairs."""
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigInvalid(f"{key}: required key is missing")
    try:
        trajectory = TrajectoryConfig(
            n=_parse_int(values, "scenario.n"),
            r=_parse_int(values, "scenario.r"),
            length=_parse_int(values, "scenario.length"),
            seed=_parse_int(values, "scenario.seed"),
            speed=_parse_float(values, "scenario.speed", 0.0),
            waypoint_count=_parse_int(values, "scenario.waypoints", 2),
            state_drift=_parse_float(values, "scenario.state_drift", 0.0),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"scenario: {exc}") from exc
    try:
        noise = NoiseModel(
            kind=values.get("noise.kind", NOISE_GAUSSIAN),
            sigma=_parse_float(values, "noise.sigma", 0.0),
            burst_prob=_parse_float(values, "noise.burst_prob", 0.0),
            burst_scale=_parse_float(values, "noise.burst_scale", 1.0),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"noise: {exc}") from exc
    mode = values.get("ssr.mode", MODE_SOFTMAX)
    temperature: float | None
    if mode == MODE_RAW_SUM:
        if "ssr.temperature" in values:
            raise ConfigInvalid("ssr.temperature: applies to softmax mode only")
        temperature = None
    elif "ssr.temperature" in values:
        temperature = _parse_float(values, "ssr.temperature", 0.0)
    else:
        # harness states live in R^n
        temperature = default_temperature(trajectory.n)
    try:
        ssr = SsrConfig(
            window_k=_parse_int(values, "ssr.window_k", 8),
            mode=mode,
            temperature=temperature,
            buffer_policy=values.get("ssr.buffer_policy", STORE_RAW),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"ssr: {exc}") from exc
    methods = tuple(
        part.strip() for part in values["methods"].split(",") if part.strip()
    )
    frames = values.get("output.heatmap_frames", "")
    return ExperimentConfig(
        trajectory=trajectory,
        noise=noise,
        methods=methods,
        ssr=ssr,
        ema_alpha=_parse_float(values, "ema.alpha", 0.5),
        trials=_parse_int(values, "trials", 1),
        output_dir=values["output.dir"],
        emit_heatmaps=_parse_bool(values, "output.emit_heatmaps", False),
        heatmap_frames=parse_int_list(frames, "output.heatmap_frames") if frames else (),
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse and resolve a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path!r}: {exc}") from exc
    return build_experiment_config(parse_config_text(text))


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical nested echo of a resolved config (JSON-ready)."""
    return {
        "scenario": {
            "n": config.trajectory.n,
            "r": config.trajectory.r,
            "length": config.trajectory.length,
            "seed": config.trajectory.seed,
            "speed": config.trajectory.speed,
            "waypoints": config.trajectory.waypoint_count,
            "state_drift": config.trajectory.state_drift,
        },
        "noise": {
            "kind": config.noise.kind,
            "sigma": config.noise.sigma,
            "burst_prob": config.noise.burst_prob,
            "burst_scale": config.noise.burst_scale,
        },
        "methods": list(config.methods),
        "trials": config.trials,
        "ssr": {
            "window_k": config.ssr.window_k,
            "mode": config.ssr.mode,
            "temperature": config.ssr.temperature,
            "buffer_policy": config.ssr.buffer_policy,
        },
        "ema": {"alpha": config.ema_alpha},
        "output": {
            "dir": config.output_dir,
            "emit_heatmaps": config.emit_heatmaps,
            "heatmap_frames": list(config.heatmap_frames),
        },
    }
