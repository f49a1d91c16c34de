"""Experiment configuration: typed container plus flat-file parser.

Config files are plain text, one dotted key per line:

    scenario.n = 64
    noise.kind = gaussian-iid
    ssr.window_k = 8
    methods = ssr,passthrough

Keys, their parsers and the summary.json echo all come from one table,
_SCHEMA, which maps each key to the ExperimentConfig section and field it
sets. Defaults live only in the dataclasses; a key whose field has none
is required. Unknown keys are a hard error naming the key; every parse
failure raises ConfigInvalid with the offending field path in the message.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, replace

from .affinity import MODE_SOFTMAX, default_temperature
from .errors import ConfigInvalid
from .regularizer import SsrConfig
from .synth import NoiseModel, TrajectoryConfig

__all__ = [
    "METHOD_SSR",
    "METHOD_EMA",
    "ExperimentConfig",
    "parse_int_list",
    "load_config",
    "config_to_dict",
]

METHOD_SSR = "ssr"
METHOD_EMA = "ema"
METHOD_PASSTHROUGH = "passthrough"
KNOWN_METHODS = (METHOD_SSR, METHOD_EMA, METHOD_PASSTHROUGH)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings.

    source_sha256 is the sha256 of the config file bytes load_config
    parsed (None for a config built in code); it is provenance, not a
    setting, so it takes no part in comparisons and no part in the echo.
    """

    trajectory: TrajectoryConfig
    noise: NoiseModel
    methods: tuple[str, ...]
    ssr: SsrConfig
    output_dir: str
    ema_alpha: float = 0.5
    trials: int = 1
    emit_heatmaps: bool = False
    heatmap_frames: tuple[int, ...] = ()
    source_sha256: str | None = field(default=None, compare=False)

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
            raise ConfigInvalid("ssr.temperature: must be resolved to a number before running")


def _flag(raw: str) -> bool:
    lowered = raw.lower()
    if lowered not in {"true", "1", "yes", "false", "0", "no"}:
        raise ValueError(raw)
    return lowered in {"true", "1", "yes"}


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _frames(raw: str) -> tuple[int, ...]:
    return _ints(raw) if raw else ()


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# What each parser that can fail expects, for the error message.
_EXPECTED = {
    int: "an integer", float: "a number", _flag: "true or false",
    _ints: "comma-separated integers", _frames: "comma-separated integers",
}

# The dataclass of each ExperimentConfig section; None is its own fields.
_SECTIONS = {
    "trajectory": TrajectoryConfig, "noise": NoiseModel, "ssr": SsrConfig, None: ExperimentConfig,
}

# dotted key -> (section, field, parser of the value text)
_SCHEMA = {
    "scenario.n": ("trajectory", "n", int),
    "scenario.r": ("trajectory", "r", int),
    "scenario.length": ("trajectory", "length", int),
    "scenario.seed": ("trajectory", "seed", int),
    "scenario.speed": ("trajectory", "speed", float),
    "scenario.waypoints": ("trajectory", "waypoint_count", int),
    "scenario.state_drift": ("trajectory", "state_drift", float),
    "noise.kind": ("noise", "kind", str),
    "noise.sigma": ("noise", "sigma", float),
    "noise.burst_prob": ("noise", "burst_prob", float),
    "noise.burst_scale": ("noise", "burst_scale", float),
    "methods": (None, "methods", _names),
    "trials": (None, "trials", int),
    "ssr.window_k": ("ssr", "window_k", int),
    "ssr.mode": ("ssr", "mode", str),
    "ssr.temperature": ("ssr", "temperature", float),
    "ssr.buffer_policy": ("ssr", "buffer_policy", str),
    "ema.alpha": (None, "ema_alpha", float),
    "output.dir": (None, "output_dir", str),
    "output.emit_heatmaps": (None, "emit_heatmaps", _flag),
    "output.heatmap_frames": (None, "heatmap_frames", _frames),
}
_KNOWN_KEYS = frozenset(_SCHEMA)


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


def _parse(key: str, raw: str, parser):
    try:
        return parser(raw)
    except ValueError:
        raise ConfigInvalid(f"{key}: expected {_EXPECTED[parser]}, got {raw!r}") from None


def parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers such as "0,64,128"; at least one."""
    return _parse(what, raw, _ints)


def _build(cls, prefix: str, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigInvalid(f"{prefix}: {exc}") from exc


def build_experiment_config(values: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from raw key/value pairs."""
    kwargs: dict = {section: {} for section in _SECTIONS}
    for key, (section, field, parser) in _SCHEMA.items():
        if key in values:
            kwargs[section][field] = _parse(key, values[key], parser)
        elif _SECTIONS[section].__dataclass_fields__[field].default is MISSING:
            raise ConfigInvalid(f"{key}: required key is missing")
    trajectory = _build(TrajectoryConfig, "scenario", kwargs["trajectory"])
    noise = _build(NoiseModel, "noise", kwargs["noise"])
    ssr = _build(SsrConfig, "ssr", kwargs["ssr"])
    if ssr.mode == MODE_SOFTMAX and ssr.temperature is None:
        # harness states live in R^n
        ssr = replace(ssr, temperature=default_temperature(trajectory.n))
    return ExperimentConfig(trajectory=trajectory, noise=noise, ssr=ssr, **kwargs[None])


def load_config(path: str) -> ExperimentConfig:
    """Parse and resolve a config file; source_sha256 is the sha256 of the bytes parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path!r}: {exc}") from exc
    config = build_experiment_config(parse_config_text(text))
    return replace(config, source_sha256=hashlib.sha256(data).hexdigest())


def config_to_dict(config: ExperimentConfig) -> dict:
    """Canonical nested echo of a resolved config (JSON-ready), keyed as the config file is."""
    echo: dict = {}
    for key, (section, field, _) in _SCHEMA.items():
        value = getattr(config if section is None else getattr(config, section), field)
        head, _, name = key.rpartition(".")
        (echo.setdefault(head, {}) if head else echo)[name] = (
            list(value) if isinstance(value, tuple) else value
        )
    return echo
