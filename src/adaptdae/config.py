"""Flat key=value experiment configs with section prefixes.

Lines look like ``rl.epsilon = 0.1``; ``#`` starts a comment.  Every key has
a default, so an empty file is a valid config.  Parse errors carry the line
number they came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from .controller import ControllerConfig
from .midae import MiDaeConfig
from .stream import StreamSpec, held_out_count

POLICIES = ("sdae", "midae", "radae")


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass
class NetConfig:
    widths: tuple[int, ...] = (32, 32, 32)
    learning_rate: float = 0.2
    corruption: float = 0.2
    hybrid_weight: float = 0.2
    pretrain_batches: int = 0
    pretrain_epochs: int = 1

    def validate(self) -> None:
        if any(w < 1 for w in self.widths):
            raise ValueError("nn.widths must all be positive")
        if not 0.0 <= self.corruption <= 1.0:
            raise ValueError("nn.corruption must be a probability")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("nn.learning_rate must be finite and positive")
        if not (math.isfinite(self.hybrid_weight) and self.hybrid_weight >= 0):
            raise ValueError("nn.hybrid_weight must be finite and non-negative")
        for key in ("pretrain_batches", "pretrain_epochs"):
            if getattr(self, key) < 0:
                raise ValueError(f"nn.{key} must be non-negative")


@dataclass
class PoolConfig:
    capacity: int = 10000
    distance_threshold: float = 0.7


@dataclass
class ExperimentConfig:
    policy: str = "radae"
    seed: int = 0
    out: str = "trace.csv"
    summary_last: int = 250
    test_fraction: float = 0.2
    kind: str = "synth"  # synth | idx
    per_class: int = 200
    spread: float = 0.1
    images: str = ""
    labels: str = ""
    stream: StreamSpec = field(default_factory=lambda: StreamSpec(classes=3, dims=16))
    nn: NetConfig = field(default_factory=NetConfig)
    pool: PoolConfig = field(default_factory=PoolConfig)
    rl: ControllerConfig = field(default_factory=ControllerConfig)
    midae: MiDaeConfig = field(default_factory=MiDaeConfig)


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise ValueError(f"cannot parse widths {text!r}")
    if not widths:
        raise ValueError("widths must list at least one layer")
    return widths


def _parse_optional_float(text: str) -> float | None:
    return None if text.lower() in ("none", "") else float(text)


def _parse_optional_int(text: str) -> int | None:
    return None if text.lower() in ("none", "") else int(text)


_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "int | None": _parse_optional_int,
    "float | None": _parse_optional_float,
    "tuple[int, ...]": _parse_widths,
}
# the source settings are ExperimentConfig fields but read as stream keys
_SOURCE_FIELDS = ("kind", "per_class", "spread", "images", "labels")
# runs seed their stream from the master seed, and the short windows are fixed
_UNSETTABLE = ("stream.seed", "rl.short_windows")


def _key_table() -> dict:
    """key -> (section attr or None, field name, parser), one key per field:
    a field holding a dataclass is a section and its fields are its keys."""
    defaults = ExperimentConfig()
    keys = {}
    for top in fields(defaults):
        value = getattr(defaults, top.name)
        if is_dataclass(value):
            for f in fields(value):
                keys[f"{top.name}.{f.name}"] = (top.name, f.name, f.type)
        else:
            prefix = "stream." if top.name in _SOURCE_FIELDS else ""
            keys[prefix + top.name] = (None, top.name, top.type)
    # the annotations are strings; an unknown one fails here, at import
    return {k: (s, a, _PARSERS[t]) for k, (s, a, t) in keys.items() if k not in _UNSETTABLE}


_KEYS = _key_table()


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and bad values raise with line numbers."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        section, attr, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {err}", lineno)
        setattr(cfg if section is None else getattr(cfg, section), attr, parsed)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Cross-field checks; returns a list of problems, empty when valid."""
    problems = []
    if cfg.policy not in POLICIES:
        problems.append(f"policy must be one of {'/'.join(POLICIES)}, got {cfg.policy!r}")
    if cfg.seed < 0:
        problems.append("seed must be non-negative")
    if not 0.0 < cfg.test_fraction < 1.0:
        problems.append("test_fraction must be in (0, 1)")
    if cfg.summary_last < 1:
        problems.append("summary_last must be positive")
    if cfg.kind not in ("synth", "idx"):
        problems.append(f"stream.kind must be synth or idx, got {cfg.kind!r}")
    if cfg.kind == "idx" and not (cfg.images and cfg.labels):
        problems.append("stream.kind=idx requires stream.images and stream.labels")
    if cfg.kind == "synth":
        n_test = held_out_count(cfg.test_fraction, cfg.per_class) if 0.0 < cfg.test_fraction < 1.0 else 1
        if cfg.per_class < 2 or n_test >= cfg.per_class:
            problems.append("stream.per_class must leave each class a test and a training example")
    if not 0.0 <= cfg.spread < math.inf:
        problems.append("stream.spread must be finite and non-negative")
    try:
        cfg.stream.validate()
    except ValueError as err:
        problems.append(str(err))
    if cfg.nn.pretrain_batches > cfg.stream.batches:
        problems.append("nn.pretrain_batches must not exceed stream.batches")
    if cfg.pool.capacity < cfg.stream.batch_size:
        problems.append("pool.capacity must hold at least one batch")
    if not 0.0 <= cfg.pool.distance_threshold <= 1.0:
        problems.append("pool.distance_threshold must be in [0, 1]")
    for section in (cfg.nn, cfg.rl, cfg.midae):
        try:
            section.validate()
        except ValueError as err:
            problems.append(str(err))
    return problems
