"""Flat key=value experiment configs with section prefixes.

Lines look like ``rl.epsilon = 0.1``; ``#`` starts a comment.  Every key has
a default, so an empty file is a valid config.  Parse errors carry the line
number they came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .controller import ControllerConfig
from .stream import StreamSpec

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


@dataclass
class PoolConfig:
    capacity: int = 10000
    distance_threshold: float = 0.7


@dataclass
class MiDaeConfig:
    delta_init: int = 30
    grow_step: int = 30
    merge_ratio: float = 0.2
    improve_eps: float = 0.01
    converge_eps: float = 0.001
    pool_threshold: int | None = None  # defaults to pool.capacity


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


# key -> (section attr or None, field name, parser)
_KEYS = {
    "policy": (None, "policy", str),
    "seed": (None, "seed", int),
    "out": (None, "out", str),
    "summary_last": (None, "summary_last", int),
    "test_fraction": (None, "test_fraction", float),
    "stream.kind": (None, "kind", str),
    "stream.per_class": (None, "per_class", int),
    "stream.spread": (None, "spread", float),
    "stream.images": (None, "images", str),
    "stream.labels": (None, "labels", str),
    "stream.classes": ("stream", "classes", int),
    "stream.dims": ("stream", "dims", int),
    "stream.batch_size": ("stream", "batch_size", int),
    "stream.batches": ("stream", "batches", int),
    "stream.mode": ("stream", "mode", str),
    "stream.gp_length_scale": ("stream", "gp_length_scale", _parse_optional_float),
    "stream.mask_noise": ("stream", "mask_noise", float),
    "stream.switch_at": ("stream", "switch_at", _parse_optional_int),
    "stream.skew": ("stream", "skew", float),
    "nn.widths": ("nn", "widths", _parse_widths),
    "nn.learning_rate": ("nn", "learning_rate", float),
    "nn.corruption": ("nn", "corruption", float),
    "nn.hybrid_weight": ("nn", "hybrid_weight", float),
    "nn.pretrain_batches": ("nn", "pretrain_batches", int),
    "nn.pretrain_epochs": ("nn", "pretrain_epochs", int),
    "pool.capacity": ("pool", "capacity", int),
    "pool.distance_threshold": ("pool", "distance_threshold", float),
    "rl.ema_window": ("rl", "ema_window", int),
    "rl.warmup_batches": ("rl", "warmup_batches", int),
    "rl.greedy_after": ("rl", "greedy_after", int),
    "rl.discount": ("rl", "discount", float),
    "rl.q_lr": ("rl", "q_lr", float),
    "rl.ema_alpha": ("rl", "ema_alpha", _parse_optional_float),
    "rl.epsilon": ("rl", "epsilon", float),
    "rl.delta_scale": ("rl", "delta_scale", _parse_optional_float),
    "rl.size_target": ("rl", "size_target", float),
    "rl.size_width": ("rl", "size_width", float),
    "rl.size_low": ("rl", "size_low", float),
    "rl.size_high": ("rl", "size_high", float),
    "rl.state_space": ("rl", "state_space", int),
    "rl.refit_interval": ("rl", "refit_interval", int),
    "rl.max_observations": ("rl", "max_observations", int),
    "rl.gp_noise": ("rl", "gp_noise", float),
    "midae.delta_init": ("midae", "delta_init", int),
    "midae.grow_step": ("midae", "grow_step", int),
    "midae.merge_ratio": ("midae", "merge_ratio", float),
    "midae.improve_eps": ("midae", "improve_eps", float),
    "midae.converge_eps": ("midae", "converge_eps", float),
    "midae.pool_threshold": ("midae", "pool_threshold", _parse_optional_int),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and bad values raise with line numbers."""
    cfg = ExperimentConfig()
    sections = {
        "stream": dict(),
        "nn": dict(),
        "pool": dict(),
        "rl": dict(),
        "midae": dict(),
    }
    top: dict = {}
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
        if section is None:
            top[attr] = parsed
        else:
            sections[section][attr] = parsed
    cfg = replace(cfg, **top)
    cfg.stream = replace(cfg.stream, **sections["stream"])
    cfg.nn = replace(cfg.nn, **sections["nn"])
    cfg.pool = replace(cfg.pool, **sections["pool"])
    cfg.rl = replace(cfg.rl, **sections["rl"])
    cfg.midae = replace(cfg.midae, **sections["midae"])
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Cross-field checks; returns a list of problems, empty when valid."""
    problems = []
    if cfg.policy not in POLICIES:
        problems.append(f"policy must be one of {'/'.join(POLICIES)}, got {cfg.policy!r}")
    if not 0.0 < cfg.test_fraction < 1.0:
        problems.append("test_fraction must be in (0, 1)")
    if cfg.summary_last < 1:
        problems.append("summary_last must be positive")
    if cfg.kind not in ("synth", "idx"):
        problems.append(f"stream.kind must be synth or idx, got {cfg.kind!r}")
    if cfg.kind == "idx" and not (cfg.images and cfg.labels):
        problems.append("stream.kind=idx requires stream.images and stream.labels")
    if cfg.kind == "synth" and cfg.per_class < 1:
        problems.append("stream.per_class must be positive")
    try:
        cfg.stream.validate()
    except ValueError as err:
        problems.append(str(err))
    if any(w < 1 for w in cfg.nn.widths):
        problems.append("nn.widths must all be positive")
    if not 0.0 <= cfg.nn.corruption <= 1.0:
        problems.append("nn.corruption must be a probability")
    if cfg.pool.capacity < cfg.stream.batch_size:
        problems.append("pool.capacity must hold at least one batch")
    if not 0.0 <= cfg.pool.distance_threshold <= 1.0:
        problems.append("pool.distance_threshold must be in [0, 1]")
    try:
        cfg.rl.validate()
    except ValueError as err:
        problems.append(str(err))
    if cfg.midae.improve_eps <= cfg.midae.converge_eps:
        problems.append("midae.improve_eps must exceed midae.converge_eps")
    return problems
