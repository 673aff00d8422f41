"""Flat key=value experiment configs with section prefixes.

Lines look like ``rl.epsilon = 0.1``; ``#`` starts a comment.  Every key has
a default, so an empty file is a valid config.  Parse errors carry the line
number they came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .controller import ControllerConfig
from .midae import MiDaeConfig
from .ranges import inside, out_of_range, within
from .stream import StreamSpec, held_out_count

POLICIES = ("sdae", "midae", "radae")


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass
class NetConfig:
    widths: tuple[int, ...] = field(default=(32, 32, 32), metadata=within("[1, inf)"))  # each width
    learning_rate: float = field(default=0.2, metadata=within("(0, inf)"))
    corruption: float = field(default=0.2, metadata=within("[0, 1]"))
    hybrid_weight: float = field(default=0.2, metadata=within("[0, inf)"))
    pretrain_batches: int = field(default=0, metadata=within("[0, inf)"))
    pretrain_epochs: int = field(default=1, metadata=within("[0, inf)"))


@dataclass
class PoolConfig:
    capacity: int = 10000
    distance_threshold: float = field(default=0.7, metadata=within("[0, 1]"))


@dataclass
class ExperimentConfig:
    policy: str = field(default="radae", metadata=within("{" + ", ".join(POLICIES) + "}"))
    seed: int = field(default=0, metadata=within("[0, inf)"))
    out: str = "trace.csv"
    summary_last: int = field(default=250, metadata=within("[1, inf)"))
    test_fraction: float = field(default=0.2, metadata=within("(0, 1)"))
    kind: str = field(default="synth", metadata=within("{synth, idx}"))
    per_class: int = 200
    spread: float = field(default=0.1, metadata=within("[0, inf)"))
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
# runs seed their stream from the master seed
_UNSETTABLE = ("stream.seed",)


def _top_key(name: str) -> str:
    return f"stream.{name}" if name in _SOURCE_FIELDS else name


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
            keys[_top_key(top.name)] = (None, top.name, top.type)
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


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def format_config(cfg: ExperimentConfig) -> str:
    """Config text that ``parse_config`` reads back equal to ``cfg``: one
    ``key = value`` line per key, in table order.  A string must hold no
    ``#``, no line break and no outer whitespace to come back unchanged."""
    lines = []
    for key, (section, attr, _) in _KEYS.items():
        value = getattr(cfg if section is None else getattr(cfg, section), attr)
        lines.append(f"{key} = {_format_value(value)}".rstrip() + "\n")
    return "".join(lines)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def validate_experiment(cfg: ExperimentConfig) -> list[str]:
    """Every value outside its key's range and every broken cross-field rule;
    empty when valid."""
    problems = out_of_range(cfg, _top_key)
    if cfg.kind == "idx" and not (cfg.images and cfg.labels):
        problems.append("stream.kind=idx requires stream.images and stream.labels")
    # a cross-field rule is checked only when the fields it reads lie in range
    if cfg.kind == "synth" and inside(cfg, "per_class", "test_fraction"):
        if cfg.per_class < 2 or held_out_count(cfg.test_fraction, cfg.per_class) >= cfg.per_class:
            problems.append("stream.per_class must leave each class a test and a training example under test_fraction")
    problems += out_of_range(cfg.nn, "nn.{}".format) + out_of_range(cfg.pool, "pool.{}".format)
    if inside(cfg.nn, "pretrain_batches") and inside(cfg.stream, "batches"):
        if cfg.nn.pretrain_batches > cfg.stream.batches:
            problems.append("nn.pretrain_batches must not exceed stream.batches")
    if inside(cfg.pool, "capacity") and inside(cfg.stream, "batch_size"):
        if cfg.pool.capacity < cfg.stream.batch_size:
            problems.append("pool.capacity must be at least stream.batch_size")
    for section in (cfg.stream, cfg.rl, cfg.midae):
        try:
            section.validate()
        except ValueError as err:
            problems.extend(err.args)
    return problems
