"""Valid intervals of config fields, stated once as dataclass field metadata:
``discount: float = field(default=0.9, metadata=within("(0, 1)"))``.

NaN lies in no interval, so ``(-inf, inf)`` means finite, and a numeric field
that states no interval must be finite.  None lies within only for a field
annotated ``| None``; a tuple lies within when each element does.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import fields
from numbers import Real


def within(interval: str) -> dict:
    """Field metadata for an interval such as ``"[0, 1)"`` or ``"(0, inf)"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return {"interval": interval, "inside": lambda v: isinstance(v, Real) and above(low, v) and below(v, high)}


# a number whose field states no interval must be finite
_FINITE = {t: within("(-inf, inf)") for t in ("int", "float", "int | None", "float | None")}


def _outside(config) -> dict[str, str]:
    """field name -> interval, for every field of ``config`` outside its interval."""
    bad = {}
    for f in fields(config):
        value, spec = getattr(config, f.name), f.metadata if "interval" in f.metadata else _FINITE.get(f.type)
        values = value if f.type.startswith("tuple") else (value,)
        if spec and not (value is None and f.type.endswith("| None")):
            if not (isinstance(values, tuple) and all(map(spec["inside"], values))):
                bad[f.name] = spec["interval"]
    return bad


def inside(config, *names: str) -> bool:
    """Whether every named field of ``config`` lies within its interval; a rule
    that reads several fields is checked only when they all do."""
    return not _outside(config).keys() & set(names)


def out_of_range(config, key: Callable[[str], str]) -> list[str]:
    """``<key> must be in <interval>, got <value>`` for every field of ``config``
    outside its interval; ``key`` names a field as a config file writes it."""
    return [f"{key(n)} must be in {interval}, got {getattr(config, n)}" for n, interval in _outside(config).items()]
