"""Valid intervals of config fields, stated once as dataclass field metadata:
``discount: float = field(default=0.9, metadata=within("(0, 1)"))``.

NaN lies in no interval, so ``(-inf, inf)`` means finite.  None lies within
only for a field annotated ``| None``; a tuple lies within when each element does.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import fields


def within(interval: str) -> dict:
    """Field metadata for an interval such as ``"[0, 1)"`` or ``"(0, inf)"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return {"interval": interval, "inside": lambda value: above(low, value) and below(value, high)}


def inside(config, name: str) -> bool:
    """Whether the field ``name`` of ``config`` lies within its interval, if it states one."""
    f = next(f for f in fields(config) if f.name == name)
    value = getattr(config, name)
    if "interval" not in f.metadata:
        return True
    if value is None:
        return f.type.endswith("| None")
    try:
        return all(map(f.metadata["inside"], value if f.type.startswith("tuple") else (value,)))
    except TypeError:  # not a number, or not a tuple of them
        return False


def out_of_range(config, key: Callable[[str], str]) -> list[str]:
    """``<key> must be in <interval>, got <value>`` for every field of ``config``
    outside its interval; ``key`` names a field as a config file writes it."""
    return [
        f"{key(f.name)} must be in {f.metadata['interval']}, got {getattr(config, f.name)}"
        for f in fields(config)
        if not inside(config, f.name)
    ]
