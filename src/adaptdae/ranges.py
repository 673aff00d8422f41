"""Valid values of config fields, stated once as dataclass field metadata:
an interval, ``discount: float = field(default=0.9, metadata=within("(0, 1)"))``,
or a set, ``within("{synth, idx}")``, whose members compare as numbers where they parse as ones.

NaN lies in no interval, so ``(-inf, inf)`` means finite, and a numeric field
that states no range must be finite.  None lies within only for a field
annotated ``| None``; a tuple lies within when each element does.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import fields
from numbers import Real


def _member(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def within(valid: str) -> dict:
    """Field metadata for an interval such as ``"[0, 1)"`` or a set such as ``"{1, 2, 3, 4}"``."""
    parts = valid[1:-1].split(",")
    if valid[0] == "{":
        members = tuple(_member(part.strip()) for part in parts)
        return {"range": valid, "inside": lambda v: v in members}
    low, high = map(float, parts)
    above = operator.le if valid[0] == "[" else operator.lt
    below = operator.le if valid[-1] == "]" else operator.lt
    return {"range": valid, "inside": lambda v: isinstance(v, Real) and above(low, v) and below(v, high)}


# a number whose field states no range must be finite
_FINITE = {t: within("(-inf, inf)") for t in ("int", "float", "int | None", "float | None")}


def _outside(config) -> dict[str, str]:
    """field name -> range, for every field of ``config`` outside its range."""
    bad = {}
    for f in fields(config):
        value, spec = getattr(config, f.name), f.metadata if "range" in f.metadata else _FINITE.get(f.type)
        values = value if f.type.startswith("tuple") else (value,)
        if spec and not (value is None and f.type.endswith("| None")):
            if not (isinstance(values, tuple) and all(map(spec["inside"], values))):
                bad[f.name] = spec["range"]
    return bad


def inside(config, *names: str) -> bool:
    """Whether every named field of ``config`` lies within its range; a rule
    that reads several fields is checked only when they all do."""
    return not _outside(config).keys() & set(names)


def _shown(value) -> str:
    # a string is quoted, so an empty one or one with spaces reads as itself
    return repr(value) if isinstance(value, str) else str(value)


def out_of_range(config, key: Callable[[str], str]) -> list[str]:
    """``<key> must be in <range>, got <value>`` for every field of ``config``
    outside its range, a string value quoted; ``key`` names a field as a
    config file writes it."""
    return [f"{key(n)} must be in {valid}, got {_shown(getattr(config, n))}" for n, valid in _outside(config).items()]
