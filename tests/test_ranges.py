"""A config value is reported out of range exactly when it lies outside the
interval its key's field states; inside, it fails at most a cross-field
rule that names the key.  Every bad key is reported, not only the first."""

import math
from dataclasses import fields, is_dataclass

import pytest

from adaptdae.config import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    _parse_optional_float,
    _parse_optional_int,
    _parse_widths,
    _top_key,
    parse_config,
    validate_experiment,
)
from conftest import ranged_keys

RANGED = ranged_keys()
# numeric keys that state no interval, so they need only be finite: a cross-field rule or a list of names bounds each
UNRANGED = (
    "rl.warmup_batches",
    "rl.greedy_after",
    "rl.state_space",
    "midae.improve_eps",
    "stream.per_class",
    "pool.capacity",
)
BASE = "policy = radae\nstream.batches = 5\nstream.batch_size = 10\nstream.dims = 4\nnn.widths = 4\npool.capacity = 100\n"


def bounds(interval):
    low, high = (float(end) for end in interval[1:-1].split(","))
    return interval[0] == "[", low, high, interval[-1] == "]"


def lies_inside(value, interval, optional):
    if value is None:
        return optional
    closed_low, low, high, closed_high = bounds(interval)
    above = low < value or (closed_low and value == low)
    below = value < high or (closed_high and value == high)
    return above and below


def probes(interval, integral):
    """Each endpoint, the floats just inside and just outside it or the
    integers on either side, and NaN, -inf, inf and None."""
    _, low, high, _ = bounds(interval)
    values = {math.nan, -math.inf, math.inf, None}
    for end in (low, high):
        if not math.isfinite(end):
            if not integral:
                values.add(math.nextafter(end, 0.0))
        elif integral:
            values |= {end - 1, end, end + 1}
        else:
            values |= {end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)}
    return values


def text(value, integral):
    if value is None:
        return "none"
    return str(int(value)) if integral and math.isfinite(value) else repr(value)


INTEGRAL = (int, _parse_optional_int, _parse_widths)
CASES = [
    (key, interval, parser, value)
    for key, (interval, parser) in RANGED.items()
    for value in sorted(probes(interval, parser in INTEGRAL), key=str)
]


def test_the_base_config_is_valid():
    assert validate_experiment(parse_config(BASE)) == []


@pytest.mark.parametrize("key, interval, parser, value", CASES, ids=[f"{c[0]}={c[3]}" for c in CASES])
def test_a_value_is_accepted_exactly_when_it_lies_inside(key, interval, parser, value):
    inside = lies_inside(value, interval, optional=parser in (_parse_optional_int, _parse_optional_float))
    try:
        problems = validate_experiment(parse_config(f"{BASE}{key} = {text(value, parser in INTEGRAL)}\n"))
    except ConfigError:
        # the parser refuses it first, and no interval holds it
        assert not inside
        return
    reported = [p for p in problems if p.startswith(f"{key} must be in {interval}, got ")]
    assert len(reported) == (not inside), problems
    # the base config is valid, so every problem is about the key: its range
    # or a cross-field rule it takes part in, such as rl.size_low < rl.size_high
    assert all(key in p for p in problems), problems


def test_every_numeric_key_states_an_interval_or_is_named_unranged():
    # a new numeric key has to take one side
    numeric = {key for key, (_, _, parser) in _KEYS.items() if parser is not str}
    assert set(UNRANGED) <= numeric
    assert numeric - set(UNRANGED) == set(RANGED)


@pytest.mark.parametrize(
    "lines",
    [
        "seed = -1\nsummary_last = 0",
        "stream.classes = 1\nstream.skew = 0",
        "nn.learning_rate = 0\nnn.corruption = 2",
        "pool.distance_threshold = 2\npool.capacity = 1",
        "rl.discount = 1\nrl.epsilon = 2",
        "midae.delta_init = -1\nmidae.grow_step = -1",
    ],
)
def test_every_bad_key_of_a_section_is_reported(lines):
    problems = validate_experiment(parse_config(f"{BASE}{lines}\n"))
    assert [p.split()[0] for p in problems] == [line.split()[0] for line in lines.splitlines()]


def numeric_fields():
    """(key, section, field) for every field of ``ExperimentConfig()`` and its
    sections that holds a number or a tuple of them, settable or not."""
    defaults = ExperimentConfig()
    for top in fields(defaults):
        section = getattr(defaults, top.name)
        if is_dataclass(section):
            yield from ((f"{top.name}.{f.name}", top.name, f) for f in fields(section) if f.type != "str")
        elif top.type != "str":
            yield _top_key(top.name), None, top


NON_FINITE = [
    (key, section, f, value)
    for key, section, f in numeric_fields()
    for value in (None, math.inf, -math.inf, math.nan)
]


@pytest.mark.parametrize("key, section, f, value", NON_FINITE, ids=[f"{c[0]}={c[3]}" for c in NON_FINITE])
def test_a_missing_or_non_finite_number_is_reported_not_raised(key, section, f, value):
    # a config built in code can hold what no config file can parse into
    cfg = ExperimentConfig()
    setattr(cfg if section is None else getattr(cfg, section), f.name, value)
    problems = validate_experiment(cfg)
    assert isinstance(problems, list)
    if not (value is None and f.type.endswith("| None")):
        assert any(p.startswith(f"{key} must be in ") for p in problems), problems
