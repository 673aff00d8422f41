"""A config value is reported out of range exactly when it lies outside the
range its key's field states, an interval or a set; inside, it fails at most
a cross-field rule that names the key.  Every bad key is reported, not only
the first."""

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
from conftest import is_set, members, ranged_keys

RANGED = ranged_keys()
# numeric keys that state no range, so they need only be finite: a cross-field rule bounds each
UNRANGED = (
    "rl.warmup_batches",
    "rl.greedy_after",
    "midae.improve_eps",
    "stream.per_class",
    "pool.capacity",
)
BASE = "policy = radae\nstream.batches = 5\nstream.batch_size = 10\nstream.dims = 4\nnn.widths = 4\npool.capacity = 100\n"


def bounds(interval):
    low, high = (float(end) for end in interval[1:-1].split(","))
    return interval[0] == "[", low, high, interval[-1] == "]"


def lies_inside(value, valid, parser):
    if value is None:
        return parser in (_parse_optional_int, _parse_optional_float)
    if is_set(valid):
        return value in members(valid, parser)
    closed_low, low, high, closed_high = bounds(valid)
    above = low < value or (closed_low and value == low)
    below = value < high or (closed_high and value == high)
    return above and below


def probes(valid, parser):
    """For a set, each member, an unknown name and the empty string or the
    integers on either side and a number between the members, NaN and None.
    For an interval, each endpoint, the floats just inside and just outside
    it or the integers on either side, and NaN, -inf, inf and None."""
    if is_set(valid):
        known = members(valid, parser)
        strays = {"", "unknown"} if parser is str else {min(known) - 1, max(known) + 1, (min(known) + max(known)) / 2}
        return {*known, *strays, math.nan, None}
    integral = parser in INTEGRAL
    _, low, high, _ = bounds(valid)
    found = {math.nan, -math.inf, math.inf, None}
    for end in (low, high):
        if not math.isfinite(end):
            if not integral:
                found.add(math.nextafter(end, 0.0))
        elif integral:
            found |= {end - 1, end, end + 1}
        else:
            found |= {end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)}
    return found


def text(value, integral):
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    return str(int(value)) if integral and math.isfinite(value) and float(value).is_integer() else repr(value)


INTEGRAL = (int, _parse_optional_int, _parse_widths)
CASES = [
    (key, valid, parser, value)
    for key, (valid, parser) in RANGED.items()
    for value in sorted(probes(valid, parser), key=str)
]


def test_the_base_config_is_valid():
    assert validate_experiment(parse_config(BASE)) == []


@pytest.mark.parametrize("key, valid, parser, value", CASES, ids=[f"{c[0]}={c[3]}" for c in CASES])
def test_a_value_is_accepted_exactly_when_it_lies_inside(key, valid, parser, value):
    inside = lies_inside(value, valid, parser)
    try:
        problems = validate_experiment(parse_config(f"{BASE}{key} = {text(value, parser in INTEGRAL)}\n"))
    except ConfigError:
        # the parser refuses it first, and no range holds it
        assert not inside
        return
    reported = [p for p in problems if p.startswith(f"{key} must be in {valid}, got ")]
    assert len(reported) == (not inside), problems
    # the base config is valid, so every problem is about the key: its range
    # or a cross-field rule it takes part in, such as rl.size_low < rl.size_high
    assert all(key in p for p in problems), problems


def test_every_numeric_key_states_an_interval_or_is_named_unranged():
    # a new numeric key has to take one side
    numeric = {key for key, (_, _, parser) in _KEYS.items() if parser is not str}
    assert set(UNRANGED) <= numeric
    assert numeric - set(UNRANGED) == set(RANGED) & numeric


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


@pytest.mark.parametrize("value", [1, 3, 3.0, 4, 0, 5, 2.5, math.nan, None])
def test_a_set_compares_a_number_as_a_number(value):
    # a config built in code can hold a float where a config file holds an int
    cfg = ExperimentConfig()
    cfg.rl.state_space = value
    expected = [] if value in (1, 2, 3, 4) else [f"rl.state_space must be in {{1, 2, 3, 4}}, got {value}"]
    assert validate_experiment(cfg) == expected
