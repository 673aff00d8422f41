import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import strategies as st

from adaptdae.config import _KEYS, _PARSERS, ExperimentConfig
from adaptdae.network import DataBatch, init_network


def make_batch(rng, p, dims, classes, seq_id=0):
    inputs = rng.random((p, dims))
    labels = np.eye(classes)[rng.integers(0, classes, size=p)]
    return DataBatch(seq_id=seq_id, inputs=inputs, labels=labels)


def make_net(rng, dims=6, widths=(5, 4), classes=3, learning_rate=0.2, corruption_p=0.2):
    return init_network(dims, widths, classes, rng, learning_rate, corruption_p)


def ranged_keys():
    """key -> (range, parser) for every config key whose field states a range."""
    defaults = ExperimentConfig()
    ranged = {}
    for key, (section, attr, parser) in _KEYS.items():
        owner = defaults if section is None else getattr(defaults, section)
        metadata = {f.name: f.metadata for f in fields(owner)}[attr]
        if "range" in metadata:
            ranged[key] = (metadata["range"], parser)
    return ranged


def is_set(valid):
    return valid.startswith("{")


def members(valid, parser):
    """The members of a set range such as ``{1, 2, 3, 4}``, each read by ``parser``."""
    return [parser(member.strip()) for member in valid[1:-1].split(",")]


def interval_values(kind, interval):
    """Values of an ``int`` or ``float`` annotation inside ``interval``,
    finite when the field states none."""
    text = interval or "(-inf, inf)"
    low, high = (float(end) for end in text[1:-1].split(","))
    if kind == "float":
        return st.floats(
            low, high, exclude_min=text[0] == "(", exclude_max=text[-1] == ")", allow_nan=False, allow_infinity=False
        )
    low = -(2**63) if math.isinf(low) else math.floor(low) + 1 if text[0] == "(" else math.ceil(low)
    high = 2**63 if math.isinf(high) else math.ceil(high) - 1 if text[-1] == ")" else math.floor(high)
    return st.integers(low, high)


# a string that one config line carries unchanged
CONFIG_STRINGS = st.text().filter(lambda t: "#" not in t and t == t.strip() and len(t.splitlines()) <= 1)


def key_values(annotation, valid):
    """Values of ``annotation`` inside the range ``valid``, if there is one."""
    if valid and is_set(valid):
        return st.sampled_from(members(valid, _PARSERS[annotation]))
    if annotation == "str":
        return CONFIG_STRINGS
    if annotation == "tuple[int, ...]":
        return st.lists(interval_values("int", valid), min_size=1, max_size=4).map(tuple)
    values = interval_values(annotation.removesuffix(" | None"), valid)
    return st.none() | values if annotation.endswith("| None") else values


@st.composite
def configs(draw):
    """An ``ExperimentConfig`` with every settable key drawn from its field's
    annotation and range."""
    cfg = ExperimentConfig()
    for key, (section, attr, _) in _KEYS.items():
        owner = cfg if section is None else getattr(cfg, section)
        f = {f.name: f for f in fields(owner)}[attr]
        setattr(owner, attr, draw(key_values(f.type, f.metadata.get("range")), label=key))
    return cfg


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
