from dataclasses import fields

import numpy as np
import pytest

from adaptdae.config import _KEYS, ExperimentConfig
from adaptdae.network import DataBatch, init_network


def make_batch(rng, p, dims, classes, seq_id=0):
    inputs = rng.random((p, dims))
    labels = np.eye(classes)[rng.integers(0, classes, size=p)]
    return DataBatch(seq_id=seq_id, inputs=inputs, labels=labels)


def make_net(rng, dims=6, widths=(5, 4), classes=3, learning_rate=0.2, corruption_p=0.2):
    return init_network(dims, widths, classes, rng, learning_rate, corruption_p)


def ranged_keys():
    """key -> (interval, parser) for every config key whose field states an interval."""
    defaults = ExperimentConfig()
    ranged = {}
    for key, (section, attr, parser) in _KEYS.items():
        owner = defaults if section is None else getattr(defaults, section)
        metadata = {f.name: f.metadata for f in fields(owner)}[attr]
        if "interval" in metadata:
            ranged[key] = (metadata["interval"], parser)
    return ranged


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
