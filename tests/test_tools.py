"""``tools/trace_digests.py`` keeps a config set that the library accepts."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

from adaptdae.config import parse_config, validate_experiment

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_digests.py"


def test_every_trace_digest_config_validates():
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with mock.patch.dict(os.environ):  # perfbench/run.py sets the BLAS thread count
        configs = tool.trace_configs()
    assert len(configs) == 34
    for name, text in configs.items():
        assert validate_experiment(parse_config(text)) == [], name
