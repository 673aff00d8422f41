"""``tools/trace_digests.py`` keeps a config set that the library accepts."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

from adaptdae.config import parse_config, validate_experiment

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_trace_digest_config_validates():
    with mock.patch.dict(os.environ):  # perfbench/run.py sets the BLAS thread count
        configs = load_tool().trace_configs()
    assert len(configs) == 35
    for name, text in configs.items():
        assert validate_experiment(parse_config(text)) == [], name


def test_configs_with_equal_digests_are_named_and_fail(capsys):
    tool = load_tool()
    tiny = "policy = sdae\nstream.batches = 3\nstream.batch_size = 10\nstream.dims = 4\nnn.widths = 4\npool.capacity = 10\n"
    configs = {"a": tiny + "seed = 1\n", "b": tiny + "seed = 2\n", "c": tiny + "seed = 1\n"}
    with mock.patch.object(tool, "trace_configs", lambda root: configs):
        assert tool.main([]) == 1
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["a", "b", "c"]
    assert err == "equal digests: a c\n"
