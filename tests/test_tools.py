"""``tools/trace_digests.py`` keeps a config set that the library accepts;
``tools/claims.py`` reports the 20-seed claims in a fixed shape."""

import importlib.util
import json
import math
import os
from pathlib import Path
from unittest import mock

import pytest

from adaptdae.config import parse_config, validate_experiment

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="trace_digests"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_trace_digest_config_validates():
    with mock.patch.dict(os.environ):  # perfbench/run.py sets the BLAS thread count
        configs = load_tool().trace_configs()
    assert len(configs) == 37
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


@pytest.fixture
def claims(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # as when run as a script
    return load_tool("claims")


def test_claims_report_shape_on_two_seeds(claims, capsys):
    with mock.patch.dict(os.environ):  # perfbench/run.py sets the BLAS thread count
        assert claims.main(["--seeds", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"machine", "summary", "seeds"}
    assert {"nproc", "numpy", "scipy", "blas"} <= set(report["machine"])
    rows = report["seeds"]
    assert [row["seed"] for row in rows] == [1, 2]
    for row in rows:
        assert set(row) == {"seed", "e_glb_mean", "switch_increments", "stationary_increments"}
        assert set(row["e_glb_mean"]) == {"sdae", "midae", "radae"}
        assert all(0.0 <= e <= 1.0 for e in row["e_glb_mean"].values())
        assert 0 <= row["stationary_increments"] <= 20 and 0 <= row["switch_increments"] <= 20
    summary = report["summary"]
    assert summary == claims.summarise(rows)
    for key in ("radae_below_sdae", "radae_at_or_below_midae", "midae_above_sdae", "responders"):
        assert summary[key] in (0, 1, 2)
    for key in ("radae_minus_sdae", "radae_minus_midae", "midae_minus_sdae"):
        assert set(summary[key]) == {"mean", "se"} and summary[key]["se"] >= 0.0
    assert len(summary["gate_chance"]) == 3
    assert all(0.0 <= p <= 1.0 for p in summary["gate_chance"].values())


def test_claims_gate_chance_is_the_binomial_tail(claims):
    # 13 responders in 20 seeds: 4 or more of 5 fresh seeds
    assert math.isclose(claims.at_least(4, 5, 13 / 20), 5 * 0.65**4 * 0.35 + 0.65**5)
    assert claims.at_least(3, 5, 1.0) == 1.0 and claims.at_least(1, 5, 0.0) == 0.0
