"""``tools/trace_digests.py`` keeps a config set that the library accepts;
``tools/claims.py`` reports the 20-seed claims in a fixed shape."""

import importlib.util
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace
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
    assert len(configs) == 38
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
        assert set(row) == {
            "seed",
            "e_glb_mean",
            "switch_increments",
            "stationary_increments",
            "stationary_e_glb_mean",
            "switch_window",
        }
        for errors in (row["e_glb_mean"], row["stationary_e_glb_mean"]):
            assert set(errors) == {"sdae", "midae", "radae"}
            assert all(0.0 <= e <= 1.0 for e in errors.values())
        assert 0 <= row["stationary_increments"] <= 20 and 0 <= row["switch_increments"] <= 20
        window = row["switch_window"]
        grew = row["switch_increments"] > 0
        assert set(window) == {"actions", "increments_sized_0", "q_increment_largest", "headroom"} | (
            set() if grew else {"why"}
        )
        assert list(window["actions"]) == ["pool", "increment", "merge"] and sum(window["actions"].values()) == 20
        # a growing increment is neither sized to 0 nor counted twice
        assert window["increments_sized_0"] + row["switch_increments"] == window["actions"]["increment"]
        assert window["q_increment_largest"] == sorted(set(window["q_increment_largest"]))
        assert all(150 <= b < 170 for b in window["q_increment_largest"])
        assert window["headroom"] >= 0
        if not grew:
            assert window["why"] in claims.WHY
    summary = report["summary"]
    assert summary == claims.summarise(rows)
    stationary = summary["stationary_e_glb"]
    counts = ("radae_below_sdae", "radae_at_or_below_midae", "midae_above_sdae")
    differences = ("radae_minus_sdae", "radae_minus_midae", "midae_minus_sdae")
    assert set(stationary) == {*counts, *differences}
    for part in (summary, stationary):
        for key in counts:
            assert part[key] in (0, 1, 2)
        for key in differences:
            assert set(part[key]) == {"mean", "se"} and part[key]["se"] >= 0.0
    assert summary["responders"] in (0, 1, 2)
    assert list(summary["why"]) == list(claims.WHY)
    assert sum(summary["why"].values()) == 2 - summary["responders"]
    # the stationary summary is read from the stationary rows, which come
    # from runs of their own
    flat = [row["stationary_e_glb_mean"] for row in rows]
    assert all(row["stationary_e_glb_mean"] != row["e_glb_mean"] for row in rows)
    assert stationary["radae_below_sdae"] == sum(e["radae"] < e["sdae"] for e in flat)
    assert math.isclose(stationary["radae_minus_sdae"]["mean"], sum(e["radae"] - e["sdae"] for e in flat) / 2)
    assert len(summary["gate_chance"]) == 3
    assert all(0.0 <= p <= 1.0 for p in summary["gate_chance"].values())


class Record:
    """The trace columns ``switch_window`` reads."""

    def __init__(self, batch, action="pool", delta=0, width=30, q=(0.0, -1.0, -1.0)):
        self.batch, self.action, self.delta, self.widths = batch, action, delta, (width,)
        self.q_pool, self.q_increment, self.q_merge = q


@pytest.mark.parametrize(
    "late, why",
    [
        (Record(160, "increment", 2), None),
        (Record(160, width=64), "corridor full"),
        (Record(160, "increment", 0), "increment never preferred"),
        (Record(160, "increment", 0, q=(0.0, 0.0, -1.0)), "sized to 0"),  # a tie counts as largest
    ],
)
def test_claims_why_follows_the_docstring_rule(claims, late, why):
    cfg = SimpleNamespace(rl=SimpleNamespace(size_high=2.0), nn=SimpleNamespace(widths=(32, 32)))
    records = [Record(b) for b in range(170)]
    records[160] = late
    window = claims.switch_window(records, cfg)
    assert window.get("why") == why
    assert window["headroom"] == 64 - late.widths[0]
    assert window["q_increment_largest"] == ([160] if late.q_increment == 0.0 else [])


def test_claims_gate_chance_is_the_binomial_tail(claims):
    # 13 responders in 20 seeds: 4 or more of 5 fresh seeds
    assert math.isclose(claims.at_least(4, 5, 13 / 20), 5 * 0.65**4 * 0.35 + 0.65**5)
    assert claims.at_least(3, 5, 1.0) == 1.0 and claims.at_least(1, 5, 0.0) == 0.0
