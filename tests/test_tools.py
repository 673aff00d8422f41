"""``tools/trace_digests.py`` keeps a config set that the library accepts;
``tools/claims.py`` reports the 20-seed claims in a fixed shape."""

import importlib.util
import json
import math
import os
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from adaptdae.config import format_config, parse_config, validate_experiment

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


TINY = "policy = sdae\nstream.batches = 3\nstream.batch_size = 10\nstream.dims = 4\nnn.widths = 4\npool.capacity = 10\n"


def test_the_committed_baseline_holds_every_config_once():
    tool = load_tool()
    with mock.patch.dict(os.environ):  # perfbench/run.py sets the BLAS thread count
        configs = tool.trace_configs()
    header, digests = tool.read_baseline(TOOLS / "trace_digests.txt")
    assert list(digests) == list(configs)
    assert set(header) == set(tool.versions())
    assert len(set(digests.values())) == len(digests)


def test_ci_installs_the_versions_the_baseline_names():
    # so that --check in CI compares digests made by the same Python, numpy and scipy
    header, _ = load_tool().read_baseline(TOOLS / "trace_digests.txt")
    workflow = (TOOLS.parent / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.findall(r"python-version: \"([^\"]+)\"", workflow) == [header["python"]]
    assert re.findall(r"\b(numpy|scipy)==(\S+)", workflow) == [("numpy", header["numpy"]), ("scipy", header["scipy"])]
    assert "tools/trace_digests.py --check tools/trace_digests.txt" in workflow


def test_configs_with_equal_digests_are_named_and_fail(capsys):
    tool = load_tool()
    configs = {"a": TINY + "seed = 1\n", "b": TINY + "seed = 2\n", "c": TINY + "seed = 1\n"}
    with mock.patch.object(tool, "trace_configs", lambda root: configs):
        assert tool.main([]) == 1
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["a", "b", "c"]
    assert err == "equal digests: a c\n"


def test_check_names_each_config_whose_digest_differs_and_fails(tmp_path, capsys):
    tool = load_tool()
    configs = {name: TINY + f"seed = {seed}\n" for seed, name in enumerate("abc", 1)}
    baseline = tmp_path / "baseline.txt"
    with mock.patch.object(tool, "trace_configs", lambda root: configs):
        assert tool.main(["--write", str(baseline)]) == 0
        written = capsys.readouterr().out
        assert tool.main(["--check", str(baseline)]) == 0
        assert capsys.readouterr() == (written, "")
        header, digests = tool.read_baseline(baseline)
        assert header == tool.versions() and list(digests) == ["a", "b", "c"]
        assert baseline.read_text().endswith(written)
        # b's digest edited, c missing and d new: each differs from the run
        lines = baseline.read_text().splitlines()
        edited = tmp_path / "edited.txt"
        lines[-2] = "b " + "0" * 64
        edited.write_text("\n".join(lines[:-1] + ["d " + "1" * 64]) + "\n")
        assert tool.main(["--check", str(edited)]) == 1
    out, err = capsys.readouterr()
    assert out == written
    assert err == f"digests differ from {edited}: b d c\n"


@pytest.mark.parametrize("key", ["python", "numpy", "scipy", "numpy-blas", "scipy-blas"])
def test_check_on_other_versions_exits_with_its_own_code_before_running(key, tmp_path, capsys):
    tool = load_tool()
    running = tool.versions()
    baseline = tmp_path / "baseline.txt"
    header = {**running, key: running[key] + ".1"}
    baseline.write_text("".join(f"# {k} {v}\n" for k, v in header.items()) + "a " + "0" * 64 + "\n")

    def no_run(*args, **kwargs):
        raise AssertionError("a config ran")

    with mock.patch.object(tool, "trace_configs", lambda root: {"a": TINY}):
        with mock.patch("adaptdae.harness.run_experiment", no_run):
            assert tool.main(["--check", str(baseline)]) == tool.VERSIONS_DIFFER != 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"versions differ: {key} {header[key]} in {baseline}, {running[key]} here\n"


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
            "action_mix",
            "ablations",
            "midae_pool_threshold",
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
        # radae's actions from rl.greedy_after = 60 on, of 300 batches
        assert list(row["action_mix"]) == ["nonstationary", "stationary"]
        for mix in row["action_mix"].values():
            assert list(mix) == ["pool", "width_changed", "sized_0"] and sum(mix.values()) == 240
        assert list(row["ablations"]) == ["pool_always", "random_actions"]
        for ablation in row["ablations"].values():
            assert set(ablation) == {"e_glb_mean", "stationary_e_glb_mean", "switch_increments"}
            assert 0 <= ablation["switch_increments"] <= 20
        assert row["ablations"]["pool_always"]["switch_increments"] == 0  # it never increments
        assert list(row["midae_pool_threshold"]) == ["500", "4500"]
        variants = [*row["ablations"].values(), *row["midae_pool_threshold"].values()]
        for variant in variants:
            for key in ("e_glb_mean", "stationary_e_glb_mean"):
                assert 0.0 <= variant[key] <= 1.0
                # a variant runs a config of its own
                assert variant[key] not in row[key].values()
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
    # each variant against sdae and against its own policy, on each desk stream
    references = {**{name: "radae" for name in claims.ABLATIONS}, **{f"midae_{k}": "midae" for k in (500, 4500)}}
    compared = {**summary["ablations"], **{f"midae_{k}": v for k, v in summary["midae_pool_threshold"].items()}}
    assert list(compared) == list(references)
    for name, reference in references.items():
        for stream in ("nonstationary", "stationary"):
            part = compared[name][stream]
            assert list(part) == [
                f"{name}_below_sdae",
                f"{name}_at_or_below_{reference}",
                f"{name}_minus_sdae",
                f"{name}_minus_{reference}",
            ]
            assert part[f"{name}_below_sdae"] in (0, 1, 2) and part[f"{name}_minus_sdae"]["se"] >= 0.0
    for name in claims.ABLATIONS:
        assert set(summary["ablations"][name]) == {"nonstationary", "stationary", "responders", "switch_increments_mean"}
    pool_always = [row["ablations"]["pool_always"]["e_glb_mean"] for row in rows]
    nonstationary = summary["ablations"]["pool_always"]["nonstationary"]
    assert nonstationary["pool_always_below_sdae"] == sum(p < row["e_glb_mean"]["sdae"] for p, row in zip(pool_always, rows))
    assert math.isclose(
        nonstationary["pool_always_minus_radae"]["mean"],
        sum(p - row["e_glb_mean"]["radae"] for p, row in zip(pool_always, rows)) / 2,
    )
    assert summary["ablations"]["pool_always"]["responders"] == 0
    for stream, shares in summary["action_mix"].items():
        counts = [row["action_mix"][stream] for row in rows]
        assert shares == {kind: sum(c[kind] for c in counts) / 480 for kind in ("pool", "width_changed", "sized_0")}


def test_claims_variants_change_only_their_keys(claims):
    acceptance = claims._load(Path(__file__).resolve().parent / "test_acceptance.py", "claims_acceptance")
    cfg = acceptance.desk_config("radae", 1)
    before = set(format_config(cfg).splitlines())

    def changed(variant):
        return sorted(set(format_config(variant).splitlines()) - before)

    assert changed(claims.pool_always(cfg)) == ["rl.greedy_after = 301", "rl.warmup_batches = 300"]
    assert changed(claims.random_actions(cfg)) == ["rl.epsilon = 1.0"]
    assert validate_experiment(claims.pool_always(cfg)) == []
    assert format_config(cfg) == format_config(acceptance.desk_config("radae", 1))  # left as it was


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
