"""The benchmark's traced run still finds and calls every name it wraps.

``perfbench/child.py`` spans library functions by the names their callers
look up; a refactor that drops or bypasses one of them would only show up
as a missing metric in the benchmark.  This runs the traced child on a tiny
stream under each policy so that it shows up here instead.  The child
replaces ``harness.TraceRecord`` for the whole run, trace writing included.
Likewise, each kernel ``perfbench/micro.py`` times is called once here, so a
changed kernel signature fails tier-1 rather than a traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"

TINY_RADAE = """
policy = radae
seed = 1
out =
summary_last = 40
stream.classes = 3
stream.dims = 16
stream.batch_size = 50
stream.batches = 40
stream.per_class = 100
stream.spread = 0.35
nn.widths = 16, 16
pool.capacity = 500
pool.distance_threshold = 0.3
rl.warmup_batches = 5
rl.greedy_after = 15
rl.refit_interval = 5
rl.max_observations = 100
"""

# the same stream, run by the two policies the controller does not drive;
# midae's low threshold fires an event every few batches
TINY = {
    "sdae": TINY_RADAE.replace("policy = radae", "policy = sdae"),
    "midae": TINY_RADAE.replace("policy = radae", "policy = midae")
    + "midae.pool_threshold = 60\nmidae.delta_init = 4\nmidae.grow_step = 2\n",
}
SPANS = {
    "sdae": ("network.finetune", "harness.write_trace"),
    "midae": (
        "midae.merge_inc_step",
        "network.per_example_reconstruction_loss",
        "pools.update_hard",
        "structure.increment_nodes",
        "structure.merge_nodes",
        "structure.closest_pairs",
        "network.finetune",
        "harness.write_trace",
    ),
}


def run_traced_child(tmp_path, config_text: str) -> dict:
    config = tmp_path / "tiny.cfg"
    config.write_text(config_text)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(config), str(tmp_path / "trace.csv"), "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["batches"] == 40
    assert out["checks"] and all(out["checks"].values()), out["checks"]
    return out


def test_traced_child_reaches_the_controller_and_gp_spans(tmp_path):
    layers = run_traced_child(tmp_path, TINY_RADAE)["layers"]
    for name in (
        "controller.decide",
        "controller.compute_state",
        "controller.refit",
        "gp.optimize_hyperparams",
        "gp.fit",
        "gp.predict_mean",
        # the tiny radae run merges but never increments
        "structure.merge_nodes",
        "structure.closest_pairs",
        "structure.pool_finetune",
        # the harness calls these in its radae branch
        "pools.update_recent",
        "pools.update_diverse",
        "controller.observe",
    ):
        assert layers.get(name, {}).get("calls", 0) > 0, name


@pytest.mark.parametrize("policy", ["sdae", "midae"])
def test_traced_child_reaches_the_policy_spans(tmp_path, policy):
    layers = run_traced_child(tmp_path, TINY[policy])["layers"]
    for name in SPANS[policy]:
        assert layers.get(name, {}).get("calls", 0) > 0, name


def test_every_microbenchmark_kernel_runs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_micro", PERFBENCH / "micro.py")
    micro = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(micro)
    kernels = micro.kernels(1)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [k[:2] for k in kernels] == [(m["name"], m["unit"]) for m in declared if m["name"].startswith("micro.")]
    for name, unit, call, scale in kernels:
        call()
