"""The benchmark's traced run still finds and calls every name it wraps.

``perfbench/child.py`` spans library functions by the names their callers
look up; a refactor that drops or bypasses one of them would only show up
as a missing metric in the benchmark.  This runs the traced child on a tiny
stream under each policy so that it shows up here instead.  The child
replaces ``harness.TraceRecord`` for the whole run, trace writing included.
Likewise, each kernel ``perfbench/micro.py`` times is called once here, so a
changed kernel signature fails tier-1 rather than a traced benchmark run.
The child's tracer keeps one span stack for all threads, so every function
it spans must run on the loop's thread, a wide batch's ``l_gen`` sum on the
run's worker or not.
"""

import importlib.util
import json
import os
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import adaptdae.network as network
from adaptdae import harness
from adaptdae.config import parse_config

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


def load_perfbench(monkeypatch, name: str):
    """Import ``perfbench/NAME.py`` without writing into perfbench/ or
    keeping the ``sys.path`` entry it adds."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ThreadRecorder:
    """Stands in for ``child.Tracer``: wraps each name ``install_spans``
    wraps, for the length of a test, and notes the threads that call it."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.threads: dict[str, set[str]] = defaultdict(set)

    def wrap(self, owner, attr: str, name: str, amount=None, peak=None) -> None:
        fn = getattr(owner, attr)
        threads = self.threads[name]

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return fn(*args, **kwargs)

        self.monkeypatch.setattr(owner, attr, recorded)


@pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
def test_no_span_runs_off_the_loop_thread(monkeypatch, policy):
    child = load_perfbench(monkeypatch, "child")
    recorder = ThreadRecorder(monkeypatch)
    child.install_spans(recorder)
    # also note who runs two functions that are not spanned: the run's
    # worker sums each wide batch's l_gen, and the loop's thread runs every
    # encoder backward
    recorder.wrap(harness, "_mean_rec_loss", "mean_rec_loss")
    recorder.wrap(network, "_encoder_backward", "encoder_backward")
    cfg = parse_config(TINY_RADAE if policy == "radae" else TINY[policy])
    cfg.stream = replace(cfg.stream, dims=784, batch_size=84, batches=8)
    assert cfg.stream.batch_size * cfg.stream.dims > network.CE_BLOCK_ELEMENTS  # every batch is wide
    harness.run_experiment(cfg)
    helpers = recorder.threads.pop("mean_rec_loss") - {threading.current_thread().name}
    assert helpers and all(name.startswith("adaptdae-worker") for name in helpers)
    assert recorder.threads.pop("encoder_backward") == {threading.current_thread().name}
    called = {name: threads for name, threads in recorder.threads.items() if threads}
    assert {"network.finetune", "network.sigmoid", "harness.eval_global"} <= called.keys()
    assert all(threads == {threading.current_thread().name} for threads in called.values()), called


def test_every_microbenchmark_kernel_runs(monkeypatch):
    micro = load_perfbench(monkeypatch, "micro")  # leave perfbench/ as it is
    kernels = micro.kernels(1)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [k[:2] for k in kernels] == [(m["name"], m["unit"]) for m in declared if m["name"].startswith("micro.")]
    for name, unit, call, scale in kernels:
        call()
