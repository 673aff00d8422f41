"""adaptdae benchmark: three streaming workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload radae-desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced

One invocation runs one workload as complete runs, one after another, each
in a fresh single-threaded Python process (``child.py``) that loads a config
generated here and calls ``run_experiment``.  The runs use distinct
sub-seeds derived from ``--seed``: a fixed first few, whose errors are
reported, then more while ``--seconds`` allows; the first sub-seed runs
again at the end so that its trace digests can be compared.  Run and
batch timings are scaled to a reference host speed by a probe timed after
every batch (``REF_PROBE_MS``); set-up time is as measured.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced runs,
the tracing overhead and the kernel microbenchmarks.  Every run's outputs
are checked; a run that raises or fails a check counts in ``failed`` and
its timings are left out.
Without ``--workload`` every workload runs in both modes and the report
ends with a JSON line of all results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
DEFAULT_SECONDS = 40
DEADLINE_S = 170  # every run of an invocation ends within this many seconds

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: at these matrix sizes a second thread only spins.  On two
# cores it nearly doubled an sdae-wide run's CPU time and did not shorten it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(ROOT / "src"))

# configs/desk.cfg, minus policy, seed, out and summary_last
DESK = {
    "test_fraction": 0.2,
    "stream.kind": "synth",
    "stream.classes": 3,
    "stream.dims": 16,
    "stream.batch_size": 100,
    "stream.batches": 300,
    "stream.mode": "nonstationary",
    "stream.gp_length_scale": 5,
    "stream.mask_noise": 0.2,
    "stream.per_class": 300,
    "stream.spread": 0.35,
    "nn.widths": "32, 32, 32",
    "nn.learning_rate": 0.1,
    "pool.capacity": 1500,
    "pool.distance_threshold": 0.3,
    "rl.q_lr": 0.8,
    "rl.ema_alpha": 0.5,
    "rl.refit_interval": 5,
    "rl.max_observations": 150,
    "rl.gp_noise": 0.2,
    "rl.delta_scale": 8,
    "rl.size_low": 0.8,
    "rl.size_high": 2.0,
}

# name -> (config overrides, sub-seeds always run; their mean errors are reported)
WORKLOADS = {
    "radae-desk": ({"policy": "radae"}, 4),
    "sdae-wide": ({"policy": "sdae", "stream.dims": 784, "stream.batch_size": 1000, "stream.batches": 100}, 1),
    "midae-switch": ({"policy": "midae", "stream.mode": "switch", "stream.batches": 200}, 4),
}
# Timings are scaled to a reference host speed: the child's speed probe
# takes this long there.  Values in ``ref_s``/``ref_ms`` are what the run
# would take on a host where the probe, timed next to each batch, takes
# 40 us; the reference VM's probe takes 28-42 us as its speed swings.
REF_PROBE_MS = 0.040
MICRO_S = 7.0  # time kept for the kernel microbenchmarks in a traced invocation

END_TO_END_UNITS = {
    "run_s": "ref_s",
    "setup_s": "s",
    "examples_per_s": "1/ref_s",
    "batch_ms_p50": "ref_ms",
    "batch_ms_p90": "ref_ms",
    "batch_ms_growth": "ratio",
    "peak_rss_mb": "MB",
    "e_glb_mean": "error",
    "e_lcl_mean": "error",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def config_text(workload: str, seed: int) -> str:
    settings = {**DESK, **WORKLOADS[workload][0], "seed": seed, "out": ""}
    # the summary covers the whole stream: steadier across seeds than a tail window
    settings["summary_last"] = settings["stream.batches"]
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def sub_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


@dataclass
class Run:
    """One complete run in a child process and what it reported."""

    seed: int
    traced: bool
    wall_s: float  # spawn to exit, for scheduling
    out: dict = field(default_factory=dict)
    error: str = ""
    wall_run_s: float = 0.0  # as measured
    run_s: float = 0.0  # at the reference speed, like the two below
    setup_s: float = 0.0  # as measured: no batch has run yet to probe
    examples_per_s: float = 0.0
    batch_ms: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.error


def launch(workload: str, seed: int, traced: bool, tag: str, deadline: float) -> Run:
    """Run one config in a fresh process and check what it reports."""
    import numpy as np

    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{workload}-s{seed}-{tag}"
    cfg_path = stem.with_suffix(".cfg")
    cfg_path.write_text(config_text(workload, seed), encoding="utf-8")
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(cfg_path), str(stem) + ".csv", "1" if traced else "0"],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return Run(seed, traced, now() - t_spawn, error="ran past the invocation deadline")
    run = Run(seed, traced, now() - t_spawn)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no error output"]
        run.error = f"exit {proc.returncode}: {tail[0]}"
        return run
    o = run.out = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = [name for name, ok in o["checks"].items() if not ok]
    if failed:
        run.error = "failed checks: " + ", ".join(failed)
    # The probe runs inside the batch loop but outside every batch.  Each
    # batch is scaled by the probe after it; whole-run times by the probe
    # averaged over the loop's time.
    wall, probe = np.asarray(o["wall_ms"]), np.asarray(o["probe_ms"])
    speed = REF_PROBE_MS * wall.sum() / (probe * wall).sum()
    run.wall_run_s = o["written"] - t_spawn - o["probe_s"]
    run.run_s = run.wall_run_s * speed
    run.setup_s = o["setup_end"] - t_spawn
    loop_s = (o["loop_end"] - o["setup_end"] - o["probe_s"]) * speed
    run.examples_per_s = o["batches"] * o["batch_size"] / loop_s
    run.batch_ms = (wall * (REF_PROBE_MS / probe)).tolist()
    return run


def _median(values) -> float:
    return float(statistics.median(values))


def _low_mean(values) -> float:
    """Mean of the lowest four fifths: leaves out refit and structure-edit
    batches, which a window's median would jump in and out of."""
    import numpy as np

    values = np.sort(values)
    return float(values[: max(1, len(values) * 4 // 5)].mean())


def growth(batch_ms: list[float]) -> float:
    """Batch cost of the last tenth of a run over that of the first."""
    tenth = max(1, len(batch_ms) // 10)
    return _low_mean(batch_ms[-tenth:]) / _low_mean(batch_ms[:tenth])


def end_to_end(runs: list[Run], quality_seeds: list[int]) -> tuple[dict, list[str]]:
    """Run timings are medians over runs, batch latencies are quantiles of
    every batch of every run, growth is a mean over runs (it is bimodal
    over seeds, and a median of a few runs jumps between the modes), and
    errors are means over the fixed sub-seeds."""
    import numpy as np

    first = {}
    for r in runs:
        first.setdefault(r.seed, r)
    quality = [first[s] for s in quality_seeds if s in first]
    wall = np.concatenate([r.batch_ms for r in runs])
    values = {
        "run_s": _median(r.run_s for r in runs),
        "setup_s": _median(r.setup_s for r in runs),
        "examples_per_s": _median(r.examples_per_s for r in runs),
        "batch_ms_p50": float(np.percentile(wall, 50)),
        "batch_ms_p90": float(np.percentile(wall, 90)),
        "batch_ms_growth": statistics.fmean(growth(r.batch_ms) for r in runs),
        "peak_rss_mb": _median(r.out["rss_mb"] for r in runs),
        "e_glb_mean": statistics.fmean(r.out["e_glb_mean"] for r in quality),
        "e_lcl_mean": statistics.fmean(r.out["e_lcl_mean"] for r in quality),
    }
    n = len(runs)
    samples = {
        "batch_ms_p50": f"p50 of {wall.size} batches over {n} runs",
        "batch_ms_p90": f"p90 of {wall.size} batches over {n} runs, {wall.size - int(0.9 * wall.size)} beyond it",
        "run_s": f"median of {n} runs; {_median(r.wall_run_s for r in runs):.4g} s as measured",
        "batch_ms_growth": f"mean over {n} runs of last-tenth / first-tenth batch cost",
        "e_glb_mean": f"mean over {len(quality)} sub-seeds of the whole-run summary",
        "e_lcl_mean": f"mean over {len(quality)} sub-seeds of the whole-run summary",
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    lines = [f"  {k:16s} {v:14.6g} {END_TO_END_UNITS[k]:6s} {samples.get(k, f'median of {n} runs')}" for k, v in values.items()]
    return metrics, lines


def per_layer(traced: list[Run], plain: list[Run]) -> dict:
    """Per-layer metrics: medians over traced runs of each run's aggregate."""

    def layer(run: Run, name: str) -> dict:
        return run.out["layers"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "amount": 0.0, "peak": 0.0})

    def one(run: Run) -> dict[str, tuple[float, str]]:
        L = lambda name: layer(run, name)  # noqa: E731
        o = run.out
        midae_policy = L("midae.merge_inc_step")["calls"] > 0
        fit = L("gp.fit")
        ok_fits = fit["calls"] - fit["failed"]
        passes = sum(
            L(n)["calls"]
            for n in ("network.batch_errors", "network.predict", "network.per_example_reconstruction_loss", "network.network_gradients")
        )
        return {
            "harness.run_experiment.self_s": (L("harness.run_experiment")["self_s"], "s"),
            "harness.eval_global.s": (L("harness.eval_global")["s"], "s"),
            "harness.write_trace.s": (L("harness.write_trace")["s"], "s"),
            "cli.import_s": (o["import_s"], "s"),
            "stream.prepare_s": (L("stream.prepare")["s"], "s"),
            "stream.bytes": (L("stream.prepare")["amount"], "bytes"),
            "network.finetune.calls": (L("network.finetune")["calls"], "count"),
            "network.finetune.self_s": (L("network.finetune")["self_s"], "s"),
            "network.batch_errors.calls": (L("network.batch_errors")["calls"], "count"),
            "network.batch_errors.s": (L("network.batch_errors")["s"], "s"),
            "network.network_gradients.s": (L("network.network_gradients")["s"], "s"),
            "network.sigmoid.calls": (L("network.sigmoid")["calls"], "count"),
            "network.sigmoid.s": (L("network.sigmoid")["s"], "s"),
            "network.sigmoid.elements": (L("network.sigmoid")["amount"], "count"),
            "network.forward_passes_per_batch": (passes / o["batches"], "count"),
            "structure.pool_finetune.calls": (L("structure.pool_finetune")["calls"], "count"),
            "structure.pool_finetune.s": (L("structure.pool_finetune")["s"], "s"),
            "structure.pool_finetune.batches": (L("structure.pool_finetune")["amount"], "count"),
            "structure.increment_nodes.calls": (L("structure.increment_nodes")["calls"], "count"),
            "structure.increment_nodes.s": (L("structure.increment_nodes")["s"], "s"),
            "structure.increment_nodes.nodes": (L("structure.increment_nodes")["amount"], "count"),
            "structure.merge_nodes.calls": (L("structure.merge_nodes")["calls"], "count"),
            "structure.merge_nodes.s": (L("structure.merge_nodes")["s"], "s"),
            "structure.merge_nodes.nodes": (L("structure.merge_nodes")["amount"], "count"),
            "structure.closest_pairs.s": (L("structure.closest_pairs")["s"], "s"),
            "pools.update.s": (sum(L(f"pools.{n}")["s"] for n in ("update_recent", "update_diverse", "update_hard")), "s"),
            "pools.diverse.batches_max": (L("pools.update_diverse")["peak"], "count"),
            "pools.hard.peak": (L("pools.update_hard")["peak"], "count"),
            "controller.observe.s": (L("controller.observe")["s"], "s"),
            "controller.decide.calls": (L("controller.decide")["calls"], "count"),
            "controller.decide.self_s": (L("controller.decide")["self_s"], "s"),
            "controller.compute_state.s": (L("controller.compute_state")["s"], "s"),
            "controller.refits": (L("controller.refit")["calls"], "count"),
            "gp.optimize_hyperparams.calls": (L("gp.optimize_hyperparams")["calls"], "count"),
            "gp.optimize_hyperparams.s": (L("gp.optimize_hyperparams")["s"], "s"),
            "gp.fit.calls": (fit["calls"], "count"),
            "gp.fit.s": (fit["s"], "s"),
            "gp.fit.n_mean": (fit["amount"] / ok_fits if ok_fits else 0.0, "count"),
            "gp.fit.failed_frac": (fit["failed"] / fit["calls"] if fit["calls"] else 0.0, "ratio"),
            "gp.predict_mean.calls": (L("gp.predict_mean")["calls"], "count"),
            "gp.predict_mean.s": (L("gp.predict_mean")["s"], "s"),
            "midae.merge_inc_step.calls": (L("midae.merge_inc_step")["calls"], "count"),
            "midae.merge_inc_step.self_s": (L("midae.merge_inc_step")["self_s"], "s"),
            "midae.events": (o["events"], "count"),
            "midae.width_max": (o["width_max"] if midae_policy else 0, "count"),
        }

    rows = [one(r) for r in traced]
    metrics = {
        name: {"value": _median(row[name][0] for row in rows), "unit": unit}
        for name, (_, unit) in rows[0].items()
    }
    # paired by sub-seed: traced minus untraced run_s
    plain_s = {r.seed: r.run_s for r in plain}
    overhead = [r.run_s - plain_s[r.seed] for r in traced if r.seed in plain_s]
    if overhead:
        metrics["trace.overhead_s"] = {"value": _median(overhead), "unit": "ref_s"}
    return metrics


def schedule(workload: str, seed: int, seconds: float, traced: bool) -> list[Run]:
    """Run sub-seeds while ``seconds`` allows, judged by the slowest run so far.

    Untraced: the fixed sub-seeds always run, more follow while there is
    room for them and for the final repeat of the first sub-seed.  Traced:
    (untraced, traced) pairs, at least one, leaving ``MICRO_S`` for the
    kernels.
    """
    start = now()
    deadline = start + DEADLINE_S
    fixed = 1 if traced else WORKLOADS[workload][1]
    group = (False, True) if traced else (False,)
    runs: list[Run] = []
    j = 0
    while True:
        # room for one more group and then the repeat (untraced) or the kernels (traced)
        needed = 2 * max((r.wall_s for r in runs), default=0.0) + (MICRO_S if traced else 0.0)
        if j >= fixed and now() - start + needed > seconds:
            break
        for flag in group:
            runs.append(launch(workload, sub_seed(seed, j), flag, f"{len(runs)}{'t' if flag else ''}", deadline))
        j += 1
    if not traced:
        runs.append(launch(workload, sub_seed(seed, 0), False, f"{len(runs)}", deadline))
    return runs


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, int, int, list[str]]:
    """Run one workload's schedule; returns (metrics, attempted, failed, report lines)."""
    runs = schedule(workload, seed, seconds, traced)
    lines = []
    digests: dict[int, str] = {}
    for r in runs:
        if r.ok:
            expected = digests.setdefault(r.seed, r.out["digest"])
            if r.out["digest"] != expected:
                r.error = f"trace digest {r.out['digest'][:16]} differs from {expected[:16]} of an earlier run"
    for s, digest in digests.items():
        lines.append(f"digest {workload} seed={s} {digest}")
    failed = [r for r in runs if not r.ok]
    for r in failed:
        lines.append(f"FAILED {workload} seed={r.seed} traced={int(r.traced)}: {r.error}")
    good = [r for r in runs if r.ok]
    if not good or (traced and not any(r.traced for r in good)):
        return {}, len(runs), len(failed), lines
    if traced:
        import micro

        traced_runs = [r for r in good if r.traced]
        metrics = per_layer(traced_runs, [r for r in good if not r.traced])
        metrics.update(micro.run(seed))
        lines.append(f"per-layer {workload}: medians over {len(traced_runs)} traced runs, each paired with an untraced run")
        lines += [f"  {k:40s} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics, table = end_to_end(good, [sub_seed(seed, j) for j in range(WORKLOADS[workload][1])])
        distinct = len({r.seed for r in good})
        lines.append(f"end-to-end {workload}: {len(good)} runs over {distinct} sub-seeds")
        lines += table
    return metrics, len(runs), len(failed), lines


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "adaptdae" / "__init__.py").is_file():
        print(f"error: the adaptdae sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        print("env " + json.dumps(environment()), flush=True)
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)

    if args.workload:
        metrics, attempted, failed, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(result_line(metrics, attempted, failed))
        return 0 if failed == 0 and metrics else 1

    results, total_failed = {}, 0
    for workload in WORKLOADS:
        for traced in (False, True):
            metrics, attempted, failed, lines = measure(workload, args.seed, args.seconds, traced)
            print("\n".join(lines), flush=True)
            results[f"{workload}{'/trace' if traced else ''}"] = json.loads(result_line(metrics, attempted, failed))
            total_failed += failed
    print(json.dumps(results))
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
