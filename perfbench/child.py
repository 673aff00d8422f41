"""One complete adaptdae run in a fresh process, optionally traced.

    python3 perfbench/child.py CONFIG TRACE_CSV TRACED

Loads CONFIG through the public API, runs it with ``run_experiment``,
writes the trace to TRACE_CSV and prints one JSON object: CLOCK_MONOTONIC
time stamps (comparable with the parent's), the per-batch ``wall_ms``
column, a speed probe's time after each batch, the peak resident set, the summary, the output checks and the
trace digest.  With TRACED=1 it also wraps the library's functions at the
names their callers look up, keeps every span in memory, writes them next
to the trace once the run is over and reports per-layer aggregates.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans (name, start, end, parent id, raised) plus per-name
    amounts (summed) and peaks (maximum) measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.ids: list[int] = []
        self.stack: list[int] = []
        self.amount: dict[str, float] = defaultdict(float)
        self.peak: dict[str, float] = defaultdict(float)
        self._next = 0

    def wrap(self, owner, attr: str, name: str, amount=None, peak=None) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        ``amount(args, result)`` is summed and ``peak(args, result)`` is
        maximised under ``name``; both run outside the span's interval.
        """
        fn = getattr(owner, attr)
        spans, ids, stack = self.spans, self.ids, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            raised = True
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((name, t0, t1, parent, raised))
                ids.append(span_id)
                if not raised:
                    if amount is not None:
                        self.amount[name] += amount(args, result)
                    if peak is not None:
                        self.peak[name] = max(self.peak[name], peak(args, result))

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def aggregate(self) -> dict:
        """calls, total seconds, self seconds and failures per span name."""
        child_s: dict[int, float] = defaultdict(float)
        for (_, t0, t1, parent, _) in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for span_id, (name, t0, t1, _, raised) in zip(self.ids, self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[span_id]
            row["failed"] += raised
        for name, row in out.items():
            row["amount"] = self.amount.get(name, 0.0)
            row["peak"] = self.peak.get(name, 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent,raised\n")
            for span_id, (name, t0, t1, parent, raised) in zip(self.ids, self.spans):
                f.write(f"{span_id},{name},{t0!r},{t1!r},{parent},{int(raised)}\n")


def _stream_bytes(args, result) -> float:
    _, batches, test_x, test_y = result
    total = test_x.nbytes + test_y.nbytes
    return float(total + sum(b.inputs.nbytes + b.labels.nbytes for b in batches))


def install_spans(tracer: Tracer) -> None:
    """Span every layer boundary the per-layer metrics need.

    A function imported into several modules is wrapped at each of them,
    under one span name, because callers look it up in their own module.
    """
    from adaptdae import controller, gp, harness, midae, network, structure

    size = lambda args, result: float(args[1])  # noqa: E731  node counts
    wraps = [
        (harness, "run_experiment", "harness.run_experiment", {}),
        (harness, "prepare_data", "stream.prepare", {"amount": _stream_bytes}),
        (harness, "eval_global", "harness.eval_global", {}),
        (harness, "write_trace", "harness.write_trace", {}),
        (harness, "batch_errors", "network.batch_errors", {}),
        (harness, "predict", "network.predict", {}),
        (network, "predict", "network.predict", {}),
        (midae, "per_example_reconstruction_loss", "network.per_example_reconstruction_loss", {}),
        (harness, "finetune", "network.finetune", {}),
        (structure, "finetune", "network.finetune", {}),
        (midae, "finetune", "network.finetune", {}),
        (network, "network_gradients", "network.network_gradients", {}),
        (structure, "network_gradients", "network.network_gradients", {}),
        (network, "sigmoid", "network.sigmoid", {"amount": lambda args, result: float(result.size)}),
        (harness, "pool_finetune", "structure.pool_finetune", {"amount": lambda args, result: float(len(args[1]))}),
        (harness, "increment_nodes", "structure.increment_nodes", {"amount": size}),
        (midae, "increment_nodes", "structure.increment_nodes", {"amount": size}),
        (harness, "merge_nodes", "structure.merge_nodes", {"amount": size}),
        (midae, "merge_nodes", "structure.merge_nodes", {"amount": size}),
        (structure, "closest_pairs", "structure.closest_pairs", {}),
        (harness, "update_recent", "pools.update_recent", {}),
        (harness, "update_diverse", "pools.update_diverse", {"peak": lambda args, result: float(len(args[0].diverse))}),
        (midae, "update_hard", "pools.update_hard", {"peak": lambda args, result: float(args[0].hard_count())}),
        (harness, "merge_inc_step", "midae.merge_inc_step", {}),
        (controller.RlController, "observe", "controller.observe", {}),
        (controller.RlController, "decide", "controller.decide", {}),
        (controller, "compute_state", "controller.compute_state", {}),
        (controller.QModel, "refit", "controller.refit", {}),
        (gp, "optimize_hyperparams", "gp.optimize_hyperparams", {}),
        (gp, "fit", "gp.fit", {"amount": lambda args, result: float(result.train_inputs.shape[0])}),
        (gp, "predict_mean", "gp.predict_mean", {}),
    ]
    for owner, attr, name, hooks in wraps:
        tracer.wrap(owner, attr, name, **hooks)


def mark_boundaries(harness, marks: dict) -> None:
    """Time stamp the end of set-up and of the batch loop.

    ``run_experiment`` calls ``init_network`` once, right before batch 0,
    and ``write_trace`` once, right after the last batch, so these wrappers
    cost nothing per batch.
    """
    init_network = harness.init_network
    write_trace = harness.write_trace

    def init_marked(*args, **kwargs):
        net = init_network(*args, **kwargs)
        marks["setup_end"] = now()
        return net

    def write_marked(*args, **kwargs):
        marks["loop_end"] = now()
        write_trace(*args, **kwargs)
        marks["written"] = now()

    harness.init_network = init_marked
    harness.write_trace = write_marked


class SpeedProbe:
    """Times a fixed desk-shaped numpy kernel after every batch, to follow
    the host's speed while the run goes on.

    The shared host switches between speed states about 1.45x apart, every
    second or so, so a run's batch times mostly measure the states it fell
    in.  Divided by this probe's time at the same batch, they measure the
    program.  The probe runs between batches, outside their timed
    intervals; its total time is reported so that it can be taken out of
    the run's own times.
    """

    TRIES = 3  # the least of three: an interrupt in one try does not count

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((100, 16))
        self.w1 = rng.standard_normal((16, 32))
        self.w2 = rng.standard_normal((32, 16))
        self.ms: list[float] = []
        self.total_s = 0.0

    def _kernel(self) -> float:
        import numpy as np

        h = 1.0 / (1.0 + np.exp(-(self.x @ self.w1)))
        return float(((h @ self.w2 - self.x).T @ h).sum())

    def after_batch(self) -> None:
        t_start = now()
        best = math.inf
        for _ in range(self.TRIES):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.ms.append(best * 1000.0)
        self.total_s += now() - t_start

    def install(self, harness) -> None:
        """``run_experiment`` builds each batch's ``TraceRecord`` right after
        the batch's ``wall_ms`` is taken and before the next batch's clock
        starts, so a probe there is outside every timed batch.  ``remove``
        puts the class back before the trace is read again."""
        record = self.record = harness.TraceRecord

        def probed_record(*args, **kwargs):
            self.after_batch()
            return record(*args, **kwargs)

        harness.TraceRecord = probed_record

    def remove(self, harness) -> None:
        harness.TraceRecord = self.record


def peak_rss_mb() -> float:
    """This process's own peak resident set (``VmHWM``).

    ``ru_maxrss`` is not used: Linux carries it over ``exec`` from the
    process that spawned this one, so it would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def trace_digest(path: str) -> str:
    """sha256 of the trace with its last column, ``wall_ms``, dropped."""
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline()
        if not header.rstrip("\n").endswith(",wall_ms"):
            raise ValueError(f"{path}: wall_ms is not the last trace column")
        for line in [header, *f]:
            h.update(line.rpartition(",")[0].encode())
            h.update(b"\n")
    return h.hexdigest()


def output_checks(cfg, result, replayed) -> dict[str, bool]:
    records = result.records
    checks = {
        "replay_summary": replayed == result.summary,
        "finite": all(
            math.isfinite(r.l_gen) and math.isfinite(r.l_cls) and math.isfinite(r.e_glb) for r in records
        ),
        "e_glb_range": all(0.0 <= r.e_glb <= 1.0 for r in records),
        "batches": len(records) == cfg.stream.batches,
    }
    if cfg.policy == "radae":
        w0 = cfg.nn.widths[0]
        low, high = math.ceil(cfg.rl.size_low * w0), math.floor(cfg.rl.size_high * w0)
        checks["corridor"] = all(low <= r.widths[0] <= high for r in records)
    return checks


def main(argv: list[str]) -> int:
    config_path, trace_path, traced = argv[0], argv[1], argv[2] == "1"
    t0 = now()
    import adaptdae.cli  # noqa: F401  the command-line import cost: numpy, scipy and every module
    import_s = now() - t0
    from adaptdae import harness
    from adaptdae.config import load_config

    cfg = load_config(config_path)
    marks: dict[str, float] = {}
    mark_boundaries(harness, marks)
    probe = SpeedProbe()
    probe.install(harness)
    tracer = None
    if traced:
        tracer = Tracer()
        install_spans(tracer)
    result = harness.run_experiment(cfg, out_path=trace_path)
    probe.remove(harness)
    rss_mb = peak_rss_mb()

    checks = output_checks(cfg, result, harness.replay_summary(trace_path, cfg.summary_last))
    out = {
        "import_s": import_s,
        **marks,
        "rss_mb": rss_mb,
        "batches": len(result.records),
        "batch_size": cfg.stream.batch_size,
        "wall_ms": [r.wall_ms for r in result.records],
        "probe_ms": probe.ms,
        "probe_s": probe.total_s,
        "e_glb_mean": result.summary.e_glb_mean,
        "e_lcl_mean": result.summary.e_lcl_mean,
        "width_max": max(r.widths[0] for r in result.records),
        "events": sum(r.action == "event" for r in result.records),
        "checks": checks,
        "digest": trace_digest(trace_path),
    }
    if tracer is not None:
        tracer.write(trace_path + ".spans.csv")
        out["layers"] = tracer.aggregate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
