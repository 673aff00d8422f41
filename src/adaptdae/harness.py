"""Experiment driver: bind a stream, a policy and the metrics.

One run is one sequential pass over the batch stream.  Each batch is
evaluated before anything trains on it, so the local error for batch n is
the classification error on batch n+1 measured strictly pre-training.  The
one exception is the first ``nn.pretrain_batches`` batches: the network is
pre-trained, unsupervised, on their inputs before batch 0, so they are
evaluated after that.  The global error is measured on a class-balanced
held-out split after every batch.  Runs with the same seed share the
stream and the initial network across policies.  One worker thread draws
the batches, up to ``PREFETCH_BYTES`` ahead, while the loop trains; on
``_wide`` batches it also sums the upcoming batch's reconstruction loss,
each job in the order it was submitted.  The loop's thread runs everything
else.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ExperimentConfig, validate_experiment
from .controller import RlController, window_kl
from .midae import MiDaeState, merge_inc_step
from .network import (
    CE_BLOCK_ELEMENTS,
    DataBatch,
    Forward,
    Network,
    batch_errors,
    class_error,
    finetune,
    forward,
    init_network,
    predict,
    pretrain_layer,
)
from .pools import PoolSet, update_diverse, update_recent
from .stream import StreamSpec, iter_stream, load_idx, split_source, synth_dataset
from .structure import ActionKind, increment_nodes, merge_nodes, pool_finetune


class NumericalBreakdown(ArithmeticError):
    """The network's outputs stopped being finite during a run."""


@dataclass
class TraceRecord:
    """One trace row.  The fields are the CSV columns, in order; ``wall_ms``
    stays last, so a digest can drop it as the last cell of every line."""

    batch: int
    action: str
    delta: int
    widths: tuple[int, ...]
    l_gen: float
    l_cls: float
    e_lcl: float | None
    e_glb: float
    reward: float | None
    q_pool: float | None
    q_increment: float | None
    q_merge: float | None
    kl: float | None
    wall_ms: float


# read once, here: writing and reading never look at the class again, so a
# caller may replace ``TraceRecord`` with a wrapper for the length of a run
CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))
# each column's parser, picked by its annotation: only a ``| None`` column reads empty as None
_PARSE_BY_TYPE = {
    "int": int,
    "str": str,
    "float": float,
    "float | None": lambda text: float(text) if text else None,
    "tuple[int, ...]": lambda text: tuple(int(w) for w in text.split("x")),
}
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(TraceRecord)}


@dataclass
class Summary:
    e_lcl_mean: float | None
    e_lcl_std: float | None
    e_glb_mean: float | None
    e_glb_std: float | None
    window: int


@dataclass
class RunResult:
    records: list[TraceRecord]
    summary: Summary
    trace_path: str | None


def _mean_rec_loss(fwd: Forward) -> float:
    # runs on the run's worker, so it calls nothing the benchmark spans: its
    # tracer keeps one span stack for all threads
    return float(fwd.rec_losses.mean())


def _wide(batch: DataBatch) -> bool:
    """Whether ``batch`` hands the run's worker its ``l_gen`` sum: whether
    that sum spans more than one ``cross_entropy`` block.  Measured with a
    thread of its own, the hand-off on every batch cost radae-desk and
    midae-switch 5.1% and 8.0% of their examples per second (10 of 10 pairs
    lost each); at 784 dims it saved sdae 3-12% per batch from 8 rows up and
    cost radae at most 0.5% (BENCH_25.json "gate_removed", "gate_size_sweep")."""
    return batch.inputs.size > CE_BLOCK_ELEMENTS


def _evaluate_upcoming(
    net: Network, batch: DataBatch, index: int, worker: ThreadPoolExecutor
) -> tuple[Forward, tuple[float | Future, float]]:
    """Forward batch ``index`` before anything trains on it and measure its
    losses; the forward serves its training while the parameters stay.

    A ``_wide`` batch hands the sum of its ``l_gen`` to ``worker`` and
    returns it pending; until ``_resolved`` waits for it, the worker is the
    only reader of ``fwd.rec_losses``.  Any other batch sums inline.  Either
    way ``_resolved`` checks ``l_gen``; ``l_cls`` is a fraction of a
    non-empty batch and always finite.
    """
    fwd = forward(net, batch.inputs)
    # a NaN confined to the read-out leaves both losses finite: argmax of a
    # NaN row still names a class
    if not np.isfinite(fwd.y_hat).all():
        raise NumericalBreakdown(f"batch {index}: pre-training read-out is not finite")
    if _wide(batch):
        return fwd, (worker.submit(_mean_rec_loss, fwd), class_error(fwd.y_hat, batch.labels))
    return fwd, batch_errors(net, batch, fwd)


def _resolved(l_gen: float | Future, index: int) -> float:
    """Batch ``index``'s ``l_gen``, waited for if it is pending, and checked:
    the one finiteness check of ``l_gen``, on every batch size."""
    if isinstance(l_gen, Future):
        l_gen = l_gen.result()
    if not math.isfinite(l_gen):
        raise NumericalBreakdown(f"batch {index}: l_gen={l_gen!r} is not finite")
    return l_gen


def eval_global(net: Network, test_inputs: np.ndarray, test_labels: np.ndarray, index: int) -> float:
    """Mean classification error over the held-out test set after batch
    ``index``; raises if the read-out is not finite, where argmax would still name a class."""
    if test_inputs.shape[0] == 0:
        raise ValueError("test set is empty")
    y_hat = predict(net, test_inputs)
    if not np.isfinite(y_hat).all():
        raise NumericalBreakdown(f"batch {index}: held-out read-out is not finite")
    return class_error(y_hat, test_labels)


def _open_stream(cfg: ExperimentConfig) -> tuple[StreamSpec, Iterator[DataBatch], np.ndarray, np.ndarray]:
    """The stream spec, the batch iterator and the test split; a pure
    function of the seed, so every policy sees identical data."""
    stream_rng = np.random.default_rng([cfg.seed, 0])
    if cfg.kind == "idx":
        source = load_idx(cfg.images, cfg.labels)
        spec = replace(cfg.stream, classes=source.classes, dims=source.dims)
    else:
        source = synth_dataset(cfg.stream.classes, cfg.stream.dims, cfg.per_class, stream_rng, cfg.spread)
        spec = cfg.stream
    train_source, test_x, test_y = split_source(source, cfg.test_fraction, stream_rng)
    return spec, iter_stream(train_source, spec, stream_rng), test_x, test_y


def prepare_data(cfg: ExperimentConfig):
    """Build the whole batch stream and the test split: the data of a run,
    materialised.  No run calls it, since a run draws its stream while it
    trains; it stays because the benchmark wraps it, so its
    ``stream.prepare`` span reads 0."""
    spec, batches, test_x, test_y = _open_stream(cfg)
    return spec, list(batches), test_x, test_y


# The stream is drawn as many batches ahead as fit in this many bytes, and
# at least one: one of 1000 x 784.  On that stream, on 2 vCPUs, bounds of 8
# to 128 MiB ran the loop equally fast; each step up added set-up time,
# resident memory and page faults on the drawing thread (BENCH_13.json), and
# 8 MiB holds one such batch fewer than 16 MiB did (BENCH_24.json).
PREFETCH_BYTES = 8 << 20

# glibc maps a block above its mmap threshold (128 KiB at first) on its own
# and unmaps it when freed; freeing a mapped block raises the threshold to its
# size, up to 32 MiB, and the heap's trim threshold to twice that (mallopt(3)).
# One block freed just under the cap keeps a run's arrays on the heap.  Without
# it midae-switch, whose growing widths take its arrays past 128 KiB, ran its
# loop in 226 ms against 188 ms, with 10.0 k minor faults against 2.7 k (medians
# of 10 alternating fresh processes, 2 vCPUs); sdae-wide's loop ran as fast
# either way, though with 15.8 k minor faults against 7.6 k.
_MMAP_THRESHOLD_RAISE = 31 << 20


def check_trace_path(path: str) -> None:
    """Open ``path`` for appending, as the trace will be, then remove any file
    that this made: a trace that cannot be written raises here, before a run."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> RunResult:
    """Run one policy over one stream and emit the trace.

    ``out_path`` overrides ``cfg.out``; an empty string skips the trace.  The
    path is checked first; a run that raises writes its rows, then re-raises.
    """
    problems = validate_experiment(cfg)
    if problems:
        raise ValueError("; ".join(problems))
    path = cfg.out if out_path is None else out_path
    if path:
        check_trace_path(path)

    np.empty(_MMAP_THRESHOLD_RAISE, dtype=np.uint8)  # freed at once: see above
    spec, batches, test_x, test_y = _open_stream(cfg)
    # every batch holds float64 inputs and one-hot float64 labels
    batch_bytes = spec.batch_size * (spec.dims + spec.classes) * 8
    depth = max(1, PREFETCH_BYTES // batch_bytes)
    # the one worker draws the batches in order, depth ahead: a stream that
    # fits is drawn whole here, in set-up, and a longer one while the loop
    # trains.  Between draws it takes wide batches' l_gen sums.  Leaving
    # the block joins it however the run ends.
    with ThreadPoolExecutor(1, thread_name_prefix="adaptdae-worker") as worker:
        ahead = deque(worker.submit(next, batches) for _ in range(min(depth, spec.batches)))
        wait(ahead)

        def in_order() -> Iterator[DataBatch]:
            for n in range(spec.batches):
                batch = ahead.popleft().result()  # raises an error met while drawing, with its type
                if n + depth < spec.batches:
                    ahead.append(worker.submit(next, batches))
                yield batch

        records: list[TraceRecord] = []
        try:
            for record in _run_batches(cfg, spec, in_order(), test_x, test_y, worker):
                records.append(record)
        finally:
            if path:
                write_trace(path, records)
    return RunResult(records=records, summary=summarize(records, cfg.summary_last), trace_path=path or None)


def _run_batches(
    cfg: ExperimentConfig,
    spec: StreamSpec,
    batches: Iterator[DataBatch],
    test_x: np.ndarray,
    test_y: np.ndarray,
    worker: ThreadPoolExecutor,
) -> Iterator[TraceRecord]:
    """Build the network and the policy, then pass over the batches once,
    taking each batch one ahead of its training; yield each batch's row.
    ``worker`` takes the ``l_gen`` sums of ``_wide`` batches."""
    init_rng = np.random.default_rng([cfg.seed, 1])
    train_rng = np.random.default_rng([cfg.seed, 2])
    ctrl_rng = np.random.default_rng([cfg.seed, 3])

    net = init_network(
        spec.dims,
        cfg.nn.widths,
        spec.classes,
        init_rng,
        learning_rate=cfg.nn.learning_rate,
        corruption_p=cfg.nn.corruption,
    )
    if cfg.nn.pretrain_batches > 0:
        warm = list(itertools.islice(batches, cfg.nn.pretrain_batches))
        for layer_index in range(len(net.layers)):
            pretrain_layer(net, layer_index, warm, cfg.nn.pretrain_epochs, train_rng)
        batches = itertools.chain(warm, batches)
        del warm  # the chain lets go of the warm batches once past them

    pools = PoolSet(capacity=cfg.pool.capacity, distance_threshold=cfg.pool.distance_threshold)
    controller = None
    midae_state = None
    if cfg.policy == "radae":
        controller = RlController(cfg.rl, initial_width=cfg.nn.widths[0], rng=ctrl_rng)
    elif cfg.policy == "midae":
        midae_state = MiDaeState(
            cfg.midae, cfg.pool.capacity if cfg.midae.pool_threshold is None else cfg.midae.pool_threshold
        )

    # the newest label histogram and the ema_window ones before it
    histograms: deque[np.ndarray] = deque(maxlen=cfg.rl.ema_window + 1)
    batch = next(batches)
    fwd, next_eval = _evaluate_upcoming(net, batch, 0, worker)

    for n in range(spec.batches):
        t0 = time.perf_counter()
        # measured before anything trained on this batch; fwd is its forward
        # under the current parameters until a structural edit makes it stale.
        # l_gen is resolved and checked where it is first read, and at the
        # latest once the batch has trained
        l_gen, l_cls = next_eval
        histograms.append(batch.class_histogram())
        kl = window_kl(histograms)

        action = ""
        delta = 0
        edited = False
        reward = None
        q_values = None
        if cfg.policy == "radae":
            # only radae reads the recent and diverse pools
            update_recent(pools, batch)
            update_diverse(pools, batch)
            l_gen = _resolved(l_gen, n)
            controller.observe(l_gen, l_cls, net.layers[0].n_hidden, kl)
            decision = controller.decide(n)
            action = decision.kind.value
            delta = decision.delta
            reward = decision.reward
            q_values = decision.q_values
            if decision.kind is ActionKind.POOL:
                pool_finetune(net, list(pools.diverse), cfg.nn.hybrid_weight)
            elif delta > 0:
                increment_nodes(net, delta, list(pools.recent), train_rng)
            elif delta < 0:
                merge_nodes(net, -delta)
            # an increment or merge sized to 0 is a no-op
            edited = decision.kind is ActionKind.POOL or delta != 0
        elif cfg.policy == "midae":
            l_gen = _resolved(l_gen, n)  # the step reads fwd.rec_losses
            event = merge_inc_step(net, batch, pools, midae_state, train_rng, fwd)
            if event is not None:
                # an event edits the parameters even when the width stays the same
                action, delta, edited = "event", event.added - event.merged, True
        finetune(net, batch, cfg.nn.hybrid_weight, None if edited else fwd)
        # once resolved, before the next forward, the worker holds no x_hat
        l_gen = _resolved(l_gen, n)

        fwd = None  # stale now that the batch trained; free it before the next
        if n + 1 < spec.batches:
            # the trained batch is let go before the next evaluation: only
            # its seq_id is kept, and the pools keep what they hold
            trained_id = batch.seq_id
            batch = next(batches)
            # every batch trained on so far was drawn before this one, and the
            # stream draws in increasing seq_id order
            assert batch.seq_id > trained_id, "evaluation must precede training"
            fwd, next_eval = _evaluate_upcoming(net, batch, n + 1, worker)
            e_lcl = next_eval[1]
        else:
            e_lcl = None
        e_glb = eval_global(net, test_x, test_y, n)
        wall_ms = (time.perf_counter() - t0) * 1000.0

        yield TraceRecord(
            batch=n,
            action=action,
            delta=delta,
            widths=net.widths(),
            l_gen=l_gen,
            l_cls=l_cls,
            e_lcl=e_lcl,
            e_glb=e_glb,
            reward=reward,
            q_pool=None if q_values is None else q_values[ActionKind.POOL],
            q_increment=None if q_values is None else q_values[ActionKind.INCREMENT],
            q_merge=None if q_values is None else q_values[ActionKind.MERGE],
            kl=kl,
            wall_ms=wall_ms,
        )


def summarize(records: list[TraceRecord], last: int) -> Summary:
    """Mean and population standard deviation over the last ``last`` records."""
    tail = records[-last:]
    lcl = [r.e_lcl for r in tail if r.e_lcl is not None]
    # every row has an e_glb: float() raises on a None, where numpy would read NaN
    glb = [float(r.e_glb) for r in tail]

    def stats(values):
        if not values:
            return None, None
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    lcl_mean, lcl_std = stats(lcl)
    glb_mean, glb_std = stats(glb)
    return Summary(lcl_mean, lcl_std, glb_mean, glb_std, window=len(tail))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def write_trace(path: str, records: list[TraceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell(getattr(r, c)) for c in CSV_COLUMNS])


def read_trace(path: str) -> list[TraceRecord]:
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header")
        records = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: malformed row {row!r}")
            cells = {}
            for c, v in zip(CSV_COLUMNS, row):
                try:
                    cells[c] = _PARSERS[c](v)
                except ValueError:
                    raise ValueError(f"{path}: row {i}, column {c}: {v!r}") from None
            records.append(TraceRecord(**cells))
    return records


def replay_summary(path: str, last: int) -> Summary:
    """Recompute the run summary from a trace file."""
    return summarize(read_trace(path), last)
