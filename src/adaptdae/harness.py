"""Experiment driver: bind a stream, a policy and the metrics.

One run is one sequential pass over the batch stream.  Each batch is
evaluated before anything trains on it, so the local error for batch n is
the classification error on batch n+1 measured strictly pre-training.  The
one exception is the first ``nn.pretrain_batches`` batches: the network is
pre-trained, unsupervised, on their inputs before batch 0, so they are
evaluated after that.  The global error is measured on a class-balanced
held-out split after every batch.  Runs with the same seed share the
stream and the initial network across policies.  One worker thread draws
the batches, up to ``PREFETCH_BYTES`` ahead, while the loop trains.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import ExperimentConfig, validate_experiment
from .controller import RlController, window_kl
from .midae import MiDaeState, merge_inc_step
from .network import DataBatch, Forward, Network, batch_errors, finetune, forward, init_network, predict, pretrain_layer
from .pools import PoolSet, update_diverse, update_recent
from .stream import LabeledSource, StreamSpec, iter_stream, load_idx, split_source, synth_dataset
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


def _evaluate_upcoming(net: Network, batch: DataBatch, index: int) -> tuple[Forward, tuple[float, float]]:
    """Forward batch ``index`` before anything trains on it and measure its
    losses; the forward serves its training while the parameters stay."""
    fwd = forward(net, batch.inputs)
    l_gen, l_cls = batch_errors(net, batch, fwd)
    # a NaN confined to the read-out leaves both losses finite: argmax of a
    # NaN row still names a class
    read_out_finite = bool(np.isfinite(fwd.y_hat).all())
    if not (math.isfinite(l_gen) and math.isfinite(l_cls) and read_out_finite):
        raise NumericalBreakdown(
            f"batch {index}: pre-training evaluation is not finite "
            f"(l_gen={l_gen!r}, l_cls={l_cls!r}, read-out finite={read_out_finite})"
        )
    return fwd, (l_gen, l_cls)


def eval_global(net: Network, test_inputs: np.ndarray, test_labels: np.ndarray) -> float:
    """Mean classification error over the held-out test set; NaN when the
    read-out is not finite, since argmax of a NaN row still names a class."""
    if test_inputs.shape[0] == 0:
        raise ValueError("test set is empty")
    y_hat = predict(net, test_inputs)
    if not np.isfinite(y_hat).all():
        return math.nan
    hits = np.argmax(y_hat, axis=1) == np.argmax(test_labels, axis=1)
    return float(1.0 - hits.mean())


def _build_source(cfg: ExperimentConfig, rng: np.random.Generator) -> LabeledSource:
    if cfg.kind == "idx":
        return load_idx(cfg.images, cfg.labels)
    return synth_dataset(cfg.stream.classes, cfg.stream.dims, cfg.per_class, rng, cfg.spread)


def _open_stream(cfg: ExperimentConfig) -> tuple[StreamSpec, Iterator[DataBatch], np.ndarray, np.ndarray]:
    """The stream spec, the batch iterator and the test split; a pure
    function of the seed, so every policy sees identical data."""
    stream_rng = np.random.default_rng([cfg.seed, 0])
    source = _build_source(cfg, stream_rng)
    spec = cfg.stream
    if cfg.kind == "idx":
        spec = replace(spec, classes=source.classes, dims=source.dims)
    train_source, test_x, test_y = split_source(source, cfg.test_fraction, stream_rng)
    return spec, iter_stream(train_source, spec, stream_rng), test_x, test_y


def prepare_data(cfg: ExperimentConfig):
    """Build the whole batch stream and the test split: the data of a run,
    materialised."""
    spec, batches, test_x, test_y = _open_stream(cfg)
    return spec, list(batches), test_x, test_y


# The stream is drawn as many batches ahead as fit in this many bytes, and
# at least one: two of 1000 x 784.  On that stream, on 2 vCPUs, bounds of 8
# to 128 MiB ran the loop equally fast; each step up added set-up time,
# resident memory and page faults on the drawing thread (BENCH_13.json).
PREFETCH_BYTES = 16 << 20

# glibc gives the free top of its heap back to the system once it exceeds
# twice the mmap threshold, and raises that threshold to the size of any
# mmapped block freed, up to 32 MiB (mallopt(3), "dynamic mmap threshold").
# At 1000 x 784 the loop's 6.3 MB temporaries passed that line after every
# batch, so the loop faulted their pages in afresh each time.  Freeing one
# mmapped block just under the cap lets the heap keep them; elsewhere this
# is one allocation and nothing more.
_MMAP_THRESHOLD_RAISE = 31 << 20


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> RunResult:
    """Run one policy over one stream and emit the trace.

    ``out_path`` overrides ``cfg.out``; pass an empty string to skip the
    trace file.
    """
    problems = validate_experiment(cfg)
    if problems:
        raise ValueError("; ".join(problems))

    np.empty(_MMAP_THRESHOLD_RAISE, dtype=np.uint8)  # freed at once: see above
    spec, batches, test_x, test_y = _open_stream(cfg)
    # every batch holds float64 inputs and one-hot float64 labels
    batch_bytes = spec.batch_size * (spec.dims + spec.classes) * 8
    depth = max(1, PREFETCH_BYTES // batch_bytes)
    # one worker draws the batches in order, depth ahead: a stream that fits
    # is drawn whole here, in set-up, and a longer one while the loop trains;
    # leaving the block joins the worker however the run ends
    with ThreadPoolExecutor(1, thread_name_prefix="adaptdae-stream") as pool:
        ahead = deque(pool.submit(next, batches) for _ in range(min(depth, spec.batches)))
        wait(ahead)

        def in_order() -> Iterator[DataBatch]:
            for n in range(spec.batches):
                batch = ahead.popleft().result()  # raises an error met while drawing, with its type
                if n + depth < spec.batches:
                    ahead.append(pool.submit(next, batches))
                yield batch

        records = _run_batches(cfg, spec, in_order(), test_x, test_y)

    summary = summarize(records, cfg.summary_last)
    path = cfg.out if out_path is None else out_path
    if path:
        write_trace(path, records)
    return RunResult(records=records, summary=summary, trace_path=path or None)


def _run_batches(
    cfg: ExperimentConfig, spec: StreamSpec, batches: Iterator[DataBatch], test_x: np.ndarray, test_y: np.ndarray
) -> list[TraceRecord]:
    """Build the network and the policy, then pass over the batches once,
    taking each batch one ahead of its training."""
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

    records: list[TraceRecord] = []
    # the newest label histogram and the ema_window ones before it
    histograms: deque[np.ndarray] = deque(maxlen=cfg.rl.ema_window + 1)
    trained_ids: set[int] = set()
    batch = next(batches)
    fwd, next_eval = _evaluate_upcoming(net, batch, 0)

    for n in range(spec.batches):
        t0 = time.perf_counter()
        # measured before anything trained on this batch; fwd is its forward
        # under the current parameters until a structural edit makes it stale
        l_gen, l_cls = next_eval
        assert batch.seq_id not in trained_ids, "evaluation must precede training"
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
            controller.observe(l_gen, l_cls, net.layers[0].n_hidden, kl)
            decision = controller.decide(n)
            action = decision.kind.value
            delta = decision.delta
            reward = decision.reward
            q_values = decision.q_values
            if decision.kind is ActionKind.POOL:
                diverse = list(pools.diverse)
                trained_ids.update(b.seq_id for b in diverse)
                pool_finetune(net, diverse, cfg.nn.hybrid_weight)
            elif delta > 0:
                recent = list(pools.recent)
                trained_ids.update(b.seq_id for b in recent)
                increment_nodes(net, delta, recent, train_rng)
            elif delta < 0:
                merge_nodes(net, -delta)
            # an increment or merge sized to 0 is a no-op
            edited = decision.kind is ActionKind.POOL or delta != 0
        elif cfg.policy == "midae":
            event = merge_inc_step(net, batch, pools, midae_state, train_rng, fwd)
            if event is not None:
                # an event edits the parameters even when the width stays the same
                action, delta, edited = "event", event.added - event.merged, True
        finetune(net, batch, cfg.nn.hybrid_weight, None if edited else fwd)
        trained_ids.add(batch.seq_id)

        fwd = None  # stale now that the batch trained; free it before the next
        if n + 1 < spec.batches:
            following = next(batches)
            assert following.seq_id not in trained_ids, "evaluation must precede training"
            fwd, next_eval = _evaluate_upcoming(net, following, n + 1)
            e_lcl = next_eval[1]
        else:
            following, e_lcl = None, None
        e_glb = eval_global(net, test_x, test_y)
        if math.isnan(e_glb):  # the last batch has no upcoming evaluation to catch it
            raise NumericalBreakdown(f"batch {n}: held-out read-out is not finite")
        wall_ms = (time.perf_counter() - t0) * 1000.0

        records.append(
            TraceRecord(
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
        )
        batch = following
    return records


def summarize(records: list[TraceRecord], last: int) -> Summary:
    """Mean and population standard deviation over the last ``last`` records."""
    tail = records[-last:]
    lcl = [r.e_lcl for r in tail if r.e_lcl is not None]
    glb = [r.e_glb for r in tail if r.e_glb is not None]

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


def _parse_float(text: str) -> float | None:
    return float(text) if text else None


# every other column is a float, or empty for None
_PARSERS = {"batch": int, "action": str, "delta": int, "widths": lambda text: tuple(int(w) for w in text.split("x"))}


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
                    cells[c] = _PARSERS.get(c, _parse_float)(v)
                except ValueError:
                    raise ValueError(f"{path}: row {i}, column {c}: {v!r}") from None
            records.append(TraceRecord(**cells))
    return records


def replay_summary(path: str, last: int) -> Summary:
    """Recompute the run summary from a trace file."""
    return summarize(read_trace(path), last)
