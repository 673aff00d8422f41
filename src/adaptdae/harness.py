"""Experiment driver: bind a stream, a policy and the metrics.

One run is one sequential pass over the batch stream.  Each batch is
evaluated before anything trains on it, so the local error for batch n is
the classification error on batch n+1 measured strictly pre-training.  The
global error is measured on a class-balanced held-out split after every
batch.  Runs with the same seed share the stream and the initial network
across policies.
"""

from __future__ import annotations

import csv
import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, validate_experiment
from .controller import RlController, window_kl
from .midae import MiDaeState, merge_inc_step
from .network import DataBatch, Forward, Network, batch_errors, finetune, forward, init_network, predict, pretrain_layer
from .pools import PoolSet, update_diverse, update_recent
from .stream import LabeledSource, build_stream, load_idx, synth_dataset
from .structure import ActionKind, increment_nodes, merge_nodes, pool_finetune

CSV_COLUMNS = (
    "batch",
    "action",
    "delta",
    "widths",
    "l_gen",
    "l_cls",
    "e_lcl",
    "e_glb",
    "reward",
    "q_pool",
    "q_increment",
    "q_merge",
    "kl",
    "wall_ms",
)


class NumericalBreakdown(ArithmeticError):
    """The network's outputs stopped being finite during a run."""


@dataclass
class TraceRecord:
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
    """Mean classification error over the held-out test set."""
    if test_inputs.shape[0] == 0:
        raise ValueError("test set is empty")
    y_hat = predict(net, test_inputs)
    hits = np.argmax(y_hat, axis=1) == np.argmax(test_labels, axis=1)
    return float(1.0 - hits.mean())


def split_source(
    source: LabeledSource, fraction: float, rng: np.random.Generator
) -> tuple[LabeledSource, np.ndarray, np.ndarray]:
    """Hold out a class-balanced test fraction from every class store."""
    train_stores, test_x, test_y = [], [], []
    eye = np.eye(source.classes)
    for k, store in enumerate(source.examples):
        n = store.shape[0]
        n_test = max(1, int(round(fraction * n))) if n > 1 else 0
        perm = rng.permutation(n)
        test_idx, train_idx = perm[:n_test], perm[n_test:]
        if train_idx.size == 0:
            raise ValueError(f"class {k} has no training examples left after the split")
        train_stores.append(store[train_idx])
        if n_test:
            test_x.append(store[test_idx])
            test_y.append(np.tile(eye[k], (n_test, 1)))
    if not test_x:
        raise ValueError("test split is empty; increase per-class examples")
    return LabeledSource(train_stores), np.vstack(test_x), np.vstack(test_y)


def _build_source(cfg: ExperimentConfig, rng: np.random.Generator) -> LabeledSource:
    if cfg.kind == "idx":
        return load_idx(cfg.images, cfg.labels)
    return synth_dataset(cfg.stream.classes, cfg.stream.dims, cfg.per_class, rng, cfg.spread)


def prepare_data(cfg: ExperimentConfig):
    """Build the batch stream and test split; a pure function of the seed,
    so every policy sees identical data."""
    stream_rng = np.random.default_rng([cfg.seed, 0])
    source = _build_source(cfg, stream_rng)
    spec = cfg.stream
    if cfg.kind == "idx":
        spec = replace(spec, classes=source.classes, dims=source.dims)
    train_source, test_x, test_y = split_source(source, cfg.test_fraction, stream_rng)
    batches = build_stream(train_source, spec, stream_rng)
    return spec, batches, test_x, test_y


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> RunResult:
    """Run one policy over one stream and emit the trace.

    ``out_path`` overrides ``cfg.out``; pass an empty string to skip the
    trace file.
    """
    problems = validate_experiment(cfg)
    if problems:
        raise ValueError("; ".join(problems))

    init_rng = np.random.default_rng([cfg.seed, 1])
    train_rng = np.random.default_rng([cfg.seed, 2])
    ctrl_rng = np.random.default_rng([cfg.seed, 3])

    spec, batches, test_x, test_y = prepare_data(cfg)

    net = init_network(
        spec.dims,
        cfg.nn.widths,
        spec.classes,
        init_rng,
        learning_rate=cfg.nn.learning_rate,
        corruption_p=cfg.nn.corruption,
    )
    if cfg.nn.pretrain_batches > 0:
        warm = batches[: cfg.nn.pretrain_batches]
        for layer_index in range(len(net.layers)):
            pretrain_layer(net, layer_index, warm, cfg.nn.pretrain_epochs, train_rng)

    pools = PoolSet(capacity=cfg.pool.capacity, distance_threshold=cfg.pool.distance_threshold)
    controller = None
    midae_state = None
    if cfg.policy == "radae":
        controller = RlController(cfg.rl, initial_width=cfg.nn.widths[0], rng=ctrl_rng)
    elif cfg.policy == "midae":
        threshold = cfg.midae.pool_threshold if cfg.midae.pool_threshold is not None else cfg.pool.capacity
        midae_state = MiDaeState(
            delta_nodes=cfg.midae.delta_init,
            grow_step=cfg.midae.grow_step,
            merge_ratio=cfg.midae.merge_ratio,
            improve_eps=cfg.midae.improve_eps,
            converge_eps=cfg.midae.converge_eps,
            pool_threshold=threshold,
        )

    records: list[TraceRecord] = []
    # the newest label histogram and the ema_window ones before it
    histograms: deque[np.ndarray] = deque(maxlen=cfg.rl.ema_window + 1)
    trained_ids: set[int] = set()
    fwd, next_eval = _evaluate_upcoming(net, batches[0], 0)

    for n, batch in enumerate(batches):
        t0 = time.perf_counter()
        # measured before anything trained on this batch; fwd is its forward
        # under the current parameters until a structural edit drops it
        l_gen, l_cls = next_eval
        assert batch.seq_id not in trained_ids, "evaluation must precede training"
        histograms.append(batch.class_histogram())
        kl = window_kl(histograms)

        update_recent(pools, batch)
        update_diverse(pools, batch)

        action = ""
        delta = 0
        reward = None
        q_values = None
        if cfg.policy == "radae":
            controller.observe(l_gen, l_cls, net.layers[0].n_hidden, kl)
            decision = controller.decide(n)
            action = decision.kind.value
            reward = decision.reward
            q_values = decision.q_values
            if decision.kind is ActionKind.POOL:
                diverse = list(pools.diverse)
                trained_ids.update(b.seq_id for b in diverse)
                pool_finetune(net, diverse, cfg.nn.hybrid_weight)
                fwd = None
            elif decision.delta_inc > 0:
                recent = list(pools.recent)
                trained_ids.update(b.seq_id for b in recent)
                increment_nodes(net, decision.delta_inc, recent, train_rng)
                delta = decision.delta_inc
                fwd = None
            elif decision.delta_mrg > 0:
                merge_nodes(net, decision.delta_mrg)
                delta = -decision.delta_mrg
                fwd = None
        if cfg.policy == "midae":
            before = net.layers[0].n_hidden
            event = merge_inc_step(net, batch, pools, midae_state, train_rng, cfg.nn.hybrid_weight, fwd)
            if event is not None:
                action = "event"
                delta = net.layers[0].n_hidden - before
        else:  # sdae keeps its structure; radae acted above
            finetune(net, batch, cfg.nn.hybrid_weight, fwd)
        trained_ids.add(batch.seq_id)

        fwd = None  # stale now that the batch trained; free it before the next
        if n + 1 < len(batches):
            assert batches[n + 1].seq_id not in trained_ids, "evaluation must precede training"
            fwd, next_eval = _evaluate_upcoming(net, batches[n + 1], n + 1)
            e_lcl = next_eval[1]
        else:
            e_lcl = None
        e_glb = eval_global(net, test_x, test_y)
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

    summary = summarize(records, cfg.summary_last)
    path = cfg.out if out_path is None else out_path
    if path:
        write_trace(path, records)
    return RunResult(records=records, summary=summary, trace_path=path or None)


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


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value)


def write_trace(path: str, records: list[TraceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.batch,
                    r.action,
                    r.delta,
                    "x".join(str(w) for w in r.widths),
                    _fmt(r.l_gen),
                    _fmt(r.l_cls),
                    _fmt(r.e_lcl),
                    _fmt(r.e_glb),
                    _fmt(r.reward),
                    _fmt(r.q_pool),
                    _fmt(r.q_increment),
                    _fmt(r.q_merge),
                    _fmt(r.kl),
                    _fmt(r.wall_ms),
                ]
            )


def _parse_float(text: str) -> float | None:
    return float(text) if text else None


def read_trace(path: str) -> list[TraceRecord]:
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header")
        records = []
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: malformed row {row!r}")
            records.append(
                TraceRecord(
                    batch=int(row[0]),
                    action=row[1],
                    delta=int(row[2]),
                    widths=tuple(int(w) for w in row[3].split("x")),
                    l_gen=_parse_float(row[4]),
                    l_cls=_parse_float(row[5]),
                    e_lcl=_parse_float(row[6]),
                    e_glb=_parse_float(row[7]),
                    reward=_parse_float(row[8]),
                    q_pool=_parse_float(row[9]),
                    q_increment=_parse_float(row[10]),
                    q_merge=_parse_float(row[11]),
                    kl=_parse_float(row[12]),
                    wall_ms=_parse_float(row[13]),
                )
            )
    return records


def replay_summary(path: str, last: int) -> Summary:
    """Recompute the run summary from a trace file."""
    return summarize(read_trace(path), last)
