"""Labelled batch streams with controllable class-ratio drift.

Ratio curves come from a Gaussian process over batch time, pushed through a
softmax so they form a distribution at every step; per-batch class counts
follow largest-remainder rounding so every batch has exactly the requested
size.  Batches are drawn one at a time, so a stream need not be held whole.
Sources are either synthetic Gaussian blobs or IDX image files.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import gp
from .network import DataBatch, in_unit_interval
from .ranges import inside, out_of_range, within

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# A batch's mask-noise uniforms are drawn this many at a time: the mask's
# through one block of this size, the values' into a window of this size
# whose hits are kept each time it fills.  At 1000 x 784 with mask_noise 0.2
# on a 2 vCPU AMD EPYC, a draw took 5.1-6.1 ms with blocks of 2^14 to 2^17
# alike and 6.0-7.8 ms with 2^18; at 2^16 the block and the window take
# 0.5 MB each, against 6.3 MB for one float64 batch.
SELECT_BLOCK_ELEMENTS = 1 << 16


@dataclass
class StreamSpec:
    classes: int = field(metadata=within("[2, inf)"))
    dims: int = field(metadata=within("[1, inf)"))
    batch_size: int = field(default=1000, metadata=within("[1, inf)"))
    batches: int = field(default=1, metadata=within("[1, inf)"))
    mode: str = field(default="nonstationary", metadata=within("{stationary, nonstationary, switch}"))
    gp_length_scale: float | None = field(default=None, metadata=within("(0, inf)"))  # defaults to batches / 10
    mask_noise: float = field(default=0.1, metadata=within("[0, 1]"))
    switch_at: int | None = field(default=None, metadata=within("[0, inf)"))  # switch mode: see flip()
    skew: float = field(default=0.9, metadata=within("(0, 1)"))  # switch mode: mass on the favoured classes
    seed: int = 0

    def flip(self) -> int:
        """Switch mode: the first batch with the post-switch ratios."""
        return self.switch_at if self.switch_at is not None else self.batches // 2

    def validate(self) -> None:
        problems = out_of_range(self, "stream.{}".format)
        # a flip at batch 0, or at or past the last batch, never switches
        if self.mode == "switch" and inside(self, "switch_at", "batches") and not 0 < self.flip() < self.batches:
            problems.append(
                f"stream.switch_at must be in [1, stream.batches) in switch mode, got a flip at {self.flip()}"
            )
        if problems:
            raise ValueError(*problems)


@dataclass
class LabeledSource:
    """Per-class example stores; every class holds at least one example."""

    examples: list  # one (count, dims) array per class

    @property
    def classes(self) -> int:
        return len(self.examples)

    @property
    def dims(self) -> int:
        return self.examples[0].shape[1]

    def validate(self) -> None:
        if not self.examples:
            raise ValueError("source has no classes")
        for k, arr in enumerate(self.examples):
            if arr.ndim != 2 or arr.shape[0] == 0:
                raise ValueError(f"class {k} has no examples")
            if arr.shape[1] != self.dims:
                raise ValueError("classes disagree on dimensionality")
            if not in_unit_interval(arr):
                raise ValueError(f"class {k} holds values outside [0, 1]")


def held_out_count(fraction: float, n: int) -> int:
    """The test examples ``split_source`` holds out of a class's ``n``."""
    return max(1, int(round(fraction * n))) if n > 1 else 0


def split_source(
    source: LabeledSource, fraction: float, rng: np.random.Generator
) -> tuple[LabeledSource, np.ndarray, np.ndarray]:
    """Hold out a class-balanced test fraction from every class store."""
    train_stores, test_x, test_y = [], [], []
    eye = np.eye(source.classes)
    for k, store in enumerate(source.examples):
        n = store.shape[0]
        n_test = held_out_count(fraction, n)
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


def gp_sample_curves(
    classes: int, length: int, length_scale: float, rng: np.random.Generator
) -> np.ndarray:
    """One smooth random curve per class over batch time, shape (classes, length)."""
    if length < 1:
        raise ValueError("length must be positive")
    t = np.arange(1, length + 1, dtype=np.float64)[:, None]
    cov = gp.kernel_matrix(t, t, sigma_f=1.0, length_scale=length_scale)
    cov[np.diag_indices(length)] += 1e-8
    L = np.linalg.cholesky(cov)
    return rng.standard_normal((classes, length)) @ L.T


def class_ratios(curves: np.ndarray, t: int) -> np.ndarray:
    """Softmax across classes of the curve values at column ``t``."""
    a = curves[:, t]
    a = a - a.max()
    e = np.exp(a)
    return e / e.sum()


def largest_remainder_counts(ratios: np.ndarray, total: int) -> np.ndarray:
    """Integer class counts summing exactly to ``total``, for one ratio
    vector or for every row of a ``(batches, classes)`` schedule at once.

    Floors first, then hands the leftovers to the largest fractional
    remainders; ties go to the lower class index.
    """
    scaled = np.asarray(ratios, dtype=np.float64) * total
    base = np.floor(scaled).astype(int)
    leftover = total - base.sum(axis=-1, keepdims=True)
    order = np.argsort(-(scaled - base), axis=-1, kind="stable")
    # each class's rank among its row's remainders: the first leftover ranks get one more
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(scaled.shape[-1]), axis=-1)
    return base + (rank < leftover)


def _switch_ratios(classes: int, skew: float) -> tuple[np.ndarray, np.ndarray]:
    # before the flip the first classes dominate; afterwards the remaining
    # class group takes over, so the model faces genuinely fresh classes
    favoured = max(1, classes // 2)
    rest = classes - favoured
    pre = np.full(classes, (1.0 - skew) / rest)
    pre[:favoured] = skew / favoured
    post = np.full(classes, (1.0 - skew) / favoured)
    post[favoured:] = skew / rest
    return pre, post


def _ratio_schedule(spec: StreamSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.mode == "stationary":
        return np.full((spec.batches, spec.classes), 1.0 / spec.classes)
    if spec.mode == "switch":
        pre, post = _switch_ratios(spec.classes, spec.skew)
        return np.where((np.arange(spec.batches) < spec.flip())[:, None], pre, post)
    length_scale = spec.gp_length_scale if spec.gp_length_scale else spec.batches / 10.0
    curves = gp_sample_curves(spec.classes, spec.batches, length_scale, rng)
    return np.vstack([class_ratios(curves, t) for t in range(spec.batches)])


def iter_stream(
    source: LabeledSource, spec: StreamSpec, rng: np.random.Generator | None = None
) -> Iterator[DataBatch]:
    """The batch sequence, drawn one batch at a time; bitwise reproducible per seed.

    The checks, the ratio schedule and its class counts run when this is
    called, and the class stores are copied into one float64 array; each
    batch is drawn when it is asked for, with ``build_stream``'s draws in
    the same order.  Between draws the generator holds no batch-sized
    array: a batch is gathered from the pooled rows already in permuted
    order, and the noise values of its masked elements are kept, a window
    of ``SELECT_BLOCK_ELEMENTS`` draws at a time, only where the mask hits,
    then written where their rows moved to.
    """
    spec.validate()
    source.validate()
    if source.classes != spec.classes:
        raise ValueError("source class count does not match the spec")
    if source.dims != spec.dims:
        raise ValueError("source dimensionality does not match the spec")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    counts = largest_remainder_counts(_ratio_schedule(spec, rng), spec.batch_size)
    # gathered rows are cast to float64 either way; the generator keeps
    # this copy, not the source
    pooled = np.concatenate(source.examples, axis=0, dtype=np.float64)
    ends = np.cumsum([store.shape[0] for store in source.examples]).tolist()
    class_rows = list(zip([0] + ends, ends))
    eye = np.eye(spec.classes)
    # each batch is drawn in a call of its own, so nothing of it outlives its draw here
    return (_draw_batch(t, pooled, class_rows, spec, c, eye, rng) for t, c in enumerate(counts))


def _draw_batch(
    seq_id: int,
    pooled: np.ndarray,
    class_rows: list[tuple[int, int]],
    spec: StreamSpec,
    counts: np.ndarray,
    eye: np.ndarray,
    rng: np.random.Generator,
) -> DataBatch:
    """One batch, with the reference's draws in its order: per class block,
    the rows, then (with mask noise) the mask uniforms and the value
    uniforms; then the permutation."""
    dims, size = spec.dims, spec.batch_size * spec.dims
    rows = np.empty(spec.batch_size, dtype=np.intp)
    if spec.mask_noise > 0:
        mask = np.empty(size, dtype=bool)
        block = np.empty(min(SELECT_BLOCK_ELEMENTS, size))
        window = np.empty_like(block)
        filled = 0
        hits = []  # (flat positions, noise values) of the unpermuted batch
    start = 0
    for (first, stop), c in zip(class_rows, counts.tolist()):
        if c == 0:
            continue
        # the same numbers as integers(0, stop - first), plus the class's
        # first row, and the generator left in the same state
        rows[start : start + c] = rng.integers(first, stop, size=c)
        lo, hi = start * dims, (start + c) * dims
        start += c
        if spec.mask_noise == 0:
            continue
        # the block's mask is read off the first draw before the second one
        for a in range(lo, hi, block.size):
            u = block[: min(block.size, hi - a)]
            rng.random(out=u)
            np.less(u, spec.mask_noise, out=mask[a : a + u.size])
        # the values fill the window across class blocks; a full window, and
        # the last one, keep their hits
        a = lo
        while a < hi:
            n = min(window.size - filled, hi - a)
            rng.random(out=window[filled : filled + n])
            filled += n
            a += n
            if filled == window.size or a == size:
                hit = np.flatnonzero(mask[a - filled : a])
                hits.append((hit + (a - filled), window[hit]))
                filled = 0
    perm = rng.permutation(spec.batch_size)
    inputs = np.take(pooled, rows[perm], axis=0)
    if spec.mask_noise > 0:
        # unpermuted row r is row where[r] of the batch
        where = np.empty_like(perm)
        where[perm] = np.arange(spec.batch_size)
        flat = inputs.reshape(-1)
        while hits:
            pos, values = hits.pop()
            r = pos // dims
            dest = where[r]
            dest -= r
            dest *= dims
            dest += pos
            flat[dest] = values
    classes_of_rows = np.repeat(np.arange(spec.classes), counts)
    return DataBatch(seq_id=seq_id, inputs=inputs, labels=eye[classes_of_rows[perm]])


def build_stream(
    source: LabeledSource, spec: StreamSpec, rng: np.random.Generator | None = None
) -> list[DataBatch]:
    """Materialise the whole batch sequence; bitwise reproducible per seed."""
    return list(iter_stream(source, spec, rng))


def synth_dataset(
    classes: int,
    dims: int,
    per_class: int,
    rng: np.random.Generator,
    spread: float = 0.1,
) -> LabeledSource:
    """Clamped Gaussian blobs around one prototype per class.

    Prototypes sit on distinct coordinates, so blobs stay linearly separable
    for small spreads whenever dims >= classes.
    """
    if classes * per_class < 1:
        raise ValueError("need at least one example")
    examples = []
    for k in range(classes):
        proto = np.full(dims, 0.2)
        proto[k % dims] = 0.8
        pts = proto + rng.normal(0.0, spread, size=(per_class, dims)) if spread > 0 else np.tile(proto, (per_class, 1))
        examples.append(np.clip(pts, 0.0, 1.0))
    return LabeledSource(examples=examples)


def _read_exact(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def load_idx(images_path: str, labels_path: str) -> LabeledSource:
    """Read an IDX image/label file pair into per-class stores.

    Pixels are scaled to [0, 1]; the two files must agree on the example
    count and every class up to the largest label must be populated.
    """
    raw = _read_exact(images_path)
    if len(raw) < 16:
        raise ValueError(f"{images_path}: truncated header")
    magic, count, rows, cols = struct.unpack_from(">IIII", raw, 0)
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"{images_path}: bad magic {magic:#010x}")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise ValueError(f"{images_path}: expected {need} bytes, found {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    images = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    raw = _read_exact(labels_path)
    if len(raw) < 8:
        raise ValueError(f"{labels_path}: truncated header")
    magic, label_count = struct.unpack_from(">II", raw, 0)
    if magic != IDX_LABELS_MAGIC:
        raise ValueError(f"{labels_path}: bad magic {magic:#010x}")
    if label_count != count:
        raise ValueError(f"label count {label_count} does not match image count {count}")
    if len(raw) < 8 + count:
        raise ValueError(f"{labels_path}: expected {8 + count} bytes, found {len(raw)}")
    labels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=8)

    classes = int(labels.max()) + 1 if count else 0
    examples = [images[labels == k] for k in range(classes)]
    source = LabeledSource(examples=examples)
    source.validate()
    return source
