"""Labelled batch streams with controllable class-ratio drift.

Ratio curves come from a Gaussian process over batch time, pushed through a
softmax so they form a distribution at every step; per-batch class counts
follow largest-remainder rounding so every batch has exactly the requested
size.  Batches are drawn one at a time, so a stream need not be held whole.
Sources are either synthetic Gaussian blobs or IDX image files.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import gp
from .network import DataBatch

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class StreamSpec:
    classes: int
    dims: int
    batch_size: int = 1000
    batches: int = 1
    mode: str = "nonstationary"  # stationary | nonstationary | switch
    gp_length_scale: float | None = None  # defaults to batches / 10
    mask_noise: float = 0.1
    switch_at: int | None = None  # switch mode: batch index of the flip
    skew: float = 0.9  # switch mode: mass on the favoured classes
    seed: int = 0

    def validate(self) -> None:
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.dims < 1 or self.batch_size < 1 or self.batches < 1:
            raise ValueError("dims, batch_size and batches must be positive")
        if self.mode not in ("stationary", "nonstationary", "switch"):
            raise ValueError(f"unknown stream mode {self.mode!r}")
        if not 0.0 <= self.mask_noise <= 1.0:
            raise ValueError("mask_noise must be a probability")
        if not 0.0 < self.skew < 1.0:
            raise ValueError("skew must be in (0, 1)")
        if (self.switch_at or 0) < 0:  # an unset switch_at is None
            raise ValueError("switch_at must be non-negative")
        if self.gp_length_scale is not None and not 0.0 < self.gp_length_scale < math.inf:
            raise ValueError("gp_length_scale must be finite and positive")


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
    """Integer class counts summing exactly to ``total``.

    Floors first, then hands the leftovers to the largest fractional
    remainders; ties go to the lower class index.
    """
    scaled = np.asarray(ratios, dtype=np.float64) * total
    base = np.floor(scaled).astype(int)
    leftover = total - int(base.sum())
    order = np.argsort(-(scaled - base), kind="stable")
    base[order[:leftover]] += 1
    return base


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
        flip = spec.switch_at if spec.switch_at is not None else spec.batches // 2
        out = np.empty((spec.batches, spec.classes))
        out[:flip] = pre
        out[flip:] = post
        return out
    length_scale = spec.gp_length_scale if spec.gp_length_scale else spec.batches / 10.0
    curves = gp_sample_curves(spec.classes, spec.batches, length_scale, rng)
    return np.vstack([class_ratios(curves, t) for t in range(spec.batches)])


def iter_stream(
    source: LabeledSource, spec: StreamSpec, rng: np.random.Generator | None = None
) -> Iterator[DataBatch]:
    """The batch sequence, drawn one batch at a time; bitwise reproducible per seed.

    The checks and the ratio schedule run when this is called; each batch
    is drawn when it is asked for, with ``build_stream``'s draws in the same
    order.  A batch allocates only its own ``inputs`` and ``labels``: the
    class blocks, the mask-noise draws and the mask live in scratch buffers
    reused across batches.
    """
    spec.validate()
    source.validate()
    if source.classes != spec.classes:
        raise ValueError("source class count does not match the spec")
    if source.dims != spec.dims:
        raise ValueError("source dimensionality does not match the spec")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    schedule = _ratio_schedule(spec, rng)
    return _draw_batches(source, spec, schedule, rng)


def _draw_batches(
    source: LabeledSource, spec: StreamSpec, schedule: np.ndarray, rng: np.random.Generator
) -> Iterator[DataBatch]:
    # gathered rows are cast to float64 either way; a float64 store is not copied
    stores = [np.asarray(store, dtype=np.float64) for store in source.examples]
    eye = np.eye(spec.classes)
    stacked = np.empty((spec.batch_size, spec.dims))
    noise = np.empty_like(stacked)
    mask = np.empty(stacked.shape, dtype=bool)
    for t in range(spec.batches):
        counts = largest_remainder_counts(schedule[t], spec.batch_size)
        start = 0
        for k, c in enumerate(counts):
            if c == 0:
                continue
            rows = slice(start, start + c)
            start += c
            store = stores[k]
            # indices are drawn in range, so "clip" never clips; it spares the
            # buffered copy that take makes into ``out`` under "raise"
            np.take(store, rng.integers(0, store.shape[0], size=c), axis=0, out=stacked[rows], mode="clip")
            if spec.mask_noise > 0:
                # the mask is read off the first draw before the second overwrites it
                rng.random(out=noise[rows])
                np.less(noise[rows], spec.mask_noise, out=mask[rows])
                rng.random(out=noise[rows])
                np.putmask(stacked[rows], mask[rows], noise[rows])
        perm = rng.permutation(spec.batch_size)
        classes_of_rows = np.repeat(np.arange(spec.classes), counts)
        yield DataBatch(seq_id=t, inputs=stacked[perm], labels=eye[classes_of_rows[perm]])


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
