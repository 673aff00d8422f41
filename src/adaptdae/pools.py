"""Bounded example pools: recent batches, dissimilar batches, hard examples.

Every pool is a sequence of batches.  The recent and diverse pools hold the
stream's immutable batches, never copies; a hard-pool block copies only the hard rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .network import DataBatch


def batch_distance(a: DataBatch, b: DataBatch) -> float:
    """Cosine distance between the class histograms of two batches, in [0, 1].

    Computed as half the squared distance of the unit histograms, which
    equals 1 - cos and is exactly 0 for identical distributions.
    """
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot measure distance to an empty batch")
    ha = a.class_histogram()
    hb = b.class_histogram()
    if ha.shape != hb.shape:
        raise ValueError("batches disagree on class count")
    ua = ha / np.linalg.norm(ha)
    ub = hb / np.linalg.norm(hb)
    return min(1.0, 0.5 * float(np.sum((ua - ub) ** 2)))


@dataclass
class PoolSet:
    """The three pools used by the streaming controllers.

    ``recent`` is a FIFO of whole batches capped at ``capacity`` examples.
    ``diverse`` keeps batches whose pairwise distance exceeds
    ``distance_threshold``, same capacity, evicting the oldest on overflow.
    ``hard`` holds the hard examples of each batch as one block and has no
    cap; its owner clears it after acting on it.
    """

    capacity: int
    distance_threshold: float
    recent: deque = field(default_factory=deque)
    diverse: deque = field(default_factory=deque)
    hard: list = field(default_factory=list)

    def recent_examples(self) -> int:
        return sum(b.size for b in self.recent)

    def diverse_examples(self) -> int:
        return sum(b.size for b in self.diverse)

    def hard_count(self) -> int:
        return sum(b.size for b in self.hard)

    def clear_hard(self) -> None:
        self.hard.clear()

    def hard_as_batch(self, seq_id: int) -> DataBatch:
        if not self.hard:
            raise ValueError("hard pool is empty")
        return DataBatch(seq_id, np.vstack([b.inputs for b in self.hard]), np.vstack([b.labels for b in self.hard]))


def update_recent(pools: PoolSet, batch: DataBatch) -> PoolSet:
    """Append the batch, evicting whole oldest batches past the capacity."""
    pools.recent.append(batch)
    while pools.recent_examples() > pools.capacity and len(pools.recent) > 1:
        pools.recent.popleft()
    return pools


def update_diverse(pools: PoolSet, batch: DataBatch) -> PoolSet:
    """Admit the batch only if it is far from every member.

    An empty pool accepts anything.  On overflow the oldest batch leaves
    first.  A batch within the distance threshold of any member leaves the
    pool unchanged.
    """
    if all(batch_distance(batch, m) > pools.distance_threshold for m in pools.diverse):
        pools.diverse.append(batch)
        while pools.diverse_examples() > pools.capacity and len(pools.diverse) > 1:
            pools.diverse.popleft()
    return pools


def update_hard(pools: PoolSet, batch: DataBatch, per_example_losses: np.ndarray) -> PoolSet:
    """Add the batch's examples whose loss lies strictly above its mean, as one block.

    An admitted loss must also exceed the batch minimum: a batch of equal
    losses has none above its mean, but the rounded mean can fall below them.
    """
    losses = np.asarray(per_example_losses, dtype=np.float64)
    if losses.shape != (batch.size,):
        raise ValueError("one loss per example required")
    mask = (losses > losses.mean()) & (losses > losses.min())
    if mask.any():
        pools.hard.append(DataBatch(batch.seq_id, batch.inputs[mask], batch.labels[mask]))
    return pools
