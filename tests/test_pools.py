import math

import numpy as np
import pytest

from adaptdae.network import DataBatch
from adaptdae.pools import PoolSet, batch_distance, update_diverse, update_hard, update_recent


def hist_batch(counts, seq_id=0, dims=3):
    """A batch whose class histogram is exactly ``counts``."""
    rng = np.random.default_rng(seq_id + 1)
    classes = len(counts)
    idx = np.concatenate([np.full(c, k) for k, c in enumerate(counts)])
    return DataBatch(
        seq_id=seq_id,
        inputs=rng.random((idx.size, dims)),
        labels=np.eye(classes)[idx],
    )


class TestBatchDistance:
    def test_identical_distributions(self):
        a = hist_batch([5, 5], seq_id=0)
        b = hist_batch([7, 7], seq_id=1)
        assert batch_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_single_class(self):
        a = hist_batch([10, 0], seq_id=0)
        b = hist_batch([0, 10], seq_id=1)
        assert batch_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_half_vs_pure(self):
        # cosine of (0.5, 0.5) and (1, 0) is 1/sqrt(2)
        a = hist_batch([5, 5], seq_id=0)
        b = hist_batch([10, 0], seq_id=1)
        assert batch_distance(a, b) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry_and_self_distance(self):
        rng = np.random.default_rng(0)
        for i in range(20):
            ca = list(rng.integers(0, 10, size=3) + 1)
            cb = list(rng.integers(0, 10, size=3) + 1)
            a, b = hist_batch(ca, seq_id=i), hist_batch(cb, seq_id=100 + i)
            assert batch_distance(a, b) == pytest.approx(batch_distance(b, a), abs=1e-15)
            assert batch_distance(a, a) == 0.0
            assert 0.0 <= batch_distance(a, b) <= 1.0

    def test_empty_batch_rejected(self):
        a = hist_batch([3, 3])
        empty = DataBatch(seq_id=9, inputs=np.zeros((0, 3)), labels=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            batch_distance(a, empty)


class TestRecentPool:
    def test_fifo_of_three_batches(self):
        pools = PoolSet(capacity=3000, distance_threshold=0.5)
        for i in range(5):
            update_recent(pools, hist_batch([500, 500], seq_id=i))
        assert [b.seq_id for b in pools.recent] == [2, 3, 4]

    def test_first_batch_into_empty_pool(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        batch = hist_batch([5, 5])
        update_recent(pools, batch)
        assert list(pools.recent) == [batch]

    def test_eviction_order_matches_queue_oracle(self):
        rng = np.random.default_rng(4)
        pools = PoolSet(capacity=50, distance_threshold=0.5)
        oracle = []
        for i in range(30):
            size = int(rng.integers(5, 15))
            batch = hist_batch([size, size], seq_id=i)
            update_recent(pools, batch)
            oracle.append(batch)
            while sum(b.size for b in oracle) > 50 and len(oracle) > 1:
                oracle.pop(0)
            assert [b.seq_id for b in pools.recent] == [b.seq_id for b in oracle]
            assert pools.recent_examples() <= 50


def diverse_oracle(sequence, capacity, threshold):
    """Independent step-through of the diverse-pool rule on histograms."""

    def dist(x, y):
        hx = x.class_histogram()
        hy = y.class_histogram()
        return 1.0 - (hx @ hy) / (np.linalg.norm(hx) * np.linalg.norm(hy))

    pool = []
    for batch in sequence:
        if not pool:
            pool.append(batch)
        elif all(dist(batch, m) > threshold for m in pool):
            pool.append(batch)
            while sum(b.size for b in pool) > capacity and len(pool) > 1:
                pool.pop(0)
    return [b.seq_id for b in pool]


class TestDiversePool:
    def test_empty_pool_accepts_anything(self):
        pools = PoolSet(capacity=100, distance_threshold=0.9)
        batch = hist_batch([5, 5])
        update_diverse(pools, batch)
        assert list(pools.diverse) == [batch]

    def test_near_batch_rejected(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        update_diverse(pools, hist_batch([5, 5], seq_id=0))
        update_diverse(pools, hist_batch([6, 6], seq_id=1))  # distance 0
        assert [b.seq_id for b in pools.diverse] == [0]

    def test_increasing_skew_with_zero_threshold(self):
        # every insertion happens, overflow evicts down to three batches
        pools = PoolSet(capacity=30, distance_threshold=0.0)
        for i in range(5):
            update_diverse(pools, hist_batch([10 - i, i], seq_id=i, dims=2))
        assert len(pools.diverse) == 3
        assert [b.seq_id for b in pools.diverse] == [2, 3, 4]

    def test_matches_step_through_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            capacity = int(rng.integers(20, 60))
            threshold = float(rng.random() * 0.6)
            seq = [
                hist_batch(list(rng.integers(0, 8, size=3) + 1), seq_id=i)
                for i in range(12)
            ]
            pools = PoolSet(capacity=capacity, distance_threshold=threshold)
            for b in seq:
                update_diverse(pools, b)
                assert pools.diverse_examples() <= capacity
            assert [b.seq_id for b in pools.diverse] == diverse_oracle(seq, capacity, threshold)

    def test_pairwise_distance_certificate(self):
        rng = np.random.default_rng(21)
        pools = PoolSet(capacity=10_000, distance_threshold=0.3)
        for i in range(40):
            update_diverse(pools, hist_batch(list(rng.integers(0, 9, size=4) + 1), seq_id=i))
        members = pools.diverse
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert batch_distance(members[i], members[j]) > 0.3


class TestHardPool:
    def test_equal_losses_add_nothing(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        batch = hist_batch([3, 3])
        update_hard(pools, batch, np.full(batch.size, 2.5))
        assert pools.hard_count() == 0

    def test_only_above_mean_added(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        batch = hist_batch([2, 1])
        update_hard(pools, batch, np.array([1.0, 2.0, 3.0]))
        assert pools.hard_count() == 1
        assert np.array_equal(pools.hard_as_batch(seq_id=0).inputs, batch.inputs[2:3])

    def test_strictly_fewer_than_all(self):
        rng = np.random.default_rng(1)
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        batch = hist_batch([10, 10])
        losses = rng.random(batch.size)
        update_hard(pools, batch, losses)
        assert pools.hard_count() < batch.size

    def test_length_mismatch_rejected(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        with pytest.raises(ValueError):
            update_hard(pools, hist_batch([2, 2]), np.array([1.0]))

    def test_hard_as_batch_roundtrip(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        batch = hist_batch([4, 4])
        update_hard(pools, batch, np.arange(batch.size, dtype=float))
        rebuilt = pools.hard_as_batch(seq_id=7)
        assert rebuilt.size == pools.hard_count()
        rebuilt.validate()
        pools.clear_hard()
        assert pools.hard_count() == 0


def row_wise_hard_pool(calls):
    """The hard pool as one entry per example: each row above its batch's
    mean and minimum, in order, stacked."""
    inputs, labels = [], []
    for batch, losses in calls:
        for i in range(batch.size):
            if losses[i] > losses.mean() and losses[i] > losses.min():
                inputs.append(batch.inputs[i])
                labels.append(batch.labels[i])
    return inputs, labels


class TestHardPoolBlocks:
    def test_matches_the_row_wise_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            pools = PoolSet(capacity=100, distance_threshold=0.5)
            calls = []
            for i in range(int(rng.integers(1, 12))):
                size = int(rng.integers(1, 21))
                batch = DataBatch(seq_id=i, inputs=rng.random((size, 4)), labels=np.eye(3)[rng.integers(0, 3, size)])
                # every third batch ties all its losses, some others repeat a few values
                if i % 3 == 0:
                    losses = np.full(size, rng.random())
                else:
                    losses = rng.choice(rng.random(3), size) if rng.random() < 0.5 else rng.random(size)
                blocks = len(pools.hard)
                update_hard(pools, batch, losses)
                calls.append((batch, losses))
                hard_rows, _ = row_wise_hard_pool([(batch, losses)])
                assert len(pools.hard) - blocks == (1 if hard_rows else 0)
            inputs, labels = row_wise_hard_pool(calls)
            assert pools.hard_count() == len(inputs)
            if inputs:
                rebuilt = pools.hard_as_batch(seq_id=99)
                assert rebuilt.inputs.tobytes() == np.vstack(inputs).tobytes()
                assert rebuilt.labels.tobytes() == np.vstack(labels).tobytes()
            else:
                assert pools.hard == []

    def test_batch_without_hard_examples_adds_no_block(self):
        pools = PoolSet(capacity=100, distance_threshold=0.5)
        update_hard(pools, hist_batch([1, 2], seq_id=0), np.array([1.0, 2.0, 3.0]))
        update_hard(pools, hist_batch([3, 3], seq_id=1), np.full(6, 0.7))
        update_hard(pools, hist_batch([1, 0], seq_id=2), np.array([0.4]))
        assert [b.seq_id for b in pools.hard] == [0]
        assert pools.hard_count() == 1


class TestSizeBoundsProperty:
    def test_random_streams_never_violate_bounds(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            capacity = int(rng.integers(30, 120))
            pools = PoolSet(capacity=capacity, distance_threshold=float(rng.random()))
            for i in range(25):
                batch = hist_batch(list(rng.integers(0, 6, size=3) + 1), seq_id=i)
                update_recent(pools, batch)
                update_diverse(pools, batch)
                assert pools.recent_examples() <= capacity
                assert pools.diverse_examples() <= capacity
