import copy
import math

import numpy as np
import pytest

from adaptdae import midae
from adaptdae.config import MiDaeConfig
from adaptdae.midae import MiDaeState, merge_inc_step, update_rule
from adaptdae.network import finetune, forward
from adaptdae.pools import PoolSet
from conftest import make_batch, make_net


def fresh_state(delta_nodes=4, pool_threshold=10, **kwargs):
    return MiDaeState(MiDaeConfig(**{"grow_step": 4, **kwargs}, delta_init=delta_nodes), pool_threshold)


class TestUpdateRule:
    def test_flat_error_halves_step(self):
        state = fresh_state(delta_nodes=12)
        assert update_rule(state, 0.5, 0.5) == 6

    def test_fast_improvement_grows_step(self):
        state = fresh_state(delta_nodes=12, improve_eps=0.1)
        assert update_rule(state, 0.25, 0.5) == 16

    def test_dead_zone_keeps_step(self):
        state = fresh_state(delta_nodes=12, improve_eps=0.01, converge_eps=0.001)
        # ratio 0.995 sits between 1 - 0.01 and 1 - 0.001
        assert update_rule(state, 0.995, 1.0) == 12

    def test_rejects_nonpositive_previous(self):
        with pytest.raises(ValueError):
            update_rule(fresh_state(), 0.5, 0.0)

    def test_repeated_halving_reaches_zero(self):
        state = fresh_state(delta_nodes=5)
        for _ in range(5):
            update_rule(state, 1.0, 1.0)
        assert state.delta_nodes == 0


class TestMergeIncStep:
    def test_no_event_below_threshold(self, rng):
        net = make_net(rng, dims=5, widths=(8,), classes=3)
        pools = PoolSet(capacity=1000, distance_threshold=0.5)
        state = fresh_state(pool_threshold=10_000)
        for i in range(5):
            event = merge_inc_step(net, make_batch(rng, 6, 5, 3, seq_id=i), pools, state, rng)
            assert event is None
            assert net.layers[0].n_hidden == 8

    def test_overflow_triggers_exactly_one_event(self, rng):
        net = make_net(rng, dims=5, widths=(8,), classes=3)
        pools = PoolSet(capacity=1000, distance_threshold=0.5)
        state = fresh_state(delta_nodes=4, pool_threshold=10)
        events = []
        for i in range(20):
            event = merge_inc_step(net, make_batch(rng, 8, 5, 3, seq_id=i), pools, state, rng)
            if event is not None:
                events.append((i, event))
                # the hard pool restarts right after the event
                assert pools.hard_count() == 0
        assert events, "threshold never fired"
        first = events[0][1]
        assert first.added == 4
        assert first.merged == math.ceil(0.2 * 4)

    def test_width_changes_only_at_events(self, rng):
        net = make_net(rng, dims=5, widths=(10,), classes=3)
        pools = PoolSet(capacity=1000, distance_threshold=0.5)
        state = fresh_state(delta_nodes=3, pool_threshold=12)
        width = 10
        for i in range(25):
            event = merge_inc_step(net, make_batch(rng, 8, 5, 3, seq_id=i), pools, state, rng)
            if event is None:
                assert net.layers[0].n_hidden == width
            else:
                assert event.merged == math.ceil(state.cfg.merge_ratio * event.added)
                width = width + event.added - event.merged
                assert net.layers[0].n_hidden == width

    def test_hard_pool_bound(self, rng, monkeypatch):
        # only examples strictly above their batch's mean loss enter, so one
        # batch adds at most batch_size - 1 before the overflow check clears it
        threshold, batch_size = 25, 8
        peaks = []
        update_hard = midae.update_hard

        def measured(pools, batch, losses):
            update_hard(pools, batch, losses)
            peaks.append(pools.hard_count())
            return pools

        monkeypatch.setattr(midae, "update_hard", measured)
        net = make_net(rng, dims=5, widths=(8,), classes=3)
        pools = PoolSet(capacity=1000, distance_threshold=0.5)
        state = fresh_state(delta_nodes=2, grow_step=1, pool_threshold=threshold)
        for i in range(80):
            merge_inc_step(net, make_batch(rng, batch_size, 5, 3, seq_id=i), pools, state, rng)
            assert pools.hard_count() <= threshold
        assert len(peaks) == 80
        assert threshold < max(peaks) <= threshold + batch_size - 1
        # equal losses: none lies above the rest, though the rounded mean of
        # each of these batches falls below its common value
        for size, loss in ((3, 0.7), (6, 0.1), (15, 0.7)):
            pools.clear_hard()
            update_hard(pools, make_batch(rng, size, 5, 3, seq_id=80), np.full(size, loss))
            assert pools.hard_count() == 0, (size, loss)

    def test_infinite_threshold_equals_plain_finetuning(self):
        init = np.random.default_rng(7)
        net_a = make_net(init)
        net_b = copy.deepcopy(net_a)
        data = np.random.default_rng(8)
        batches = [make_batch(data, 8, 6, 3, seq_id=i) for i in range(6)]

        pools = PoolSet(capacity=10_000, distance_threshold=0.5)
        state = fresh_state(pool_threshold=10**9)
        rng = np.random.default_rng(9)
        for b in batches:
            # the step only reads the batch until an event fires
            assert merge_inc_step(net_a, b, pools, state, rng) is None
            finetune(net_a, b, hybrid_weight=0.2)
            finetune(net_b, b, hybrid_weight=0.2)
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)
            assert np.array_equal(la.b_rec, lb.b_rec)
        assert np.array_equal(net_a.out_W, net_b.out_W)


def params(net):
    arrays = [net.out_W, net.out_b]
    for layer in net.layers:
        arrays.extend([layer.W, layer.b, layer.b_rec])
    return arrays


class TestSharedForward:
    def test_shared_forward_equals_recomputing_across_events(self):
        net_a = make_net(np.random.default_rng(3), dims=5, widths=(8, 4), classes=3)
        net_b = copy.deepcopy(net_a)
        pools_a = PoolSet(capacity=1000, distance_threshold=0.5)
        pools_b = PoolSet(capacity=1000, distance_threshold=0.5)
        state_a = fresh_state(delta_nodes=4, pool_threshold=10)
        state_b = fresh_state(delta_nodes=4, pool_threshold=10)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        data = np.random.default_rng(5)
        events = 0
        for i in range(15):
            batch = make_batch(data, 8, 5, 3, seq_id=i)
            # as the harness does: the forward is stale once an event edits the network
            fwd = forward(net_a, batch.inputs)
            ev_a = merge_inc_step(net_a, batch, pools_a, state_a, rng_a, fwd)
            finetune(net_a, batch, 0.2, None if ev_a else fwd)
            ev_b = merge_inc_step(net_b, batch, pools_b, state_b, rng_b)
            finetune(net_b, batch, 0.2)
            assert ev_a == ev_b
            events += ev_a is not None
            assert all(np.array_equal(a, b) for a, b in zip(params(net_a), params(net_b)))
            assert pools_a.hard_count() == pools_b.hard_count()
        assert events >= 2, "expected structural events"


class TestConfigValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            MiDaeConfig(improve_eps=0.001, converge_eps=0.01).validate()

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            MiDaeConfig(delta_init=-1).validate()
