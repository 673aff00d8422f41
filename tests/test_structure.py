import copy

import numpy as np
import pytest

from adaptdae.network import DataBatch, predict
from adaptdae.structure import (
    closest_pairs,
    increment_nodes,
    merge_nodes,
    pool_finetune,
)
from conftest import make_batch, make_net


def params_equal(a, b):
    return all(
        np.array_equal(x, y)
        for x, y in zip(
            [a.W for a in a.layers] + [a.out_W, a.out_b],
            [b.W for b in b.layers] + [b.out_W, b.out_b],
        )
    )


class TestIncrement:
    def test_zero_is_noop(self, rng):
        net = make_net(rng)
        before = copy.deepcopy(net)
        increment_nodes(net, 0, [], rng)
        assert params_equal(net, before)

    def test_dimension_bookkeeping(self, rng):
        net = make_net(rng, dims=6, widths=(10, 7), classes=3)
        batch = make_batch(rng, 8, 6, 3)
        increment_nodes(net, 3, [batch], rng)
        assert net.layers[0].n_hidden == 13
        assert net.layers[0].b.shape == (13,)
        assert net.layers[1].W.shape == (7, 13)
        assert net.layers[1].b_rec.shape == (13,)
        net.check()

    def test_single_layer_bookkeeping(self, rng):
        net = make_net(rng, dims=6, widths=(10,), classes=3)
        batch = make_batch(rng, 8, 6, 3)
        increment_nodes(net, 2, [batch], rng)
        assert net.out_W.shape == (3, 12)
        net.check()

    def test_empty_pool_rejected(self, rng):
        net = make_net(rng)
        with pytest.raises(ValueError):
            increment_nodes(net, 2, [], rng)

    def test_existing_parameters_untouched(self, rng):
        net = make_net(rng, dims=6, widths=(10, 7), classes=3)
        batch = make_batch(rng, 8, 6, 3)
        old = copy.deepcopy(net)
        increment_nodes(net, 3, [batch], rng)
        assert np.array_equal(net.layers[0].W[:10], old.layers[0].W)
        assert np.array_equal(net.layers[0].b[:10], old.layers[0].b)
        assert np.array_equal(net.layers[0].b_rec, old.layers[0].b_rec)
        assert np.array_equal(net.layers[1].W[:, :10], old.layers[1].W)
        assert np.array_equal(net.out_W, old.out_W)

    def test_ablation_restores_old_predictions(self, rng):
        # zeroing the new downstream columns must recover the old function
        net = make_net(rng, dims=6, widths=(10, 7), classes=3)
        probe = make_batch(rng, 20, 6, 3)
        old_pred = predict(copy.deepcopy(net), probe.inputs)
        increment_nodes(net, 4, [make_batch(rng, 8, 6, 3)], rng)
        net.layers[1].W[:, 10:] = 0.0
        assert np.max(np.abs(predict(net, probe.inputs) - old_pred)) <= 1e-10


class TestMerge:
    def test_zero_is_noop(self, rng):
        net = make_net(rng)
        before = copy.deepcopy(net)
        merge_nodes(net, 0)
        assert params_equal(net, before)

    def test_width_shrinks(self, rng):
        net = make_net(rng, dims=6, widths=(6, 4), classes=3)
        merge_nodes(net, 2)
        assert net.layers[0].n_hidden == 4
        assert net.layers[1].W.shape == (4, 4)
        net.check()

    def test_insufficient_width_rejected(self, rng):
        net = make_net(rng, dims=6, widths=(5,), classes=3)
        with pytest.raises(ValueError):
            merge_nodes(net, 3)

    def test_duplicate_nodes_merge_exactly(self, rng):
        net = make_net(rng, dims=6, widths=(6, 4), classes=3)
        # duplicate node 2 into node 5, including its downstream column
        net.layers[0].W[5] = net.layers[0].W[2]
        net.layers[0].b[5] = net.layers[0].b[2]
        net.layers[1].W[:, 5] = net.layers[1].W[:, 2]
        probe = make_batch(rng, 25, 6, 3)
        before = predict(copy.deepcopy(net), probe.inputs)
        merge_nodes(net, 1)
        assert net.layers[0].n_hidden == 5
        after = predict(net, probe.inputs)
        assert np.max(np.abs(after - before)) <= 1e-6

    def test_pairs_match_bruteforce_greedy(self, rng):
        for _ in range(25):
            W = rng.normal(size=(8, 5))
            got = closest_pairs(W, 3)
            assert got == _greedy_pairs_oracle(W, 3)

    def test_permutation_equivariance(self, rng):
        net = make_net(rng, dims=6, widths=(6,), classes=3)
        perm = rng.permutation(6)
        permuted = copy.deepcopy(net)
        permuted.layers[0].W = permuted.layers[0].W[perm]
        permuted.layers[0].b = permuted.layers[0].b[perm]
        permuted.out_W = permuted.out_W[:, perm]

        merge_nodes(net, 2)
        merge_nodes(permuted, 2)
        assert net.layers[0].n_hidden == permuted.layers[0].n_hidden
        # same multiset of nodes: compare rows after canonical sorting
        key = lambda M: np.array(sorted(map(tuple, np.round(M, 12))))
        assert np.allclose(key(net.layers[0].W), key(permuted.layers[0].W))


def _greedy_pairs_oracle(W, count):
    """Independent greedy pairing by cosine distance using explicit loops."""
    n = W.shape[0]
    used = set()
    pairs = []
    for _ in range(count):
        best = None
        best_d = None
        for i in range(n):
            if i in used:
                continue
            for j in range(i + 1, n):
                if j in used:
                    continue
                d = 1.0 - float(W[i] @ W[j]) / (np.linalg.norm(W[i]) * np.linalg.norm(W[j]))
                if best_d is None or d < best_d:
                    best_d = d
                    best = (i, j)
        pairs.append(best)
        used.update(best)
    return pairs


class TestPoolFinetune:
    def test_empty_pool_warns_and_is_noop(self, rng):
        net = make_net(rng)
        before = copy.deepcopy(net)
        with pytest.warns(UserWarning):
            pool_finetune(net, [])
        assert params_equal(net, before)

    def test_singleton_pool_equals_finetune(self, rng):
        from adaptdae.network import finetune

        net_a = make_net(np.random.default_rng(5))
        net_b = copy.deepcopy(net_a)
        batch = make_batch(rng, 10, 6, 3)
        pool_finetune(net_a, [batch], hybrid_weight=0.2)
        finetune(net_b, batch, hybrid_weight=0.2)
        assert params_equal(net_a, net_b)

    def test_converged_toy_error_does_not_regress(self, rng):
        from adaptdae.network import batch_errors, finetune

        net = make_net(rng, dims=4, widths=(6,), classes=2)
        proto = np.array([[0.9, 0.1, 0.1, 0.1], [0.1, 0.9, 0.1, 0.1]])
        pool = []
        for i in range(3):
            idx = rng.integers(0, 2, size=12)
            inputs = np.clip(proto[idx] + rng.normal(0, 0.02, (12, 4)), 0, 1)
            pool.append(DataBatch(seq_id=i, inputs=inputs, labels=np.eye(2)[idx]))
        for _ in range(200):
            for b in pool:
                finetune(net, b)
        before = np.mean([batch_errors(net, b)[1] for b in pool])
        pool_finetune(net, pool)
        after = np.mean([batch_errors(net, b)[1] for b in pool])
        assert after <= before


class TestWidthAccounting:
    def test_random_action_sequences(self, rng):
        # structural invariants hold across arbitrary valid action sequences
        for trial in range(30):
            net = make_net(rng, dims=5, widths=(6, 4), classes=3)
            pool = [make_batch(rng, 6, 5, 3, seq_id=i) for i in range(2)]
            width = 6
            for _ in range(8):
                roll = rng.integers(0, 3)
                if roll == 0:
                    delta = int(rng.integers(1, 4))
                    increment_nodes(net, delta, pool, rng)
                    width += delta
                elif roll == 1 and net.layers[0].n_hidden >= 4:
                    delta = int(rng.integers(1, net.layers[0].n_hidden // 2 + 1))
                    merge_nodes(net, delta)
                    width -= delta
                else:
                    pool_finetune(net, pool)
                net.check()
                assert net.layers[0].n_hidden == width
