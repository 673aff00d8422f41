import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdae.network import DataBatch, Layer, corrupt, dae_gradients, glorot_limit, network_gradients, predict
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

    def test_negative_count_is_noop(self, rng):
        # midae asks for ceil(merge_ratio * added) pairs, which a negative
        # midae.merge_ratio makes negative
        net = make_net(rng)
        before = copy.deepcopy(net)
        merge_nodes(net, -2)
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


def reference_increment(net, count, recent_batches, rng):
    """The node-by-node ``increment_nodes`` the array version replaced."""
    if count == 0:
        return net
    layer = net.layers[0]
    old_h = layer.n_hidden
    limit = glorot_limit(layer.n_input, old_h + count)
    layer.W = np.vstack([layer.W, rng.uniform(-limit, limit, (count, layer.n_input))])
    layer.b = np.concatenate([layer.b, np.zeros(count)])
    if len(net.layers) > 1:
        nxt = net.layers[1]
        lim = glorot_limit(old_h + count, nxt.n_hidden)
        nxt.W = np.hstack([nxt.W, rng.uniform(-lim, lim, (nxt.n_hidden, count))])
        nxt.b_rec = np.concatenate([nxt.b_rec, np.zeros(count)])
    else:
        lim = glorot_limit(old_h + count, net.n_classes)
        net.out_W = np.hstack([net.out_W, rng.uniform(-lim, lim, (net.n_classes, count))])
    view = Layer(W=layer.W[old_h:], b=layer.b[old_h:], b_rec=layer.b_rec)
    lr = net.learning_rate
    for batch in recent_batches:
        target = np.asarray(batch.inputs, dtype=np.float64)
        noisy = corrupt(target, net.corruption_p, rng)
        dW, db, _ = dae_gradients(view, target, noisy)
        layer.W[old_h:] -= lr * dW
        layer.b[old_h:] -= lr * db
    for batch in recent_batches:
        grads, _, _ = network_gradients(net, batch, hybrid_weight=0.0)
        if len(net.layers) > 1:
            net.layers[1].W[:, old_h:] -= lr * grads.layers[1].dW[:, old_h:]
        else:
            net.out_W[:, old_h:] -= lr * grads.out_W[:, old_h:]
    return net


def reference_merge(net, count):
    """The node-by-node ``merge_nodes`` the array version replaced."""
    if count == 0:
        return net
    layer = net.layers[0]
    h = layer.n_hidden
    partner = {}
    drop = set()
    for i, j in closest_pairs(layer.W, count):
        lo, hi = (i, j) if i < j else (j, i)
        partner[lo] = hi
        drop.add(hi)
    has_next = len(net.layers) > 1
    down = net.layers[1].W if has_next else net.out_W
    new_rows, new_b, new_cols, new_brec = [], [], [], []
    for k in (k for k in range(h) if k not in drop):
        other = partner.get(k)
        if other is not None:
            new_rows.append(0.5 * (layer.W[k] + layer.W[other]))
            new_b.append(0.5 * (layer.b[k] + layer.b[other]))
            new_cols.append(down[:, k] + down[:, other])
            if has_next:
                new_brec.append(0.5 * (net.layers[1].b_rec[k] + net.layers[1].b_rec[other]))
        else:
            new_rows.append(layer.W[k])
            new_b.append(layer.b[k])
            new_cols.append(down[:, k])
            if has_next:
                new_brec.append(net.layers[1].b_rec[k])
    layer.W = np.vstack(new_rows)
    layer.b = np.asarray(new_b)
    if has_next:
        net.layers[1].W = np.column_stack(new_cols)
        net.layers[1].b_rec = np.asarray(new_brec)
    else:
        net.out_W = np.column_stack(new_cols)
    return net


def all_params(net):
    arrays = [a for layer in net.layers for a in (layer.W, layer.b, layer.b_rec)]
    return arrays + [net.out_W, net.out_b]


class TestAgainstReference:
    """The array edits give the reference's parameters: same shape, same
    bytes and the same C-contiguous layout, which matmuls' rounding can
    depend on."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        widths=st.lists(st.integers(1, 7), min_size=1, max_size=3),
        first=st.integers(2, 14),
        dims=st.integers(2, 6),
        classes=st.integers(2, 4),
        steps=st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0), st.integers(1, 4)), min_size=1, max_size=5),
    )
    def test_edits_match_reference(self, seed, widths, first, dims, classes, steps):
        rng = np.random.default_rng(seed)
        net = make_net(rng, dims=dims, widths=[first] + widths[1:], classes=classes)
        ref = copy.deepcopy(net)
        pool = [make_batch(rng, 5, dims, classes, seq_id=i) for i in range(2)]
        for merge, fraction, grow in steps:
            if merge:
                count = int(fraction * (net.layers[0].n_hidden // 2))
                merge_nodes(net, count)
                reference_merge(ref, count)
            else:
                step_seed = int(rng.integers(2**32))
                increment_nodes(net, grow, pool, np.random.default_rng(step_seed))
                reference_increment(ref, grow, pool, np.random.default_rng(step_seed))
            for got, want in zip(all_params(net), all_params(ref), strict=True):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous == want.flags.c_contiguous


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
