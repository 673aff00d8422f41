"""Structural edits to the first hidden layer: grow, merge, pool refresh."""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .network import (
    DataBatch,
    Network,
    corrupt,
    dae_gradients,
    finetune,
    glorot_limit,
    network_gradients,
)


class ActionKind(str, Enum):
    POOL = "pool"
    INCREMENT = "increment"
    MERGE = "merge"


def _downstream(net: Network) -> np.ndarray:
    # the weight matrix whose columns are indexed by first-layer nodes
    return net.layers[1].W if len(net.layers) > 1 else net.out_W


def increment_nodes(
    net: Network,
    count: int,
    recent_batches: list[DataBatch],
    rng: np.random.Generator,
) -> Network:
    """Append ``count`` nodes to the first hidden layer and initialise them.

    New rows are trained greedily on the recent pool (reconstruction
    objective), then the new downstream columns get one supervised pass.
    Pre-existing parameters are never touched.
    """
    if count == 0:
        return net
    if not recent_batches:
        raise ValueError("recent pool is empty, cannot initialise new nodes")
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
    _train_new_rows(net, old_h, recent_batches, rng)
    _train_new_columns(net, old_h, recent_batches)
    net.check()
    return net


def _train_new_rows(net: Network, old_h: int, batches: list[DataBatch], rng: np.random.Generator) -> None:
    # one reconstruction epoch over the pool, restricted to the new sub-layer;
    # b_rec stays frozen because it is shared with the old nodes
    layer = net.layers[0]
    from .network import Layer

    view = Layer(W=layer.W[old_h:], b=layer.b[old_h:], b_rec=layer.b_rec)
    lr = net.learning_rate
    for batch in batches:
        target = np.asarray(batch.inputs, dtype=np.float64)
        noisy = corrupt(target, net.corruption_p, rng)
        dW, db, _ = dae_gradients(view, target, noisy)
        layer.W[old_h:] -= lr * dW
        layer.b[old_h:] -= lr * db


def _train_new_columns(net: Network, old_h: int, batches: list[DataBatch]) -> None:
    # one supervised pass moving only the columns fed by the new nodes
    lr = net.learning_rate
    for batch in batches:
        grads, _, _ = network_gradients(net, batch, hybrid_weight=0.0)
        if len(net.layers) > 1:
            net.layers[1].W[:, old_h:] -= lr * grads.layers[1].dW[:, old_h:]
        else:
            net.out_W[:, old_h:] -= lr * grads.out_W[:, old_h:]


def closest_pairs(W: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Greedy pairing of rows by cosine distance, each row used at most once.

    Repeatedly takes the globally closest unused pair; ties go to the
    lexicographically smallest index pair.
    """
    n = W.shape[0]
    norms = np.maximum(np.linalg.norm(W, axis=1), 1e-300)
    dist = 1.0 - (W @ W.T) / np.outer(norms, norms)
    dist[np.tril_indices(n)] = np.inf
    pairs = []
    for _ in range(count):
        flat = int(np.argmin(dist))
        i, j = divmod(flat, n)
        pairs.append((i, j))
        dist[i, :] = np.inf
        dist[:, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
    return pairs


def merge_nodes(net: Network, count: int) -> Network:
    """Fuse the ``count`` closest node pairs of the first hidden layer.

    Each pair collapses to one node: encoder rows and biases are averaged,
    downstream columns are summed so that merging two identical nodes leaves
    the network function unchanged.
    """
    if count == 0:
        return net
    layer = net.layers[0]
    h = layer.n_hidden
    if h < 2 * count:
        raise ValueError(f"cannot merge {count} pairs out of {h} nodes")
    pairs = closest_pairs(layer.W, count)
    partner = {}
    drop = set()
    for i, j in pairs:
        lo, hi = (i, j) if i < j else (j, i)
        partner[lo] = hi
        drop.add(hi)

    down = _downstream(net)
    keep = [k for k in range(h) if k not in drop]
    new_rows, new_b, new_cols, new_brec = [], [], [], []
    has_next = len(net.layers) > 1
    for k in keep:
        if k in partner:
            other = partner[k]
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
    new_down = np.column_stack(new_cols)
    if has_next:
        net.layers[1].W = new_down
        net.layers[1].b_rec = np.asarray(new_brec)
    else:
        net.out_W = new_down
    net.check()
    return net


def pool_finetune(net: Network, diverse_batches: list[DataBatch], hybrid_weight: float = 0.2) -> Network:
    """Fine-tune over every batch of the diverse pool, in insertion order."""
    if not diverse_batches:
        warnings.warn("diverse pool is empty; pool action is a no-op")
        return net
    for batch in diverse_batches:
        finetune(net, batch, hybrid_weight)
    return net
