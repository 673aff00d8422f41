"""Structural edits to the first hidden layer: grow, merge, pool refresh."""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .network import DataBatch, Layer, Network, corrupt, dae_gradients, forward, glorot_limit
from .network import _encoder_backward, _output_delta
# module attributes here because the benchmark wraps them; no code here calls network_gradients
from .network import finetune, network_gradients


class ActionKind(str, Enum):
    POOL = "pool"
    INCREMENT = "increment"
    MERGE = "merge"


def _downstream(net: Network, new: np.ndarray | None = None) -> np.ndarray:
    # the matrix whose columns index first-layer nodes: layers[1].W, or the
    # read-out out_W of a one-layer net; ``new`` replaces it
    owner, attr = (net.layers[1], "W") if len(net.layers) > 1 else (net, "out_W")
    if new is not None:
        setattr(owner, attr, new)
    return getattr(owner, attr)


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
    down = _downstream(net)
    limit = glorot_limit(old_h + count, down.shape[0])
    _downstream(net, np.hstack([down, rng.uniform(-limit, limit, (down.shape[0], count))]))
    if len(net.layers) > 1:
        net.layers[1].b_rec = np.concatenate([net.layers[1].b_rec, np.zeros(count)])
    _train_new_rows(net, old_h, recent_batches, rng)
    _train_new_columns(net, old_h, recent_batches)
    net.check()
    return net


def _train_new_rows(net: Network, old_h: int, batches: list[DataBatch], rng: np.random.Generator) -> None:
    # one reconstruction epoch over the pool, restricted to the new sub-layer;
    # b_rec stays frozen because it is shared with the old nodes
    layer = net.layers[0]
    view = Layer(W=layer.W[old_h:], b=layer.b[old_h:], b_rec=layer.b_rec)
    lr = net.learning_rate
    for batch in batches:
        target = np.asarray(batch.inputs, dtype=np.float64)
        noisy = corrupt(target, net.corruption_p, rng)
        dW, db, _ = dae_gradients(view, target, noisy)
        layer.W[old_h:] -= lr * dW
        layer.b[old_h:] -= lr * db


def _train_new_columns(net: Network, old_h: int, batches: list[DataBatch]) -> None:
    # one supervised pass moving only the columns fed by the new nodes: the
    # backward of network_gradients at hybrid weight 0, stopped at the
    # downstream matrix.
    # The full gradient is sliced, not a column slice multiplied, because a
    # matmul's shape can change its rounding
    down = _downstream(net)
    for batch in batches:
        fwd = forward(net, batch.inputs, decode=False)
        dz = _output_delta(fwd.y_hat, batch.labels)
        if len(net.layers) > 1:
            dW, _ = _encoder_backward(net.layers, fwd.acts, dz @ net.out_W, stop=1)[0]
        else:
            dW = dz.T @ fwd.acts[-1]
        down[:, old_h:] -= net.learning_rate * dW[:, old_h:]


def closest_pairs(W: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Greedy pairing of rows by cosine distance, each row used at most once.

    Repeatedly takes the globally closest unused pair; ties go to the
    lexicographically smallest index pair, and every pair is ``(i, j)``
    with ``i < j``.
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


def _average_into(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # entries lo become the means of entries lo and hi, and entries hi go
    a = a.copy()
    a[lo] = 0.5 * (a[lo] + a[hi])
    return np.delete(a, hi, axis=0)


def merge_nodes(net: Network, count: int) -> Network:
    """Fuse the ``count`` closest node pairs of the first hidden layer.

    Each pair collapses to one node: encoder rows and biases are averaged,
    downstream columns are summed so that merging two identical nodes leaves
    the network function unchanged.
    """
    if count <= 0:
        return net
    layer = net.layers[0]
    if layer.n_hidden < 2 * count:
        raise ValueError(f"cannot merge {count} pairs out of {layer.n_hidden} nodes")
    lo, hi = np.array(closest_pairs(layer.W, count)).T
    layer.W = _average_into(layer.W, lo, hi)
    layer.b = _average_into(layer.b, lo, hi)
    down = _downstream(net).copy()
    down[:, lo] += down[:, hi]
    # np.delete along columns returns a Fortran-ordered copy; matmuls on it
    # could round differently from the C-ordered matrix every other path keeps
    _downstream(net, np.ascontiguousarray(np.delete(down, hi, axis=1)))
    if len(net.layers) > 1:
        net.layers[1].b_rec = _average_into(net.layers[1].b_rec, lo, hi)
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
