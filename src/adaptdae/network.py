"""Tied-weight denoising autoencoder stacks with a softmax read-out.

Every layer encodes with ``sigmoid(W x + b)`` and decodes with the
transposed weights, ``sigmoid(W^T h + b_rec)``.  Training is plain
minibatch SGD.  Inputs live in [0, 1]; both losses are summed
cross-entropies with probabilities clamped away from 0 and 1 so the log
terms stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_EPS = 1e-7
# cross_entropy takes its temporaries this many elements at a time: 83 rows
# of 784, a quarter of a 1000 x 784 array.  Of 2^14 to 2^18, at 1000 x 784,
# 2^14 ran slowest and 2^16 up no slower than one whole pass (BENCH_24.json).
# harness._wide reads it too, as the size above which a batch's loss sum spans
# more than one block and goes to the run's worker, so a retune of the block
# moves that gate.
CE_BLOCK_ELEMENTS = 1 << 16


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, elementwise, with one ``exp``.

    ``exp`` only ever sees values <= 0, so it cannot overflow: the result
    is ``e^min(v, 0) / (1 + e^-|v|)``, that is ``e^v / (1 + e^v)`` for
    ``v < 0`` and ``1 / (1 + e^-v)`` otherwise.  The numerator needs no
    ``exp`` of its own: for ``v < 0`` it is the denominator's ``e^-|v|``,
    and for ``v >= 0`` it is 1, which ``max(v >= 0, e^-|v|)`` picks.  With
    ``out`` (``v`` itself allowed) the result is written there.
    """
    v = np.asarray(v, dtype=np.float64)
    # e^-|v| is taken before out is written, since out may be v; out=
    # keeps a 0-d input a 0-d array
    den = np.abs(v, out=np.empty_like(v))
    np.negative(den, out=den)
    np.exp(den, out=den)
    if out is None:
        out = np.empty_like(v)
    np.greater_equal(v, 0.0, out=out)
    np.maximum(out, den, out=out)
    den += 1.0
    out /= den
    return out


def corrupt(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each coordinate independently with probability ``p``.

    Surviving coordinates are returned bit-for-bit unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape) >= p
    return x * keep


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _clamp_prob(q: np.ndarray) -> np.ndarray:
    return np.clip(q, PROB_EPS, 1.0 - PROB_EPS)


def _cross_entropy_rows(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    # t * log(q) + (1 - t) * log1p(-q), step by step in place on two
    # buffers: the clipped copy of q, taken at the broadcast shape, and rest
    q = _clamp_prob(np.broadcast_to(q, np.broadcast(t, q).shape))
    rest = np.negative(q)
    np.log1p(rest, out=rest)
    rest *= 1.0 - t
    np.log(q, out=q)
    q *= t
    q += rest
    return -np.sum(q, axis=-1)


def cross_entropy(target: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Summed binary cross-entropy over the last axis, always >= 0.

    Its temporaries are taken one block of rows along the first axis at a
    time, about ``CE_BLOCK_ELEMENTS`` elements each, and every row is summed
    on its own, so the result has the bits of one whole-array pass.
    """
    t = np.asarray(target, dtype=np.float64)
    q = np.asarray(predicted, dtype=np.float64)
    shape = np.broadcast(t, q).shape
    rows = shape[0] if len(shape) > 1 else 1
    step = max(1, CE_BLOCK_ELEMENTS // max(1, math.prod(shape[1:])))
    if rows <= step:
        return _cross_entropy_rows(t, q)
    out = np.empty(shape[:-1])
    # an operand with fewer dimensions, or one row, broadcasts over every block
    t_rows, q_rows = (a.ndim == len(shape) and a.shape[0] > 1 for a in (t, q))
    for lo in range(0, rows, step):
        block = slice(lo, lo + step)
        out[block] = _cross_entropy_rows(t[block] if t_rows else t, q[block] if q_rows else q)
    return out


@dataclass
class Layer:
    """One tied-weight autoencoder layer.

    ``W`` has shape (hidden, input); ``b`` biases the hidden code and
    ``b_rec`` biases the reconstruction, so ``len(b) == W.shape[0]`` and
    ``len(b_rec) == W.shape[1]``.
    """

    W: np.ndarray
    b: np.ndarray
    b_rec: np.ndarray

    @property
    def n_hidden(self) -> int:
        return self.W.shape[0]

    @property
    def n_input(self) -> int:
        return self.W.shape[1]

    def check(self) -> None:
        if self.W.shape != (self.b.shape[0], self.b_rec.shape[0]):
            raise ValueError(
                f"layer shapes inconsistent: W {self.W.shape}, "
                f"b {self.b.shape}, b_rec {self.b_rec.shape}"
            )
        for arr in (self.W, self.b, self.b_rec):
            if not np.all(np.isfinite(arr)):
                raise ValueError("layer contains non-finite parameters")


@dataclass
class Network:
    """An ordered stack of tied-weight layers plus a softmax output layer."""

    layers: list[Layer]
    out_W: np.ndarray
    out_b: np.ndarray
    learning_rate: float = 0.2
    corruption_p: float = 0.2

    @property
    def n_input(self) -> int:
        return self.layers[0].n_input

    @property
    def n_classes(self) -> int:
        return self.out_W.shape[0]

    def widths(self) -> tuple[int, ...]:
        return tuple(layer.n_hidden for layer in self.layers)

    def check(self) -> None:
        """Verify dimension chaining and parameter finiteness."""
        if not self.layers:
            raise ValueError("network has no layers")
        for i, layer in enumerate(self.layers):
            layer.check()
            if i > 0 and layer.n_input != self.layers[i - 1].n_hidden:
                raise ValueError(
                    f"layer {i} expects {layer.n_input} inputs but layer "
                    f"{i - 1} emits {self.layers[i - 1].n_hidden}"
                )
        if self.out_W.shape[1] != self.layers[-1].n_hidden:
            raise ValueError("output layer width does not match top layer")
        if self.out_W.shape[0] != self.out_b.shape[0]:
            raise ValueError("output bias length does not match class count")
        if not (np.all(np.isfinite(self.out_W)) and np.all(np.isfinite(self.out_b))):
            raise ValueError("output layer contains non-finite parameters")


@dataclass(frozen=True)
class DataBatch:
    """A labelled minibatch: inputs in [0, 1], one-hot label rows."""

    seq_id: int
    inputs: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def class_histogram(self) -> np.ndarray:
        return self.labels.mean(axis=0)

    def validate(self) -> None:
        if self.seq_id < 0:
            raise ValueError("seq_id must be non-negative")
        if self.inputs.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("inputs and labels must be 2-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels disagree on example count")
        if not in_unit_interval(self.inputs):
            raise ValueError("inputs must lie in [0, 1]")
        ones = self.labels == 1
        if not (np.all(ones | (self.labels == 0)) and np.all(ones.sum(axis=1) == 1)):
            raise ValueError("label rows must be one-hot")


def in_unit_interval(values: np.ndarray) -> bool:
    """Whether every one of ``values`` lies in [0, 1]: min and max are NaN
    if any value is, and NaN fails both comparisons."""
    return not values.size or bool(values.min() >= 0 and values.max() <= 1)


def glorot_limit(n_in: int, n_out: int) -> float:
    # 4x the usual Glorot bound, the standard range for sigmoid layers
    return 4.0 * np.sqrt(6.0 / (n_in + n_out))


def init_layer(n_hidden: int, n_input: int, rng: np.random.Generator) -> Layer:
    limit = glorot_limit(n_input, n_hidden)
    W = rng.uniform(-limit, limit, size=(n_hidden, n_input))
    return Layer(W=W, b=np.zeros(n_hidden), b_rec=np.zeros(n_input))


def init_network(
    n_input: int,
    widths: list[int] | tuple[int, ...],
    n_classes: int,
    rng: np.random.Generator,
    learning_rate: float = 0.2,
    corruption_p: float = 0.2,
) -> Network:
    """Build a freshly initialised network with the given hidden widths."""
    if not widths:
        raise ValueError("need at least one hidden layer")
    fans = (n_input, *widths)  # each layer's input width, then the read-out's
    layers = [init_layer(w, fan_in, rng) for fan_in, w in zip(fans, widths)]
    limit = glorot_limit(fans[-1], n_classes)
    out_W = rng.uniform(-limit, limit, size=(n_classes, fans[-1]))
    net = Network(
        layers=layers,
        out_W=out_W,
        out_b=np.zeros(n_classes),
        learning_rate=learning_rate,
        corruption_p=corruption_p,
    )
    net.check()
    return net


def encode(layer: Layer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[-1] != layer.n_input:
        raise ValueError(f"expected {layer.n_input} inputs, got {x.shape[-1]}")
    z = x @ layer.W.T
    z += layer.b
    return sigmoid(z, out=z)


def decode(layer: Layer, h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.shape[-1] != layer.n_hidden:
        raise ValueError(f"expected {layer.n_hidden} codes, got {h.shape[-1]}")
    z = h @ layer.W
    z += layer.b_rec
    return sigmoid(z, out=z)


def _encode_stack(net: Network, X: np.ndarray) -> list[np.ndarray]:
    acts = [np.asarray(X, dtype=np.float64)]
    for layer in net.layers:
        acts.append(encode(layer, acts[-1]))
    return acts


def _decode_stack(net: Network, top: np.ndarray) -> list[np.ndarray]:
    # recs[i] approximates the encoder activation at level i; recs[0] is x_hat
    recs = [top]
    for layer in reversed(net.layers):
        recs.append(decode(layer, recs[-1]))
    recs.reverse()
    return recs


def _output(net: Network, top: np.ndarray) -> np.ndarray:
    return softmax(top @ net.out_W.T + net.out_b)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one example or a batch."""
    return _output(net, _encode_stack(net, x)[-1])


@dataclass(frozen=True)
class Forward:
    """One pass of a batch through the stack under fixed parameters.

    ``acts[0]`` is the input and ``acts[i + 1]`` the code of layer ``i``;
    ``recs[i]`` reconstructs ``acts[i]`` down the decoder, so ``recs[0]``
    is ``x_hat``; ``y_hat`` is the softmax output and ``rec_losses`` the
    reconstruction error per example, computed on its first read, so a
    forward that only feeds a gradient never computes it.  Built without
    the decoder, ``recs`` and ``rec_losses`` are None.  It stays valid only
    while the network's parameters are unchanged.
    """

    acts: list[np.ndarray]
    recs: list[np.ndarray] | None
    y_hat: np.ndarray

    @cached_property
    def rec_losses(self) -> np.ndarray | None:
        return None if self.recs is None else cross_entropy(self.acts[0], self.recs[0])


def forward(net: Network, X: np.ndarray, decode: bool = True) -> Forward:
    """Run ``X`` up the encoder, through the read-out and, unless
    ``decode`` is false, back down the decoder."""
    acts = _encode_stack(net, X)
    recs = _decode_stack(net, acts[-1]) if decode else None
    return Forward(acts, recs, _output(net, acts[-1]))


def per_example_reconstruction_loss(net: Network, X: np.ndarray, fwd: Forward | None = None) -> np.ndarray:
    """Full-stack reconstruction error of every row of ``X``.

    Here and below, ``fwd`` is a forward of the same inputs under the
    current parameters, passed in to save recomputing it.
    """
    if fwd is None:
        fwd = forward(net, X)
    return fwd.rec_losses


def mean_discriminative_loss(net: Network, batch: DataBatch, fwd: Forward | None = None) -> float:
    y_hat = predict(net, batch.inputs) if fwd is None else fwd.y_hat
    return float(cross_entropy(batch.labels, y_hat).mean())


def class_error(y_hat: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose predicted class is not the one-hot label's.

    Ties in the predicted class are broken toward the lowest index, so the
    result is deterministic.
    """
    hits = np.argmax(y_hat, axis=1) == np.argmax(labels, axis=1)
    return float(1.0 - hits.mean())


def batch_errors(net: Network, batch: DataBatch, fwd: Forward | None = None) -> tuple[float, float]:
    """Mean reconstruction loss and misclassification fraction
    (``class_error``) on a batch."""
    if batch.size == 0:
        raise ValueError("cannot evaluate an empty batch")
    if fwd is None:
        fwd = forward(net, batch.inputs)
    return float(fwd.rec_losses.mean()), class_error(fwd.y_hat, batch.labels)


@dataclass
class LayerGrads:
    dW: np.ndarray
    db: np.ndarray
    db_rec: np.ndarray


@dataclass
class NetworkGrads:
    layers: list[LayerGrads]
    out_W: np.ndarray
    out_b: np.ndarray


def _encoder_backward(
    layers: list[Layer], acts: list[np.ndarray], d_top: np.ndarray, stop: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(dW, db)`` of each layer from ``stop`` up, from the gradient
    ``d_top`` at the top code."""
    grads = []
    da = d_top
    for i in range(len(layers) - 1, stop - 1, -1):
        a = acts[i + 1]
        dz = da * a
        dz *= 1.0 - a
        grads.append((dz.T @ acts[i], dz.sum(axis=0)))
        if i > stop:  # nothing reads the gradient below the lowest layer
            da = dz @ layers[i].W
    grads.reverse()
    return grads


def _output_delta(y_hat: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean label cross-entropy at the softmax's input."""
    q = _clamp_prob(y_hat)
    # cross-entropy derivative w.r.t. the probabilities, then through softmax
    g = (-(labels / q) + (1.0 - labels) / (1.0 - q)) / labels.shape[0]
    return y_hat * (g - np.sum(g * y_hat, axis=1, keepdims=True))


def _reconstruction_grads(
    layers: list[Layer], acts: list[np.ndarray], dec_in: list[np.ndarray], du: np.ndarray,
    weight: float = 1.0, label: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[LayerGrads]:
    """Gradients of ``weight`` times the mean reconstruction loss of the
    stack ``layers``, plus, given ``label``, those of the label loss.

    The encoder reads ``acts`` (``acts[0]`` is its input, corrupted or
    not) and ``dec_in[i]`` is the code layer ``i`` decodes.  ``du`` is the
    residual ``x_hat - target``, divided by the row count and scaled by
    ``weight`` in place.  The backward lets go of it after the first
    decoder layer, so a residual passed as a temporary is freed there.
    ``label`` is the label loss's ``(dz, out_W)``: its top gradient
    ``dz @ out_W`` joins the reconstruction's at the top code, so one
    encoder backward serves both losses.
    """
    du /= du.shape[0]
    du *= weight
    # walk the decode chain back up; du is the pre-sigmoid gradient at each level
    dec = []
    for i, (layer, h) in enumerate(zip(layers, dec_in)):
        dec.append((h.T @ du, du.sum(axis=0)))
        du = du @ layer.W.T
        if i + 1 < len(layers):
            du *= h
            du *= 1.0 - h
    if label is not None:
        dz, out_W = label
        du += dz @ out_W
    # tied weights: the encoder's part of dW joins the decoder's
    return [
        LayerGrads(np.add(dW_dec, dW, out=dW_dec), db, db_rec)
        for (dW_dec, db_rec), (dW, db) in zip(dec, _encoder_backward(layers, acts, du))
    ]


def _generative_backward(net: Network, acts: list[np.ndarray]) -> tuple[NetworkGrads, float]:
    """Gradients and value of the mean reconstruction loss, decoding from
    the encoder activations ``acts``."""
    recs = _decode_stack(net, acts[-1])
    grads = _reconstruction_grads(net.layers, acts, recs[1:], recs[0] - acts[0])
    loss = float(cross_entropy(acts[0], recs[0]).mean())
    return NetworkGrads(grads, np.zeros_like(net.out_W), np.zeros_like(net.out_b)), loss


def network_loss(
    net: Network, batch: DataBatch, hybrid_weight: float, fwd: Forward | None = None
) -> tuple[float, float, float]:
    """Mean hybrid objective over a batch: label loss + weight * reconstruction."""
    if fwd is None:
        fwd = forward(net, batch.inputs, decode=hybrid_weight != 0.0)
    disc = mean_discriminative_loss(net, batch, fwd)
    gen = float(fwd.rec_losses.mean()) if hybrid_weight != 0.0 else 0.0
    return disc + hybrid_weight * gen, disc, gen


def _gradients(net: Network, batch: DataBatch, hybrid_weight: float, fwd: Forward | None = None) -> NetworkGrads:
    """Analytic gradients of the mean hybrid objective; no loss value is
    computed.  Without ``fwd`` the decoder stack runs only if
    ``hybrid_weight`` is non-zero.  One encoder backward serves both
    losses (``_reconstruction_grads``).
    """
    if fwd is None:
        fwd = forward(net, batch.inputs, decode=hybrid_weight != 0.0)
    acts = fwd.acts
    dz = _output_delta(fwd.y_hat, batch.labels)
    if hybrid_weight == 0.0:
        enc = _encoder_backward(net.layers, acts, dz @ net.out_W)
        layers = [LayerGrads(dW, db, np.zeros_like(l.b_rec)) for l, (dW, db) in zip(net.layers, enc)]
    else:
        layers = _reconstruction_grads(
            net.layers, acts, fwd.recs[1:], fwd.recs[0] - acts[0], hybrid_weight, (dz, net.out_W)
        )
    return NetworkGrads(layers, dz.T @ acts[-1], dz.sum(axis=0))


def network_gradients(
    net: Network, batch: DataBatch, hybrid_weight: float, fwd: Forward | None = None
) -> tuple[NetworkGrads, float, float]:
    """Analytic gradients of the mean hybrid objective, without updating,
    with its label and reconstruction terms (0 when ``hybrid_weight`` is).

    Without ``fwd`` the decoder stack runs only if ``hybrid_weight`` is
    non-zero.
    """
    if fwd is None:
        fwd = forward(net, batch.inputs, decode=hybrid_weight != 0.0)
    _, disc, gen = network_loss(net, batch, hybrid_weight, fwd)
    return _gradients(net, batch, hybrid_weight, fwd), disc, gen


def finetune(net: Network, batch: DataBatch, hybrid_weight: float = 0.2, fwd: Forward | None = None) -> Network:
    """One SGD step on the mean hybrid objective over the batch.

    The step computes the gradients alone: neither loss's value is taken.
    """
    if batch.inputs.shape[1] != net.n_input:
        raise ValueError("batch dimensionality does not match the network")
    grads = _gradients(net, batch, hybrid_weight, fwd)
    lr = net.learning_rate
    pairs = []
    for layer, g in zip(net.layers, grads.layers):
        pairs += [(layer.W, g.dW), (layer.b, g.db), (layer.b_rec, g.db_rec)]
    pairs += [(net.out_W, grads.out_W), (net.out_b, grads.out_b)]
    for p, g in pairs:
        # each gradient array is this step's own, so it is scaled in place
        g *= lr
        p -= g
    return net


def dae_loss(layer: Layer, target: np.ndarray, noisy: np.ndarray) -> float:
    """Mean reconstruction loss of one layer given its (corrupted) input."""
    h = encode(layer, noisy)
    return float(cross_entropy(target, decode(layer, h)).mean())


def dae_gradients(layer: Layer, target: np.ndarray, noisy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the mean single-layer reconstruction loss.

    This is the one-layer case of the stack's reconstruction backward,
    with ``noisy`` as the encoder input.
    """
    h = encode(layer, noisy)
    residual = decode(layer, h)  # x_hat, turned into the residual in place
    residual -= target
    (g,) = _reconstruction_grads([layer], [noisy, h], [h], residual)
    return g.dW, g.db, g.db_rec


def pretrain_layer(
    net: Network,
    layer_index: int,
    batches: list[DataBatch],
    epochs: int,
    rng: np.random.Generator,
) -> Network:
    """Greedy reconstruction training of one layer over a pool of batches.

    Lower layers are treated as a fixed feature extractor; only the target
    layer sees corrupted input.
    """
    if not batches:
        raise ValueError("no batches to pre-train on")
    layer = net.layers[layer_index]
    lr = net.learning_rate
    for _ in range(epochs):
        for batch in batches:
            a = np.asarray(batch.inputs, dtype=np.float64)
            for lower in net.layers[:layer_index]:
                a = encode(lower, a)
            noisy = corrupt(a, net.corruption_p, rng)
            dW, db, db_rec = dae_gradients(layer, a, noisy)
            layer.W -= lr * dW
            layer.b -= lr * db
            layer.b_rec -= lr * db_rec
    return net
