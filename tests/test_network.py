import copy
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptdae.network import (
    PROB_EPS,
    DataBatch,
    Layer,
    batch_errors,
    class_error,
    corrupt,
    cross_entropy,
    dae_gradients,
    dae_loss,
    decode,
    encode,
    finetune,
    forward,
    mean_discriminative_loss,
    network_gradients,
    network_loss,
    per_example_reconstruction_loss,
    predict,
    pretrain_layer,
    sigmoid,
    softmax,
)
import adaptdae.network as network
import adaptdae.structure as structure
from conftest import make_batch, make_net


def finite_difference(loss_fn, arrays, h=1e-4):
    """Central finite differences of a scalar function w.r.t. each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grad_close(analytic, numeric, rtol=1e-4):
    denom = np.maximum(np.abs(numeric), 1.0)
    assert np.all(np.abs(analytic - numeric) <= rtol * denom), (
        f"max gradient gap {np.max(np.abs(analytic - numeric)):.3e}"
    )


def masked_sigmoid(v):
    """The textbook two-branch logistic, selected by a boolean mask: the
    bit-exact reference for ``sigmoid``."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSigmoid:
    @pytest.mark.parametrize("shape", [(100, 32), (1000, 784)])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_bit_identical_to_masked_form(self, rng, shape, scale):
        v = rng.standard_normal(shape) * scale
        v.flat[:10] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324]
        assert same_bits(sigmoid(v), masked_sigmoid(v))

    @pytest.mark.parametrize("shape", [(100, 32), (1000, 784)])
    def test_in_place_has_the_same_bits(self, rng, shape):
        v = rng.standard_normal(shape) * 30.0
        v.flat[:10] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324]
        expected = sigmoid(v)
        assert sigmoid(v, out=v) is v
        assert same_bits(v, expected)

    def test_bit_identical_on_scalars(self):
        for x in (0.0, -0.0, 0.5, -0.5, 37.0, -37.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324, 2.2e-308):
            assert same_bits(sigmoid(x), masked_sigmoid(x))
            v = np.array(x)
            assert same_bits(sigmoid(v, out=v), masked_sigmoid(x))

    def test_nan_gives_nan(self):
        # only the sign bit of a NaN may differ from the masked form's
        v = np.array([np.nan, -np.nan, 1.0])
        assert np.isnan(sigmoid(v)[:2]).all() and np.isnan(sigmoid(v, out=v)[:2]).all()

    def test_symmetry_point(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturation(self):
        assert abs(sigmoid(np.array([30.0]))[0] - 1.0) < 1e-9

    def test_closed_form(self):
        # 1 / (1 + exp(-ln 3)) = 1 / (1 + 1/3)
        assert sigmoid(np.array([math.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-12)

    def test_range_and_monotone(self, rng):
        # strict bounds hold up to the float64 saturation point near |v|=37
        v = np.sort(rng.uniform(-36, 36, size=1000))
        s = sigmoid(v)
        assert np.all(s > 0) and np.all(s < 1)
        assert np.all(np.diff(s) >= 0)


class TestCorrupt:
    def test_zero_noise_identity(self, rng):
        x = rng.random(64)
        out = corrupt(x, 0.0, rng)
        assert np.array_equal(out, x)

    def test_full_masking(self, rng):
        x = rng.random(64)
        assert np.all(corrupt(x, 1.0, rng) == 0.0)

    def test_binomial_concentration(self):
        rng = np.random.default_rng(7)
        x = np.ones(10_000)
        zeroed = np.mean(corrupt(x, 0.2, rng) == 0.0)
        assert 0.18 <= zeroed <= 0.22

    def test_survivors_untouched(self, rng):
        x = rng.random(256)
        out = corrupt(x, 0.4, rng)
        kept = out != 0.0
        assert np.array_equal(out[kept], x[kept])


class TestEncodeDecode:
    def test_zero_parameters(self, rng):
        layer = Layer(W=np.zeros((4, 6)), b=np.zeros(4), b_rec=np.zeros(6))
        assert np.allclose(encode(layer, rng.random(6)), 0.5)
        assert np.allclose(decode(layer, rng.random(4)), 0.5)

    def test_identity_weights_zero_input(self):
        layer = Layer(W=np.eye(3), b=np.zeros(3), b_rec=np.zeros(3))
        assert np.allclose(encode(layer, np.zeros(3)), 0.5)

    def test_scalar_case(self):
        layer = Layer(W=np.array([[2.0]]), b=np.array([-1.0]), b_rec=np.array([0.0]))
        assert encode(layer, np.array([1.0]))[0] == pytest.approx(1 / (1 + math.exp(-1.0)))
        layer = Layer(W=np.array([[1.0]]), b=np.zeros(1), b_rec=np.zeros(1))
        assert decode(layer, np.array([0.5]))[0] == pytest.approx(1 / (1 + math.exp(-0.5)))

    def test_transpose_shape(self, rng):
        layer = Layer(W=rng.normal(size=(3, 5)), b=np.zeros(3), b_rec=np.zeros(5))
        assert decode(layer, rng.random(3)).shape == (5,)

    def test_dimension_mismatch(self, rng):
        layer = Layer(W=rng.normal(size=(3, 5)), b=np.zeros(3), b_rec=np.zeros(5))
        with pytest.raises(ValueError):
            encode(layer, rng.random(4))
        with pytest.raises(ValueError):
            decode(layer, rng.random(5))


class TestLosses:
    """``cross_entropy`` scores reconstructions and labels alike."""

    def test_generative_closed_form(self):
        x = np.array([0.5, 0.5])
        assert cross_entropy(x, x) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_generative_perfect_limit(self):
        assert cross_entropy(np.array([1.0]), np.array([1.0 - 1e-9])) < 1e-6

    def test_generative_minimum_by_grid(self):
        # 1-D brute force: the loss over candidate reconstructions bottoms out at x
        x = np.array([0.3])
        grid = np.linspace(0.001, 0.999, 999)
        losses = cross_entropy(x, grid[:, None])
        assert grid[int(np.argmin(losses))] == pytest.approx(0.3, abs=1e-3)

    def test_discriminative_closed_form(self):
        y = np.array([1.0, 0.0])
        assert cross_entropy(y, np.array([0.5, 0.5])) == pytest.approx(2.0 * math.log(2.0))

    def test_discriminative_perfect(self):
        y = np.array([0.0, 1.0])
        assert cross_entropy(y, np.array([1e-9, 1.0 - 1e-9])) < 1e-5

    def test_discriminative_uniform_three_class(self):
        # independent scalar oracle for y=(0,1,0), y_hat uniform
        y = [0.0, 1.0, 0.0]
        q = [1 / 3] * 3
        expected = -sum(
            yi * math.log(qi) + (1 - yi) * math.log(1 - qi) for yi, qi in zip(y, q)
        )
        assert expected == pytest.approx(math.log(3.0) + 2.0 * math.log(1.5), abs=1e-12)
        assert cross_entropy(np.array(y), np.array(q)) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        # lengths that do not broadcast are an error, not a silent truncation
        with pytest.raises(ValueError):
            cross_entropy(np.array([1.0, 0.0]), np.array([0.2, 0.3, 0.5]))

    def test_positivity(self, rng):
        t = rng.random((200, 5))
        q = rng.random((200, 5))
        assert np.all(cross_entropy(t, q) >= 0.0)


class TestPredict:
    def test_zero_logits_uniform(self, rng):
        net = make_net(rng, dims=4, widths=(3,), classes=5)
        net.out_W[:] = 0.0
        net.out_b[:] = 0.0
        assert np.allclose(predict(net, rng.random(4)), 0.2)

    def test_shift_invariance(self, rng):
        z = rng.normal(size=7)
        assert np.allclose(softmax(z), softmax(z + 3.17), atol=1e-12)

    def test_two_class_closed_form(self):
        p = softmax(np.array([1.0, 0.0]))
        e = math.e
        assert p[0] == pytest.approx(e / (e + 1.0))
        assert p[1] == pytest.approx(1.0 / (e + 1.0))

    def test_normalisation(self, rng):
        net = make_net(rng)
        out = predict(net, rng.random((50, 6)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestBatchErrors:
    def test_perfect_predictions(self, rng):
        # two well-separated blobs are memorised quickly
        net = make_net(rng, dims=4, widths=(6,), classes=2)
        proto = np.array([[0.9, 0.1, 0.1, 0.1], [0.1, 0.9, 0.1, 0.1]])
        idx = np.array([0, 1] * 15)
        inputs = np.clip(proto[idx] + rng.normal(0, 0.02, (30, 4)), 0, 1)
        batch = DataBatch(seq_id=0, inputs=inputs, labels=np.eye(2)[idx])
        for _ in range(500):
            finetune(net, batch, hybrid_weight=0.0)
        _, l_cls = batch_errors(net, batch)
        assert l_cls == 0.0

    def test_uniform_net_tie_break(self, rng):
        net = make_net(rng, dims=4, widths=(3,), classes=2)
        net.out_W[:] = 0.0
        net.out_b[:] = 0.0
        labels = np.eye(2)[np.array([0, 1] * 10)]
        batch = DataBatch(seq_id=0, inputs=rng.random((20, 4)), labels=labels)
        # direct count: ties resolve to class 0, so exactly the class-1 half is wrong
        _, l_cls = batch_errors(net, batch)
        assert l_cls == pytest.approx(0.5)

    def test_error_bounds(self, rng):
        for _ in range(10):
            net = make_net(rng)
            batch = make_batch(rng, 16, 6, 3)
            _, l_cls = batch_errors(net, batch)
            assert 0.0 <= l_cls <= 1.0

    def test_class_error_breaks_ties_toward_the_lowest_class(self):
        y_hat = np.array([[0.5, 0.5, 0.0], [0.2, 0.4, 0.4], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]])
        labels = np.eye(3)[[0, 2, 2, 1]]
        # rows 0 and 2 hit; the tie in row 1 names class 1 and the one in row 3 class 0
        assert class_error(y_hat, labels) == 0.5


class TestPretrain:
    def test_zero_learning_rate_is_noop(self, rng):
        net = make_net(rng, learning_rate=0.0)
        batch = make_batch(rng, 12, 6, 3)
        before = copy.deepcopy(net)
        pretrain_layer(net, 0, [batch], epochs=3, rng=rng)
        for a, b in zip(net.layers, before.layers):
            assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
            assert np.array_equal(a.b_rec, b.b_rec)

    def test_single_pattern_convergence(self):
        # run-to-convergence oracle on 4-dim toy data, no corruption so the
        # per-epoch loss trajectory is deterministic
        rng = np.random.default_rng(3)
        net = make_net(rng, dims=4, widths=(3,), classes=2, corruption_p=0.0)
        pattern = np.tile(rng.random(4), (8, 1))
        batch = DataBatch(seq_id=0, inputs=pattern, labels=np.eye(2)[np.zeros(8, dtype=int)])
        losses = []
        for _ in range(50):
            pretrain_layer(net, 0, [batch], epochs=1, rng=rng)
            losses.append(dae_loss(net.layers[0], pattern, pattern))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_pool_loss_does_not_regress(self, rng):
        net = make_net(rng, dims=6, widths=(5,), classes=3)
        pool = [make_batch(rng, 10, 6, 3, seq_id=i) for i in range(4)]
        def pool_loss():
            return np.mean([
                dae_loss(net.layers[0], b.inputs, b.inputs) for b in pool
            ])
        first = pool_loss()
        pretrain_layer(net, 0, pool, epochs=5, rng=rng)
        assert pool_loss() <= first * 1.01

    def test_dae_gradients_match_finite_differences(self, rng):
        layer = Layer(
            W=rng.normal(0, 0.5, size=(4, 6)),
            b=rng.normal(0, 0.1, size=4),
            b_rec=rng.normal(0, 0.1, size=6),
        )
        target = rng.random((5, 6))
        noisy = corrupt(target, 0.3, rng)
        dW, db, db_rec = dae_gradients(layer, target, noisy)
        fd = finite_difference(
            lambda: dae_loss(layer, target, noisy), [layer.W, layer.b, layer.b_rec]
        )
        assert_grad_close(dW, fd[0])
        assert_grad_close(db, fd[1])
        assert_grad_close(db_rec, fd[2])


def _collect_params(net):
    arrays = []
    for layer in net.layers:
        arrays.extend([layer.W, layer.b, layer.b_rec])
    arrays.extend([net.out_W, net.out_b])
    return arrays


def _collect_grads(grads):
    arrays = []
    for g in grads.layers:
        arrays.extend([g.dW, g.db, g.db_rec])
    arrays.extend([grads.out_W, grads.out_b])
    return arrays


class TestFinetune:
    def test_zero_learning_rate_is_noop(self, rng):
        net = make_net(rng, learning_rate=0.0)
        batch = make_batch(rng, 8, 6, 3)
        before = copy.deepcopy(net)
        finetune(net, batch, hybrid_weight=0.2)
        for a, b in zip(_collect_params(net), _collect_params(before)):
            assert np.array_equal(a, b)

    def test_pure_discriminative_degenerate_case(self, rng):
        net = make_net(rng)
        batch = make_batch(rng, 8, 6, 3)
        grads, _, gen = network_gradients(net, batch, hybrid_weight=0.0)
        assert gen == 0.0

        # separately coded label-loss-only backprop
        ref = _reference_disc_gradients(net, batch)
        for a, b in zip(_collect_grads(grads), ref):
            assert np.allclose(a, b, atol=1e-12)

        # applying finetune equals a hand-rolled SGD step with those gradients
        manual = copy.deepcopy(net)
        for p, g in zip(_collect_params(manual), _collect_grads(grads)):
            p -= manual.learning_rate * g
        finetune(net, batch, hybrid_weight=0.0)
        for a, b in zip(_collect_params(net), _collect_params(manual)):
            assert np.array_equal(a, b)

    def test_hybrid_gradient_matches_finite_differences(self, rng):
        net = make_net(rng, dims=6, widths=(5, 4), classes=3)
        batch = make_batch(rng, 4, 6, 3)
        grads, _, _ = network_gradients(net, batch, hybrid_weight=0.2)
        fd = finite_difference(
            lambda: network_loss(net, batch, 0.2)[0], _collect_params(net)
        )
        for a, b in zip(_collect_grads(grads), fd):
            assert_grad_close(a, b)

    def test_parameters_stay_finite(self, rng):
        net = make_net(rng)
        for i in range(50):
            finetune(net, make_batch(rng, 8, 6, 3, seq_id=i))
        net.check()


class TestSharedForward:
    """A forward under unchanged parameters stands in for recomputing it."""

    @pytest.mark.parametrize("hybrid_weight", [0.0, 0.2, 1.0])
    def test_finetune_with_forward_equals_recomputing(self, rng, hybrid_weight):
        net = make_net(rng, dims=6, widths=(5, 4), classes=3)
        shared = copy.deepcopy(net)
        for i in range(5):
            batch = make_batch(rng, 8, 6, 3, seq_id=i)
            finetune(shared, batch, hybrid_weight, fwd=forward(shared, batch.inputs))
            finetune(net, batch, hybrid_weight)
            for a, b in zip(_collect_params(shared), _collect_params(net)):
                assert np.array_equal(a, b)

    def test_evaluations_read_the_forward(self, rng):
        net = make_net(rng)
        batch = make_batch(rng, 9, 6, 3)
        fwd = forward(net, batch.inputs)
        assert batch_errors(net, batch, fwd) == batch_errors(net, batch)
        assert same_bits(
            per_example_reconstruction_loss(net, batch.inputs, fwd),
            per_example_reconstruction_loss(net, batch.inputs),
        )
        assert mean_discriminative_loss(net, batch, fwd) == mean_discriminative_loss(net, batch)
        assert same_bits(fwd.y_hat, predict(net, batch.inputs))

    @pytest.mark.parametrize("hybrid_weight", [0.0, 0.2])
    @pytest.mark.parametrize("shared", [False, True])
    def test_finetune_computes_no_loss(self, rng, monkeypatch, hybrid_weight, shared):
        net = make_net(rng)
        batch = make_batch(rng, 8, 6, 3)
        fwd = forward(net, batch.inputs) if shared else None
        calls = []
        real = network.cross_entropy

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(network, "cross_entropy", counting)
        finetune(net, batch, hybrid_weight, fwd)
        assert calls == []

    def test_reconstruction_losses_are_computed_on_first_read(self, rng):
        net = make_net(rng)
        batch = make_batch(rng, 9, 6, 3)
        fwd = forward(net, batch.inputs)
        assert "rec_losses" not in vars(fwd)
        assert same_bits(fwd.rec_losses, plain_forward(net, batch.inputs)[2])
        assert fwd.rec_losses is fwd.rec_losses
        assert forward(net, batch.inputs, decode=False).rec_losses is None

    def test_label_loss_alone_skips_the_decoder(self, rng, monkeypatch):
        net = make_net(rng)
        batch = make_batch(rng, 8, 6, 3)

        def no_decode(*args, **kwargs):
            raise AssertionError("decoder ran for a label-only gradient")

        monkeypatch.setattr(network, "decode", no_decode)
        grads, _, gen = network_gradients(net, batch, hybrid_weight=0.0)
        assert gen == 0.0
        assert forward(net, batch.inputs, decode=False).recs is None


class TestOneEncoderBackward:
    """A fine-tune runs the encoder backward once, on the caller's thread:
    the label loss's top gradient joins the reconstruction's at the top
    code, where the encoder's backward, linear in it, serves both."""

    @pytest.mark.parametrize("widths", [(5,), (5, 4, 3)], ids=["1-layer", "3-layer"])
    @pytest.mark.parametrize("shared", [False, True], ids=["fwd-none", "fwd-given"])
    @pytest.mark.parametrize("hybrid_weight", [0.2, 1.0, 3.0, 0.0])
    def test_one_per_fine_tune(self, rng, monkeypatch, widths, shared, hybrid_weight):
        threads = []
        real = network._encoder_backward

        def noting(*args, **kwargs):
            threads.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "_encoder_backward", noting)
        net = make_net(rng, dims=6, widths=widths, classes=3)
        for i in range(5):
            batch = make_batch(rng, 40, 6, 3, seq_id=i)
            finetune(net, batch, hybrid_weight, forward(net, batch.inputs) if shared else None)
            assert threads == [threading.current_thread()] * (i + 1)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(1, 12),
        widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rows=st.integers(1, 50),
        hybrid_weight=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
    )
    def test_equals_a_backward_per_loss_to_the_last_bits(self, seed, dims, widths, rows, hybrid_weight):
        rng = np.random.default_rng(seed)
        net = make_net(rng, dims=dims, widths=tuple(widths))
        batch = make_batch(rng, rows, dims, 3)
        grads, _, _ = network_gradients(net, batch, hybrid_weight)
        ref = two_backward_network_gradients(net, batch, hybrid_weight)
        for a, b in zip(_collect_grads(grads), _collect_grads(ref), strict=True):
            if hybrid_weight == 0.0:
                # the label loss alone runs one backward either way; the
                # reference adds into zeros, so only a zero's sign may differ
                assert same_value_bits(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-14)


def _reference_disc_gradients(net, batch):
    """Independent forward and backward pass for the label loss alone."""
    from adaptdae.network import PROB_EPS

    acts = [batch.inputs.astype(np.float64)]
    for layer in net.layers:
        acts.append(1.0 / (1.0 + np.exp(-(acts[-1] @ layer.W.T + layer.b))))
    logits = acts[-1] @ net.out_W.T + net.out_b
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    y_hat = shifted / shifted.sum(axis=1, keepdims=True)
    p = batch.size
    q = np.clip(y_hat, PROB_EPS, 1 - PROB_EPS)
    g = (-(batch.labels / q) + (1.0 - batch.labels) / (1.0 - q)) / p
    dz = y_hat * (g - (g * y_hat).sum(axis=1, keepdims=True))
    out_W_grad = dz.T @ acts[-1]
    out_b_grad = dz.sum(axis=0)
    per_layer = []
    da = dz @ net.out_W
    for i in range(len(net.layers) - 1, -1, -1):
        a = acts[i + 1]
        dzl = da * a * (1.0 - a)
        per_layer.insert(0, (dzl.T @ acts[i], dzl.sum(axis=0), np.zeros_like(net.layers[i].b_rec)))
        da = dzl @ net.layers[i].W
    arrays = []
    for dW, db, db_rec in per_layer:
        arrays.extend([dW, db, db_rec])
    arrays.extend([out_W_grad, out_b_grad])
    return arrays


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        nets = []
        for _ in range(2):
            init = np.random.default_rng(11)
            train = np.random.default_rng(22)
            net = make_net(init)
            data = np.random.default_rng(33)
            for i in range(5):
                batch = make_batch(data, 8, 6, 3, seq_id=i)
                pretrain_layer(net, 0, [batch], epochs=1, rng=train)
                finetune(net, batch)
            nets.append(net)
        for a, b in zip(_collect_params(nets[0]), _collect_params(nets[1])):
            assert np.array_equal(a, b)


class TestDataBatch:
    def test_validate_accepts_good_batch(self, rng):
        make_batch(rng, 5, 4, 3).validate()

    def test_rejects_bad_labels(self, rng):
        labels = np.ones((4, 3))
        batch = DataBatch(seq_id=0, inputs=rng.random((4, 4)), labels=labels)
        with pytest.raises(ValueError):
            batch.validate()

    @pytest.mark.parametrize("row", [[0.5, 0.5, 0.0], [2.0, -1.0, 0.0]], ids=["halves", "two-minus-one"])
    def test_rejects_a_row_that_sums_to_one_but_is_not_one_hot(self, rng, row):
        labels = np.eye(3)[[0, 1, 2, 0]]
        labels[2] = row
        batch = DataBatch(seq_id=0, inputs=rng.random((4, 4)), labels=labels)
        with pytest.raises(ValueError, match="label rows must be one-hot"):
            batch.validate()

    def test_rejects_out_of_range_inputs(self, rng):
        batch = DataBatch(
            seq_id=0, inputs=rng.random((4, 4)) + 1.0, labels=np.eye(3)[[0, 1, 2, 0]]
        )
        with pytest.raises(ValueError):
            batch.validate()

    def test_rejects_nan_inputs(self, rng):
        inputs = rng.random((4, 4))
        inputs[2, 1] = np.nan
        batch = DataBatch(seq_id=0, inputs=inputs, labels=np.eye(3)[[0, 1, 2, 0]])
        with pytest.raises(ValueError, match=r"inputs must lie in \[0, 1\]"):
            batch.validate()


# The plain expressions the in-place kernels replaced, kept as bit-exact
# references: every loss and gradient must keep its bytes.  The gradients
# are accumulated into zeros, as they were before each one was assigned
# from its first contribution; the two differ at most in the sign of a zero
# entry, so gradients are compared after ``+ 0.0``.


def plain_cross_entropy(target, predicted):
    q = np.clip(np.asarray(predicted, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    t = np.asarray(target, dtype=np.float64)
    return -np.sum(t * np.log(q) + (1.0 - t) * np.log1p(-q), axis=-1)


def plain_forward(net, X):
    acts = [np.asarray(X, dtype=np.float64)]
    for layer in net.layers:
        acts.append(masked_sigmoid(acts[-1] @ layer.W.T + layer.b))
    recs = [acts[-1]]
    for layer in reversed(net.layers):
        recs.append(masked_sigmoid(recs[-1] @ layer.W + layer.b_rec))
    recs.reverse()
    y_hat = softmax(acts[-1] @ net.out_W.T + net.out_b)
    return acts, recs, plain_cross_entropy(acts[0], recs[0]), y_hat


def zero_grads(net):
    return network.NetworkGrads(
        layers=[
            network.LayerGrads(np.zeros_like(l.W), np.zeros_like(l.b), np.zeros_like(l.b_rec))
            for l in net.layers
        ],
        out_W=np.zeros_like(net.out_W),
        out_b=np.zeros_like(net.out_b),
    )


def same_value_bits(a, b):
    """Equal bits once a zero's sign is dropped: ``-0.0 + 0.0`` is ``+0.0``."""
    return same_bits(np.asarray(a) + 0.0, np.asarray(b) + 0.0)


def plain_encoder_backward(net, acts, d_top, grads):
    da = d_top
    for i in range(len(net.layers) - 1, -1, -1):
        a = acts[i + 1]
        dz = da * a * (1.0 - a)
        grads.layers[i].dW += dz.T @ acts[i]
        grads.layers[i].db += dz.sum(axis=0)
        da = dz @ net.layers[i].W


def plain_decoder_backward(net, recs, du, grads):
    """Adds the decoder's part of the reconstruction gradients, from the
    residual gradient ``du`` at ``x_hat``, into ``grads``; returns the
    gradient at the top code."""
    for i, layer in enumerate(net.layers):
        grads.layers[i].dW += recs[i + 1].T @ du
        grads.layers[i].db_rec += du.sum(axis=0)
        d_rec = du @ layer.W.T
        if i + 1 < len(net.layers):
            du = d_rec * recs[i + 1] * (1.0 - recs[i + 1])
    return d_rec


def plain_output_delta(y_hat, labels):
    q = np.clip(y_hat, PROB_EPS, 1.0 - PROB_EPS)
    g = (-(labels / q) + (1.0 - labels) / (1.0 - q)) / labels.shape[0]
    return y_hat * (g - np.sum(g * y_hat, axis=1, keepdims=True))


def plain_label_grads(net, acts, y_hat, labels):
    """The read-out's gradients in fresh zeroed gradients, and the label
    loss's gradient at the top code."""
    dz = plain_output_delta(y_hat, labels)
    grads = zero_grads(net)
    grads.out_W += dz.T @ acts[-1]
    grads.out_b += dz.sum(axis=0)
    return grads, dz @ net.out_W


def plain_network_gradients(net, batch, hybrid_weight, fwd=None):
    """The joined backward, plainly: the decoder walk from the residual
    divided by the row count and scaled by ``hybrid_weight``, the label
    loss's top gradient added at the top code, then one encoder backward.
    ``fwd`` is ignored: the reference runs its own forward."""
    acts, recs, rec_losses, y_hat = plain_forward(net, batch.inputs)
    disc = float(plain_cross_entropy(batch.labels, y_hat).mean())
    grads, d_top = plain_label_grads(net, acts, y_hat, batch.labels)
    gen = 0.0
    if hybrid_weight != 0.0:
        du = (recs[0] - acts[0]) / batch.size * hybrid_weight
        d_top = plain_decoder_backward(net, recs, du, grads) + d_top
        gen = float(rec_losses.mean())
    plain_encoder_backward(net, acts, d_top, grads)
    return grads, disc, gen


def two_backward_network_gradients(net, batch, hybrid_weight):
    """The hybrid gradients with an encoder backward per loss: the label
    loss's, then the unscaled reconstruction loss's, whose gradients are
    scaled by ``hybrid_weight`` and added after.  The joined backward
    rounds differently, so the two agree to the last bits only."""
    acts, recs, _, y_hat = plain_forward(net, batch.inputs)
    grads, d_top = plain_label_grads(net, acts, y_hat, batch.labels)
    plain_encoder_backward(net, acts, d_top, grads)
    if hybrid_weight != 0.0:
        rec = zero_grads(net)
        plain_encoder_backward(net, acts, plain_decoder_backward(net, recs, (recs[0] - acts[0]) / batch.size, rec), rec)
        for g, r in zip(grads.layers, rec.layers):
            g.dW += hybrid_weight * r.dW
            g.db += hybrid_weight * r.db
            g.db_rec += hybrid_weight * r.db_rec
    return grads


def plain_train_new_columns(net, old_h, batches):
    # the new downstream columns' step read from the accumulated full gradient
    for batch in batches:
        grads, _, _ = plain_network_gradients(net, batch, 0.0)
        if len(net.layers) > 1:
            net.layers[1].W[:, old_h:] -= net.learning_rate * grads.layers[1].dW[:, old_h:]
        else:
            net.out_W[:, old_h:] -= net.learning_rate * grads.out_W[:, old_h:]


def plain_dae_gradients(layer, target, noisy):
    p = target.shape[0]
    h = masked_sigmoid(noisy @ layer.W.T + layer.b)
    x_hat = masked_sigmoid(h @ layer.W + layer.b_rec)
    du = (x_hat - target) / p
    dW = h.T @ du
    db_rec = du.sum(axis=0)
    dz = (du @ layer.W.T) * h * (1.0 - h)
    dW += dz.T @ noisy
    return dW, dz.sum(axis=0), db_rec


PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS, 0.5]),
    st.floats(0.0, 1.0),
)
# shapes whose pairs all broadcast, either way round
CE_SHAPES = [(4, 5), (5,), (1, 5), (4, 1)]
EDGE_PROBS = [0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS]


def multi_block_rows(dims):
    """A row count at which ``cross_entropy`` over ``dims`` columns takes
    three whole blocks and a ragged fourth."""
    step = max(1, network.CE_BLOCK_ELEMENTS // dims)
    rows = 3 * step + step // 2 + 1
    assert step > 1 and rows % step
    return rows


def with_edge_probs(a):
    """``a`` with the edge probabilities at the start of its first row and
    the end of its last one, in the first and the last block."""
    flat = a.reshape(-1)
    k = min(len(EDGE_PROBS), flat.size)
    flat[:k] = EDGE_PROBS[:k]
    flat[-k:] = EDGE_PROBS[-k:]
    return a


class TestInPlaceKernelsKeepTheirBits:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(1, 12),
        widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rows=st.integers(1, 50),
        hybrid_weight=st.sampled_from([0.0, 0.2, 1.0, 3.0]),
    )
    def test_losses_and_gradients(self, seed, dims, widths, rows, hybrid_weight):
        rng = np.random.default_rng(seed)
        net = make_net(rng, dims=dims, widths=tuple(widths))
        batch = make_batch(rng, rows, dims, 3)
        fwd = forward(net, batch.inputs)
        acts, recs, rec_losses, y_hat = plain_forward(net, batch.inputs)
        for a, b in zip(fwd.acts + fwd.recs + [fwd.rec_losses, fwd.y_hat], acts + recs + [rec_losses, y_hat]):
            assert same_bits(a, b)
        grads, disc, gen = network_gradients(net, batch, hybrid_weight, fwd)
        ref, ref_disc, ref_gen = plain_network_gradients(net, batch, hybrid_weight)
        assert same_bits(disc, ref_disc) and same_bits(gen, ref_gen)
        for a, b in zip(_collect_grads(grads), _collect_grads(ref)):
            assert same_value_bits(a, b)
        # pre-training's single-layer step, on the top layer's corrupted input
        layer = net.layers[-1]
        noisy = corrupt(acts[-2], 0.3, rng)
        for a, b in zip(dae_gradients(layer, acts[-2], noisy), plain_dae_gradients(layer, acts[-2], noisy)):
            assert same_bits(a, b)
        h = masked_sigmoid(noisy @ layer.W.T + layer.b)
        plain_dae = float(plain_cross_entropy(acts[-2], masked_sigmoid(h @ layer.W + layer.b_rec)).mean())
        assert same_bits(dae_loss(layer, acts[-2], noisy), plain_dae)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), widths=st.lists(st.integers(1, 9), min_size=1, max_size=4), data=st.data())
    def test_a_stopped_encoder_backward_gives_the_full_ones_upper_layers(self, seed, widths, data):
        rng = np.random.default_rng(seed)
        net = make_net(rng, dims=5, widths=tuple(widths))
        batch = make_batch(rng, data.draw(st.integers(1, 30)), 5, 3)
        fwd = forward(net, batch.inputs, decode=False)
        d_top = network._output_delta(fwd.y_hat, batch.labels) @ net.out_W
        full = network._encoder_backward(net.layers, fwd.acts, d_top)
        stop = data.draw(st.integers(0, len(widths) - 1))
        stopped = network._encoder_backward(net.layers, fwd.acts, d_top, stop)
        for (dW, db), (ref_dW, ref_db) in zip(stopped, full[stop:], strict=True):
            assert same_bits(dW, ref_dW) and same_bits(db, ref_db)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), t_shape=st.sampled_from(CE_SHAPES), q_shape=st.sampled_from(CE_SHAPES))
    def test_cross_entropy_broadcasting_either_way(self, data, t_shape, q_shape):
        t = data.draw(hnp.arrays(np.float64, t_shape, elements=PROBS))
        q = data.draw(hnp.arrays(np.float64, q_shape, elements=PROBS))
        assert same_bits(cross_entropy(t, q), plain_cross_entropy(t, q))

    @pytest.mark.parametrize("dims", [784, 1])
    @pytest.mark.parametrize(
        "t_shape, q_shape",
        [("full", "full"), ("vector", "full"), ("full", "vector"), ("row", "full"), ("full", "row")],
    )
    def test_cross_entropy_over_many_blocks(self, rng, dims, t_shape, q_shape):
        rows = multi_block_rows(dims)
        shapes = {"full": (rows, dims), "vector": (dims,), "row": (1, dims)}
        t = with_edge_probs(rng.random(shapes[t_shape]))
        q = with_edge_probs(rng.random(shapes[q_shape]))
        assert same_bits(cross_entropy(t, q), plain_cross_entropy(t, q))

    def test_cross_entropy_blocks_a_stack_along_its_first_axis(self, rng):
        # 5 x (40 x 784): two stacked rows to a block, the last one alone
        t, q = (with_edge_probs(rng.random((5, 40, 784))) for _ in range(2))
        assert same_bits(cross_entropy(t, q), plain_cross_entropy(t, q))
        assert same_bits(cross_entropy(t[0], q), plain_cross_entropy(t[0], q))

    @given(n=st.integers(2, 6), m=st.integers(2, 6), rows=st.integers(0, 3))
    def test_lengths_that_do_not_broadcast_raise(self, n, m, rows):
        assume(n != m)
        t = np.full((rows, n) if rows else n, 0.5)
        with pytest.raises(ValueError):
            cross_entropy(t, np.full(m, 0.5))
        with pytest.raises(ValueError):
            cross_entropy(np.full(m, 0.5), t)


def no_negative_zero(arrays):
    return not any(np.any((a == 0.0) & np.signbit(a)) for a in arrays)


class TestSaturatedUnitsKeepTheirBits:
    """Scaled-up weights saturate units to exactly 0.0 or 1.0, where
    ``a * (1 - a)`` is 0 and gradient entries are +-0.  There the assigned
    gradients may differ from the accumulated ones in the sign of a zero,
    which no update ``p - lr * g`` can see: no parameter holds -0.0."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.integers(1, 10),
        widths=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        rows=st.integers(1, 30),
        scale=st.sampled_from([1.0, 50.0, 300.0, 1000.0, 20000.0]),
    )
    def test_gradients_and_steps(self, seed, dims, widths, rows, scale):
        rng = np.random.default_rng(seed)
        net = make_net(rng, dims=dims, widths=tuple(widths))
        for p in _collect_params(net):
            p *= scale
        batch = make_batch(rng, rows, dims, 3)
        fwd = forward(net, batch.inputs)
        for hybrid_weight in (0.0, 0.2, 1.0):
            grads, _, _ = network_gradients(net, batch, hybrid_weight, fwd)
            ref, _, _ = plain_network_gradients(net, batch, hybrid_weight)
            for a, b in zip(_collect_grads(grads), _collect_grads(ref)):
                assert same_value_bits(a, b)
        noisy = corrupt(fwd.acts[-2], 0.3, rng)
        dae = dae_gradients(net.layers[-1], fwd.acts[-2], noisy)
        for a, b in zip(dae, plain_dae_gradients(net.layers[-1], fwd.acts[-2], noisy)):
            assert same_bits(a, b)  # no zeros to add into: every bit as before

        def step_both(step, *patches):
            new, ref = copy.deepcopy(net), copy.deepcopy(net)
            step(new)
            with pytest.MonkeyPatch.context() as mp:
                for module, name, fn in patches:
                    mp.setattr(module, name, fn)
                step(ref)
            for a, b in zip(_collect_params(new), _collect_params(ref)):
                assert same_bits(a, b)
            assert no_negative_zero(_collect_params(new))

        for hybrid_weight in (0.0, 0.2, 1.0):
            step_both(
                lambda n: finetune(n, batch, hybrid_weight),
                (network, "_gradients", lambda *args: plain_network_gradients(*args)[0]),
            )
        step_both(
            lambda n: pretrain_layer(n, len(widths) - 1, [batch], 1, np.random.default_rng(seed)),
            (network, "dae_gradients", plain_dae_gradients),
        )
        step_both(
            lambda n: structure.increment_nodes(n, 2, [batch], np.random.default_rng(seed)),
            (structure, "dae_gradients", plain_dae_gradients),
            (structure, "_train_new_columns", plain_train_new_columns),
        )

    def test_saturation_reaches_signed_zero_gradients(self):
        # the property above is not vacuous: with most units saturated the
        # accumulated and the assigned gradients differ in a zero's sign (at
        # full saturation every gradient is +0.0 and they agree again)
        rng = np.random.default_rng(3)
        net = make_net(rng, dims=8, widths=(6, 5))
        for p in _collect_params(net):
            p *= 300.0
        batch = make_batch(rng, 20, 8, 3)
        fwd = forward(net, batch.inputs)
        assert all(np.isin(a, (0.0, 1.0)).mean() > 0.5 for a in fwd.acts[1:])
        grads, _, _ = network_gradients(net, batch, 0.2, fwd)
        ref, _, _ = plain_network_gradients(net, batch, 0.2)
        pairs = list(zip(_collect_grads(grads), _collect_grads(ref)))
        assert all(same_value_bits(a, b) for a, b in pairs)
        assert not all(same_bits(a, b) for a, b in pairs)


class TestKernelsLeaveInputsAlone:
    def test_sigmoid(self, rng):
        v = rng.standard_normal((30, 7)) * 5
        before = v.copy()
        sigmoid(v)
        assert same_bits(v, before)

    @staticmethod
    def check_cross_entropy(rng, shape):
        t, q = rng.random(shape), rng.random(shape)
        q[0, :2] = [0.0, 1.0]
        q[-1, -2:] = [0.0, 1.0]
        t_before, q_before = t.copy(), q.copy()
        cross_entropy(t, q)
        assert same_bits(t, t_before) and same_bits(q, q_before)

    def test_cross_entropy(self, rng):
        self.check_cross_entropy(rng, (30, 7))

    def test_cross_entropy_over_many_blocks(self, rng):
        self.check_cross_entropy(rng, (multi_block_rows(784), 784))

    def test_forward(self, rng):
        net = make_net(rng)
        batch = make_batch(rng, 12, 6, 3)
        inputs, params = batch.inputs.copy(), [a.copy() for a in _collect_params(net)]
        forward(net, batch.inputs)
        assert same_bits(batch.inputs, inputs)
        for a, b in zip(_collect_params(net), params):
            assert same_bits(a, b)


def peak_in_batch_arrays(call, batch_bytes):
    """Peak memory allocated while ``call`` runs, result included, in
    units of one batch-sized float64 array."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / batch_bytes


class TestWideBatchMemory:
    """At the wide workload's 1000 x 784 the temporaries dominate the
    memory a kernel needs; the plain expressions peaked at 3, 5 and 6.2
    batch arrays.  ``cross_entropy`` takes its temporaries a block of rows
    at a time and peaks at 0.25 (3.0 over the whole batch at once), so
    ``forward`` peaks at 2.2 whether or not its reconstruction losses are
    read (reading them peaked at 4.2 with the whole-batch temporaries)."""

    ROWS, DIMS = 1000, 784

    def test_peaks(self, rng):
        X, q = rng.random((2, self.ROWS, self.DIMS))
        v = rng.standard_normal(X.shape) * 4
        net = network.init_network(self.DIMS, (32, 32, 32), 3, rng)
        assert peak_in_batch_arrays(lambda: sigmoid(v), X.nbytes) <= 2.05
        assert peak_in_batch_arrays(lambda: sigmoid(v, out=v), X.nbytes) <= 1.05
        assert peak_in_batch_arrays(lambda: cross_entropy(X, q), X.nbytes) <= 0.35
        assert peak_in_batch_arrays(lambda: forward(net, X), X.nbytes) <= 2.3
        assert peak_in_batch_arrays(lambda: forward(net, X).rec_losses, X.nbytes) <= 2.3

    # the hybrid bounds sit about 2% above the peaks of the joined backward
    # (1.078 and 4.832), as 3.9 sits above width 1000's label-only 3.830;
    # with one encoder backward per loss the peaks were 1.113 and 5.833
    @pytest.mark.parametrize(
        "widths, hybrid_weight, bound",
        [((32, 32, 32), 0.0, 0.30), ((32, 32, 32), 0.2, 1.10), ((1000,), 0.0, 3.9), ((1000,), 0.2, 4.92)],
    )
    def test_network_gradient_peaks(self, rng, widths, hybrid_weight, bound):
        X = rng.random((self.ROWS, self.DIMS))
        batch = DataBatch(0, X, np.eye(3)[rng.integers(0, 3, self.ROWS)])
        net = network.init_network(self.DIMS, widths, 3, rng)
        fwd = forward(net, X)
        fwd.rec_losses  # the forward's own losses, computed outside the gradients' peak
        peak = peak_in_batch_arrays(lambda: network_gradients(net, batch, hybrid_weight, fwd), X.nbytes)
        assert peak <= bound

    def test_dae_gradient_peak(self, rng):
        X = rng.random((self.ROWS, self.DIMS))
        layer = network.init_network(self.DIMS, (1000,), 3, rng).layers[0]
        noisy = corrupt(X, 0.2, rng)
        assert peak_in_batch_arrays(lambda: dae_gradients(layer, X, noisy), X.nbytes) <= 7.11
