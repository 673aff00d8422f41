import math
import struct

import numpy as np
import pytest

from adaptdae.stream import (
    StreamSpec,
    build_stream,
    class_ratios,
    gp_sample_curves,
    largest_remainder_counts,
    load_idx,
    synth_dataset,
)


class TestGpCurves:
    def test_long_length_scale_flattens_curves(self):
        T = 40
        long_spreads, short_spreads, all_values = [], [], []
        for seed in range(20):
            curves = gp_sample_curves(2, T, length_scale=10 * T, rng=np.random.default_rng(seed))
            long_spreads.extend(curves.max(axis=1) - curves.min(axis=1))
            all_values.extend(curves.ravel())
            rough = gp_sample_curves(2, T, length_scale=T / 10, rng=np.random.default_rng(seed))
            short_spreads.extend(rough.max(axis=1) - rough.min(axis=1))
        scale = np.std(all_values)
        assert np.mean(long_spreads) < 0.2 * scale
        assert np.mean(long_spreads) < 0.2 * np.mean(short_spreads)

    def test_determinism(self):
        a = gp_sample_curves(3, 25, 5.0, np.random.default_rng(42))
        b = gp_sample_curves(3, 25, 5.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_marginal_variance_close_to_one(self):
        values = []
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            values.append(gp_sample_curves(1, 8, 2.0, rng)[0])
        var = np.var(np.asarray(values), axis=0).mean()
        assert 0.9 <= var <= 1.1


class TestClassRatios:
    def test_equal_curves_give_uniform(self):
        curves = np.full((5, 3), 1.7)
        assert np.allclose(class_ratios(curves, 1), 0.2)

    def test_closed_form(self):
        curves = np.array([[math.log(3.0)], [0.0]])
        assert np.allclose(class_ratios(curves, 0), [0.75, 0.25], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        curves = rng.normal(size=(6, 30))
        for t in range(30):
            assert abs(class_ratios(curves, t).sum() - 1.0) <= 1e-12


def remainder_oracle(ratios, total):
    """Independent largest-remainder rounding with explicit sorting."""
    scaled = [r * total for r in ratios]
    base = [math.floor(s) for s in scaled]
    leftover = total - sum(base)
    order = sorted(range(len(ratios)), key=lambda k: (-(scaled[k] - base[k]), k))
    for k in order[:leftover]:
        base[k] += 1
    return base


class TestLargestRemainder:
    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            K = int(rng.integers(2, 7))
            raw = rng.random(K)
            ratios = raw / raw.sum()
            total = int(rng.integers(1, 500))
            got = largest_remainder_counts(ratios, total)
            assert got.sum() == total
            assert list(got) == remainder_oracle(list(ratios), total)

    def test_uniform_four_class_batch(self):
        counts = largest_remainder_counts(np.full(4, 0.25), 1000)
        assert list(counts) == [250, 250, 250, 250]


class TestBuildStream:
    def test_stationary_uniform_counts(self):
        rng = np.random.default_rng(2)
        source = synth_dataset(4, 8, 50, rng)
        spec = StreamSpec(classes=4, dims=8, batch_size=1000, batches=3, mode="stationary")
        for batch in build_stream(source, spec, rng):
            counts = batch.labels.sum(axis=0)
            assert list(counts) == [250, 250, 250, 250]

    def test_counts_follow_schedule_exactly(self):
        rng = np.random.default_rng(3)
        source = synth_dataset(3, 6, 40, rng)
        spec = StreamSpec(classes=3, dims=6, batch_size=97, batches=10)
        batches = build_stream(source, spec, np.random.default_rng(5))
        for batch in batches:
            counts = batch.labels.sum(axis=0).astype(int)
            assert counts.sum() == 97
        # the realised histogram is within 1/p of an exact ratio by construction
        for batch in batches:
            hist = batch.class_histogram()
            assert abs(hist.sum() - 1.0) < 1e-12

    def test_no_mask_noise_keeps_stored_examples(self):
        rng = np.random.default_rng(4)
        source = synth_dataset(2, 5, 12, rng)
        spec = StreamSpec(classes=2, dims=5, batch_size=20, batches=2, mask_noise=0.0)
        for batch in build_stream(source, spec, np.random.default_rng(6)):
            for row, label in zip(batch.inputs, batch.label_indices()):
                store = source.examples[label]
                assert any(np.array_equal(row, ex) for ex in store)

    def test_same_seed_bitwise_identical(self):
        rng_src = np.random.default_rng(7)
        source = synth_dataset(3, 6, 30, rng_src)
        spec = StreamSpec(classes=3, dims=6, batch_size=50, batches=5, seed=123)
        a = build_stream(source, spec)
        b = build_stream(source, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)
            assert np.array_equal(x.labels, y.labels)

    def test_batches_satisfy_invariants(self):
        rng = np.random.default_rng(8)
        source = synth_dataset(3, 6, 30, rng)
        spec = StreamSpec(classes=3, dims=6, batch_size=40, batches=6)
        for batch in build_stream(source, spec, rng):
            batch.validate()

    def test_switch_mode_flips_distribution(self):
        rng = np.random.default_rng(9)
        source = synth_dataset(3, 6, 30, rng)
        spec = StreamSpec(
            classes=3, dims=6, batch_size=100, batches=10, mode="switch", switch_at=5, skew=0.9
        )
        batches = build_stream(source, spec, rng)
        early = batches[0].class_histogram()
        late = batches[-1].class_histogram()
        assert early[0] == pytest.approx(0.9, abs=1e-12)
        assert late[1] + late[2] == pytest.approx(0.9, abs=1e-12)

    def test_source_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        source = synth_dataset(3, 6, 30, rng)
        with pytest.raises(ValueError):
            build_stream(source, StreamSpec(classes=4, dims=6), rng)


def softmax_regression_error(X, y_idx, classes, iters=400, lr=0.5):
    """Tiny multinomial logistic regression as a learnability oracle."""
    W = np.zeros((classes, X.shape[1]))
    b = np.zeros(classes)
    Y = np.eye(classes)[y_idx]
    for _ in range(iters):
        logits = X @ W.T + b
        logits -= logits.max(axis=1, keepdims=True)
        P = np.exp(logits)
        P /= P.sum(axis=1, keepdims=True)
        G = (P - Y) / X.shape[0]
        W -= lr * (G.T @ X)
        b -= lr * G.sum(axis=0)
    pred = np.argmax(X @ W.T + b, axis=1)
    return float(np.mean(pred != y_idx))


class TestSynthDataset:
    def test_zero_spread_equals_prototype(self):
        rng = np.random.default_rng(11)
        source = synth_dataset(3, 5, 1, rng, spread=0.0)
        for k, store in enumerate(source.examples):
            proto = np.full(5, 0.2)
            proto[k] = 0.8
            assert np.array_equal(store[0], proto)

    def test_linearly_separable_at_small_spread(self):
        rng = np.random.default_rng(12)
        source = synth_dataset(3, 16, 100, rng, spread=0.1)
        X = np.vstack(source.examples)
        y = np.concatenate([np.full(100, k) for k in range(3)])
        assert softmax_regression_error(X, y, 3) <= 0.05

    def test_values_clamped(self):
        rng = np.random.default_rng(13)
        source = synth_dataset(2, 4, 500, rng, spread=0.5)
        for store in source.examples:
            assert store.min() >= 0.0 and store.max() <= 1.0


def write_idx_fixture(tmp_path, pixels, labels):
    """Hand-built IDX pair: 4-byte big-endian magic and dims, then bytes."""
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(bytes(labels))
    return str(images_path), str(labels_path)


class TestLoadIdx:
    def test_fixture_roundtrip(self, tmp_path):
        pixels = np.arange(16, dtype=np.uint8).reshape(4, 2, 2) * 17
        labels = [0, 1, 2, 1]
        images_path, labels_path = write_idx_fixture(tmp_path, pixels, labels)
        source = load_idx(images_path, labels_path)
        assert source.classes == 3
        assert [s.shape[0] for s in source.examples] == [1, 2, 1]
        # class 2 holds the third image, scaled by 255
        assert np.allclose(source.examples[2][0], pixels[2].ravel() / 255.0)

    def test_pixel_255_scales_to_one(self, tmp_path):
        pixels = np.full((2, 1, 2), 255, dtype=np.uint8)
        images_path, labels_path = write_idx_fixture(tmp_path, pixels, [0, 1])
        source = load_idx(images_path, labels_path)
        assert source.examples[0][0].max() == 1.0

    def test_count_mismatch_rejected(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        images_path, labels_path = write_idx_fixture(tmp_path, pixels, [0, 1])
        with pytest.raises(ValueError, match="count"):
            load_idx(images_path, labels_path)

    def test_bad_magic_rejected(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        images_path, labels_path = write_idx_fixture(tmp_path, pixels, [0, 1])
        with open(images_path, "r+b") as f:
            f.write(struct.pack(">I", 0x00000801))
        with pytest.raises(ValueError, match="magic"):
            load_idx(images_path, labels_path)

    def test_truncated_file_rejected(self, tmp_path):
        pixels = np.zeros((2, 4, 4), dtype=np.uint8)
        images_path, labels_path = write_idx_fixture(tmp_path, pixels, [0, 1])
        with open(images_path, "r+b") as f:
            f.truncate(20)
        with pytest.raises(ValueError, match="expected"):
            load_idx(images_path, labels_path)
