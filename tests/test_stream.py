import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdae.network import DataBatch
from adaptdae.stream import (
    SELECT_BLOCK_ELEMENTS,
    LabeledSource,
    StreamSpec,
    _ratio_schedule,
    _switch_ratios,
    build_stream,
    class_ratios,
    gp_sample_curves,
    iter_stream,
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

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(lambda r: sum(r) > 0),
        total=st.integers(0, 10_000),
    )
    def test_counts_sum_to_total_within_one_of_the_ratio(self, raw, total):
        ratios = np.asarray(raw) / np.sum(raw)
        counts = largest_remainder_counts(ratios, total)
        assert counts.sum() == total
        assert np.all(np.abs(counts - ratios * total) <= 1)

    def test_uniform_four_class_batch(self):
        counts = largest_remainder_counts(np.full(4, 0.25), 1000)
        assert list(counts) == [250, 250, 250, 250]

    @settings(max_examples=200, deadline=None)
    @given(
        # small integer weights give rows whose remainders tie
        weights=st.integers(1, 6).flatmap(
            lambda k: st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any), min_size=1, max_size=8)
        ),
        total=st.integers(0, 300),
    )
    def test_a_schedule_equals_its_rows_one_by_one(self, weights, total):
        w = np.asarray(weights, dtype=np.float64)
        schedule = w / w.sum(axis=1, keepdims=True)
        got = largest_remainder_counts(schedule, total)
        assert got.shape == schedule.shape
        for ratios, counts in zip(schedule, got):
            assert list(counts) == list(largest_remainder_counts(ratios, total))
            assert list(counts) == remainder_oracle(list(ratios), total)


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
            for row, label in zip(batch.inputs, np.argmax(batch.labels, axis=1)):
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

    @pytest.mark.parametrize("switch_at", [0, 10, 50])
    def test_a_switch_stream_that_never_switches_is_rejected(self, switch_at):
        spec = StreamSpec(classes=3, dims=6, batches=10, mode="switch", switch_at=switch_at)
        message = rf"^stream.switch_at must be in \[1, stream.batches\) in switch mode, got a flip at {switch_at}$"
        with pytest.raises(ValueError, match=message):
            spec.validate()
        # batch 1 and the last batch can still flip, and the other modes
        # never read switch_at
        replace(spec, switch_at=1).validate()
        replace(spec, switch_at=9).validate()
        replace(spec, mode="nonstationary").validate()
        replace(spec, mode="stationary").validate()

    def test_a_one_batch_switch_stream_is_rejected_by_its_default_flip(self):
        spec = StreamSpec(classes=3, dims=6, batches=1, mode="switch")
        with pytest.raises(ValueError, match=r"got a flip at 0$"):
            spec.validate()
        replace(spec, batches=2).validate()  # the default flips at batch 1 of 2
        replace(spec, mode="stationary").validate()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_switch_spec_validates_iff_its_schedule_switches(self, data):
        batches = data.draw(st.integers(1, 12))
        spec = StreamSpec(
            classes=data.draw(st.integers(2, 5)),
            dims=2,
            batches=batches,
            mode="switch",
            switch_at=data.draw(st.none() | st.integers(0, batches + 1)),
            skew=data.draw(st.sampled_from([0.2, 0.6, 0.9])),  # at 0.5 the two rows are equal
        )
        try:
            spec.validate()
            valid = True
        except ValueError:
            valid = False
        assert valid == has_both_rows(spec)
        if valid:
            # every row before the flip is the pre-switch row, every other one the post-switch row
            pre, post = _switch_ratios(spec.classes, spec.skew)
            schedule = _ratio_schedule(spec, np.random.default_rng(0))
            flip = int(np.flatnonzero((schedule == post).all(axis=1))[0])
            assert schedule.tobytes() == np.vstack([pre] * flip + [post] * (batches - flip)).tobytes()

    @pytest.mark.parametrize("bad", [2.0, np.nan, -0.5])
    def test_a_store_value_outside_the_unit_interval_is_rejected(self, bad):
        # a stream of such a source yields batches that DataBatch.validate
        # rejects, so the source is rejected first
        rng = np.random.default_rng(11)
        source = synth_dataset(3, 6, 30, rng)
        source.examples[1][4] = bad
        spec = StreamSpec(classes=3, dims=6, batch_size=40, batches=2)
        for check in (source.validate, lambda: iter_stream(source, spec, rng), lambda: build_stream(source, spec, rng)):
            with pytest.raises(ValueError, match=r"^class 1 holds values outside \[0, 1\]$"):
                check()
        source.examples[1][4] = 1.0  # either bound itself is in range
        source.examples[1][5] = 0.0
        for batch in build_stream(source, spec, rng):
            batch.validate()

    def test_source_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        source = synth_dataset(3, 6, 30, rng)
        with pytest.raises(ValueError):
            build_stream(source, StreamSpec(classes=4, dims=6), rng)


def reference_build_stream(source, spec, rng=None):
    """The materialising ``build_stream`` that ``iter_stream`` replaced:
    per-class fancy-indexed blocks, ``np.where`` noise and ``vstack``."""
    spec.validate()
    source.validate()
    if source.classes != spec.classes:
        raise ValueError("source class count does not match the spec")
    if source.dims != spec.dims:
        raise ValueError("source dimensionality does not match the spec")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    schedule = _ratio_schedule(spec, rng)
    eye = np.eye(spec.classes)
    batches = []
    for t in range(spec.batches):
        counts = largest_remainder_counts(schedule[t], spec.batch_size)
        xs, ys = [], []
        for k, c in enumerate(counts):
            if c == 0:
                continue
            store = source.examples[k]
            x = store[rng.integers(0, store.shape[0], size=c)].astype(np.float64, copy=False)
            if spec.mask_noise > 0:
                mask = rng.random(x.shape) < spec.mask_noise
                x = np.where(mask, rng.random(x.shape), x)
            xs.append(x)
            ys.append(np.tile(eye[k], (c, 1)))
        perm = rng.permutation(spec.batch_size)
        batches.append(DataBatch(seq_id=t, inputs=np.vstack(xs)[perm], labels=np.vstack(ys)[perm]))
    return batches


@st.composite
def stream_cases(draw):
    classes = draw(st.integers(2, 5))
    dims = draw(st.integers(1, 7))
    batches = draw(st.integers(1, 6))
    spec = StreamSpec(
        classes=classes,
        dims=dims,
        batch_size=draw(st.integers(1, 40)),
        batches=batches,
        mode=draw(st.sampled_from(["stationary", "nonstationary", "switch"])),
        gp_length_scale=draw(st.sampled_from([None, 0.5, 3.0])),
        mask_noise=draw(st.sampled_from([0.0, 0.2, 1.0])),
        switch_at=draw(st.none() | st.integers(0, batches)),
        # a skew near 1 on a small batch rounds the other group's counts to 0
        skew=draw(st.sampled_from([0.5, 0.9, 0.999])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    per_class = draw(st.lists(st.integers(1, 9), min_size=classes, max_size=classes))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    store_rng = np.random.default_rng(spec.seed)
    source = LabeledSource([store_rng.random((n, dims)).astype(dtype) for n in per_class])
    return source, spec


def has_both_rows(spec):
    """Whether the switch stream ``spec``'s ratio schedule holds both the
    pre-switch and the post-switch row."""
    pre, post = _switch_ratios(spec.classes, spec.skew)
    rows = _ratio_schedule(spec, np.random.default_rng(0))
    return all((rows == row).all(axis=1).any() for row in (pre, post))


def never_switches(spec):
    """Whether ``spec`` is a switch stream whose schedule lacks the pre- or
    the post-switch row, told apart at a skew where the two differ."""
    return spec.mode == "switch" and not has_both_rows(replace(spec, skew=0.9))


def assert_rejected_as_never_switching(source, spec):
    for draw in (iter_stream, build_stream, reference_build_stream):
        with pytest.raises(ValueError, match=r"stream.switch_at must be in \[1, stream.batches\) in switch mode"):
            draw(source, spec, np.random.default_rng(spec.seed))


def assert_equals_the_reference(source, spec, materialise):
    if never_switches(spec):
        assert_rejected_as_never_switching(source, spec)
        return
    rng, reference_rng = np.random.default_rng(spec.seed), np.random.default_rng(spec.seed)
    expected = reference_build_stream(source, spec, reference_rng)
    got = build_stream(source, spec, rng) if materialise else list(iter_stream(source, spec, rng))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.seq_id == b.seq_id
        for x, y in ((a.inputs, b.inputs), (a.labels, b.labels)):
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()
    # the same draws in the same order leave the generator where the reference left it
    assert rng.random() == reference_rng.random()


class TestIterStream:
    @settings(max_examples=200, deadline=None)
    @given(case=stream_cases(), materialise=st.booleans())
    def test_draws_equal_the_reference_byte_for_byte(self, case, materialise):
        assert_equals_the_reference(*case, materialise)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mask_noise", [0.2, 1.0])
    def test_a_batch_wider_than_one_select_block_equals_the_reference(self, dtype, mask_noise):
        # the property's batches are never larger than one select block; this
        # one spans a whole block and a part of one
        spec = StreamSpec(classes=3, dims=784, batch_size=100, batches=3, mask_noise=mask_noise, seed=21)
        elements = spec.batch_size * spec.dims
        assert elements > SELECT_BLOCK_ELEMENTS and elements % SELECT_BLOCK_ELEMENTS
        store_rng = np.random.default_rng(spec.seed)
        source = LabeledSource([store_rng.random((n, spec.dims)).astype(dtype) for n in (40, 7, 25)])
        assert_equals_the_reference(source, spec, materialise=False)

    @pytest.mark.parametrize("mask_noise", [0.2, 0.0])
    def test_class_blocks_over_several_uniform_blocks_equal_the_reference(self, mask_noise):
        # each class block spans more than one uniform block, the value window
        # fills several times across class boundaries; without mask noise
        # there is no window at all
        spec = StreamSpec(classes=2, dims=784, batch_size=300, batches=3, mask_noise=mask_noise, seed=23)
        elements = spec.batch_size * spec.dims
        assert elements // spec.classes > SELECT_BLOCK_ELEMENTS and elements > 3 * SELECT_BLOCK_ELEMENTS
        store_rng = np.random.default_rng(spec.seed)
        source = LabeledSource([store_rng.random((n, spec.dims)) for n in (30, 11)])
        assert_equals_the_reference(source, spec, materialise=False)

    @settings(max_examples=50, deadline=None)
    @given(case=stream_cases())
    def test_batches_share_no_memory(self, case):
        source, spec = case
        if never_switches(spec):
            assert_rejected_as_never_switching(source, spec)
            return
        batches = iter_stream(source, spec, np.random.default_rng(spec.seed))
        kept, unwritten = [], {}
        for batch in batches:
            arrays = (batch.inputs, batch.labels)
            # the generator's own arrays, besides the batch it yielded
            held = [v for v in batches.gi_frame.f_locals.values() if isinstance(v, np.ndarray)]
            scratch = [v for v in held if v is not batch.inputs and v is not batch.labels]
            # every batch-shaped array it holds is this batch's own inputs, or
            # a stream-long one of that shape by chance (the pooled store, the
            # label eye), which no draw writes
            for v in scratch:
                if v.shape == (spec.batch_size, spec.dims):
                    assert unwritten.setdefault(id(v), v.tobytes()) == v.tobytes()
            for x in arrays:
                assert not any(np.shares_memory(x, v) for v in scratch)
                assert not any(np.shares_memory(x, y) for y in kept)
            kept.extend(arrays)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mask_noise", [0.2, 1.0])
    def test_no_batch_sized_scratch_outlives_a_draw(self, dtype, mask_noise):
        spec = StreamSpec(classes=3, dims=784, batch_size=1000, batches=3, mask_noise=mask_noise, seed=25)
        store_rng = np.random.default_rng(spec.seed)
        source = LabeledSource([store_rng.random((n, spec.dims)).astype(dtype) for n in (60, 20, 40)])
        store_bytes = 120 * spec.dims * 8  # the generator's float64 copy of the stores
        batch_bytes = spec.batch_size * spec.dims * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = iter_stream(source, spec, np.random.default_rng(spec.seed))
            for _ in range(spec.batches):
                batch = next(batches)
                assert batch.inputs.nbytes == batch_bytes
                del batch
                held = tracemalloc.get_traced_memory()[0] - before - store_bytes
                assert held <= batch_bytes / 4
        finally:
            tracemalloc.stop()

    def test_checks_and_schedule_run_when_called(self):
        source = synth_dataset(3, 6, 30, np.random.default_rng(10))
        with pytest.raises(ValueError, match="class count"):
            iter_stream(source, StreamSpec(classes=4, dims=6))
        rng = np.random.default_rng(11)
        batches = iter_stream(source, StreamSpec(classes=3, dims=6, batches=4, batch_size=5), rng)
        # the ratio curves are drawn already, before the first batch
        assert rng.bit_generator.state != np.random.default_rng(11).bit_generator.state
        assert len(list(batches)) == 4


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
