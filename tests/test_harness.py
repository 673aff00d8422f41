import itertools
import math
import re
import sys
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adaptdae.harness as harness
import adaptdae.midae as midae
import adaptdae.network as network
from adaptdae.config import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    _parse_optional_float,
    _parse_optional_int,
    _parse_widths,
    parse_config,
    validate_experiment,
)
from adaptdae.controller import ControllerConfig
from adaptdae.harness import (
    NumericalBreakdown,
    TraceRecord,
    eval_global,
    prepare_data,
    read_trace,
    replay_summary,
    run_experiment,
    summarize,
    write_trace,
)
from adaptdae.network import init_network
from adaptdae.stream import StreamSpec
from conftest import make_batch, make_net


def tiny_config(policy="sdae", seed=0, batches=12, **rl_overrides):
    rl = dict(
        ema_window=5,
        warmup_batches=3,
        greedy_after=6,
        refit_interval=2,
        max_observations=100,
    )
    rl.update(rl_overrides)
    return ExperimentConfig(
        policy=policy,
        seed=seed,
        out="",
        summary_last=5,
        stream=StreamSpec(classes=3, dims=6, batch_size=20, batches=batches, mode="nonstationary"),
        per_class=30,
        rl=ControllerConfig(**rl),
    )


def with_pool(cfg, capacity=60, threshold=0.2):
    cfg.pool.capacity = capacity
    cfg.pool.distance_threshold = threshold
    cfg.nn.widths = (8,)
    return cfg


class TestConfigParsing:
    def test_empty_config_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg.policy == "radae"
        assert cfg.rl.ema_window == 30
        assert cfg.stream.batch_size == 1000

    def test_round_trip_of_values(self):
        text = """
        policy = midae
        seed = 9
        nn.widths = 16, 8
        rl.epsilon = 0.25
        pool.capacity = 123
        stream.mode = stationary
        """
        cfg = parse_config(text)
        assert cfg.policy == "midae"
        assert cfg.seed == 9
        assert cfg.nn.widths == (16, 8)
        assert cfg.rl.epsilon == 0.25
        assert cfg.pool.capacity == 123
        assert cfg.stream.mode == "stationary"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3  # trailing\n")
        assert cfg.seed == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nnosuch.key = 2\n")
        assert err.value.line == 2

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("\n\nseed = banana\n")
        assert err.value.line == 3

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed 1\n")
        assert err.value.line == 1

    def test_validate_flags_cross_field_problems(self):
        cfg = parse_config("pool.capacity = 10\nstream.batch_size = 100\n")
        problems = validate_experiment(cfg)
        assert any("pool.capacity" in p for p in problems)

    def test_validate_accepts_defaults(self):
        assert validate_experiment(ExperimentConfig()) == []


# the table as it was written out by hand, one line per key, before it was
# derived from the config dataclasses; the derived one must not drift from it
HAND_WRITTEN_KEYS = {
    "policy": (None, "policy", str),
    "seed": (None, "seed", int),
    "out": (None, "out", str),
    "summary_last": (None, "summary_last", int),
    "test_fraction": (None, "test_fraction", float),
    "stream.kind": (None, "kind", str),
    "stream.per_class": (None, "per_class", int),
    "stream.spread": (None, "spread", float),
    "stream.images": (None, "images", str),
    "stream.labels": (None, "labels", str),
    "stream.classes": ("stream", "classes", int),
    "stream.dims": ("stream", "dims", int),
    "stream.batch_size": ("stream", "batch_size", int),
    "stream.batches": ("stream", "batches", int),
    "stream.mode": ("stream", "mode", str),
    "stream.gp_length_scale": ("stream", "gp_length_scale", _parse_optional_float),
    "stream.mask_noise": ("stream", "mask_noise", float),
    "stream.switch_at": ("stream", "switch_at", _parse_optional_int),
    "stream.skew": ("stream", "skew", float),
    "nn.widths": ("nn", "widths", _parse_widths),
    "nn.learning_rate": ("nn", "learning_rate", float),
    "nn.corruption": ("nn", "corruption", float),
    "nn.hybrid_weight": ("nn", "hybrid_weight", float),
    "nn.pretrain_batches": ("nn", "pretrain_batches", int),
    "nn.pretrain_epochs": ("nn", "pretrain_epochs", int),
    "pool.capacity": ("pool", "capacity", int),
    "pool.distance_threshold": ("pool", "distance_threshold", float),
    "rl.ema_window": ("rl", "ema_window", int),
    "rl.warmup_batches": ("rl", "warmup_batches", int),
    "rl.greedy_after": ("rl", "greedy_after", int),
    "rl.discount": ("rl", "discount", float),
    "rl.q_lr": ("rl", "q_lr", float),
    "rl.ema_alpha": ("rl", "ema_alpha", _parse_optional_float),
    "rl.epsilon": ("rl", "epsilon", float),
    "rl.delta_scale": ("rl", "delta_scale", _parse_optional_float),
    "rl.size_target": ("rl", "size_target", float),
    "rl.size_width": ("rl", "size_width", float),
    "rl.size_low": ("rl", "size_low", float),
    "rl.size_high": ("rl", "size_high", float),
    "rl.state_space": ("rl", "state_space", int),
    "rl.refit_interval": ("rl", "refit_interval", int),
    "rl.max_observations": ("rl", "max_observations", int),
    "rl.gp_noise": ("rl", "gp_noise", float),
    "midae.delta_init": ("midae", "delta_init", int),
    "midae.grow_step": ("midae", "grow_step", int),
    "midae.merge_ratio": ("midae", "merge_ratio", float),
    "midae.improve_eps": ("midae", "improve_eps", float),
    "midae.converge_eps": ("midae", "converge_eps", float),
    "midae.pool_threshold": ("midae", "pool_threshold", _parse_optional_int),
}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_rows():
    """(keys, defaults) per row of the README's configuration table; a row
    such as `rl.size_low` / `rl.size_high` names several keys."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines():
        key_cell, default_cell = line.split(" | ")[:2]
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = [cell.strip("`") for cell in default_cell.split(" / ")]
        rows.append((keys, defaults * len(keys) if len(defaults) == 1 else defaults))
    return rows


class TestKeyTable:
    def test_derived_table_equals_the_hand_written_one(self):
        assert list(_KEYS) == list(HAND_WRITTEN_KEYS)
        for key, entry in HAND_WRITTEN_KEYS.items():
            assert _KEYS[key] == entry, key

    def test_readme_table_names_every_key_once(self):
        keys = [key for row_keys, _ in readme_config_rows() for key in row_keys]
        assert sorted(keys) == sorted(_KEYS)

    def test_readme_defaults_are_the_dataclass_defaults(self):
        defaults = ExperimentConfig()
        for keys, cells in readme_config_rows():
            assert len(keys) == len(cells), keys
            for key, cell in zip(keys, cells):
                section, attr, parser = _KEYS[key]
                owner = defaults if section is None else getattr(defaults, section)
                assert parser(cell) == getattr(owner, attr), key


class TestEvalFunctions:
    def test_eval_global_uniform_net_near_chance(self, rng):
        net = make_net(rng, dims=4, widths=(3,), classes=4)
        net.out_W[:] = 0.0
        net.out_b[:] = 0.0
        # with zero logits every prediction is class 0
        n = 2400
        labels = np.eye(4)[rng.integers(0, 4, size=n)]
        # randomise which class wins by jittering the bias per trial instead:
        net.out_b[:] = rng.normal(0, 1e-6, size=4)
        err = eval_global(net, rng.random((n, 4)), labels)
        assert abs(err - 0.75) <= 0.05

    def test_eval_global_order_invariant(self, rng):
        net = make_net(rng)
        X = rng.random((40, 6))
        Y = np.eye(3)[rng.integers(0, 3, size=40)]
        perm = rng.permutation(40)
        assert eval_global(net, X, Y) == pytest.approx(eval_global(net, X[perm], Y[perm]))

    def test_eval_global_empty_rejected(self, rng):
        net = make_net(rng)
        with pytest.raises(ValueError):
            eval_global(net, np.zeros((0, 6)), np.zeros((0, 3)))


class TestRunExperiment:
    def test_sdae_keeps_widths_constant(self):
        cfg = with_pool(tiny_config(policy="sdae"))
        result = run_experiment(cfg)
        assert all(r.widths == (8,) for r in result.records)

    def test_single_batch_stream(self):
        cfg = with_pool(tiny_config(policy="sdae", batches=1))
        cfg.pool.capacity = 20
        result = run_experiment(cfg)
        assert len(result.records) == 1
        assert result.records[0].e_lcl is None

    def test_radae_warmup_actions_are_pool(self):
        cfg = with_pool(tiny_config(policy="radae"))
        result = run_experiment(cfg)
        for r in result.records[:3]:
            assert r.action == "pool"

    def test_one_record_per_batch_and_width_accounting(self):
        cfg = with_pool(tiny_config(policy="radae", seed=3, batches=20))
        result = run_experiment(cfg)
        assert [r.batch for r in result.records] == list(range(20))
        for prev, cur in zip(result.records, result.records[1:]):
            assert cur.widths[0] - prev.widths[0] == cur.delta

    def test_midae_runs_and_grows_on_events(self):
        cfg = with_pool(tiny_config(policy="midae", batches=25), capacity=60)
        cfg.midae.pool_threshold = 30
        cfg.midae.delta_init = 3
        cfg.midae.grow_step = 3
        result = run_experiment(cfg)
        events = [r for r in result.records if r.action == "event"]
        assert events, "expected at least one structural event"
        for prev, cur in zip(result.records, result.records[1:]):
            assert cur.widths[0] - prev.widths[0] == cur.delta

    def test_cross_policy_data_identical(self):
        cfg_a = with_pool(tiny_config(policy="sdae", seed=11))
        cfg_b = with_pool(tiny_config(policy="radae", seed=11))
        spec_a, batches_a, test_xa, _ = prepare_data(cfg_a)
        spec_b, batches_b, test_xb, _ = prepare_data(cfg_b)
        assert np.array_equal(test_xa, test_xb)
        for a, b in zip(batches_a, batches_b):
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.labels, b.labels)
        net_a = init_network(6, (8,), 3, np.random.default_rng([11, 1]))
        net_b = init_network(6, (8,), 3, np.random.default_rng([11, 1]))
        assert np.array_equal(net_a.layers[0].W, net_b.layers[0].W)

    def test_same_seed_same_trace(self):
        cfg = with_pool(tiny_config(policy="radae", seed=5))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.widths == rb.widths
            assert ra.l_cls == rb.l_cls
            assert ra.e_glb == rb.e_glb

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    def test_pretraining_is_deterministic_and_takes_effect(self, policy):
        def run(pretrain_batches):
            cfg = with_pool(tiny_config(policy=policy, seed=4, batches=15), capacity=60)
            cfg.midae.pool_threshold = 30
            cfg.nn.pretrain_batches = pretrain_batches
            return comparable(run_experiment(cfg).records)

        warm = run(3)
        assert warm == run(3)
        cold = run(0)
        # the warm batches are evaluated after pre-training on their inputs
        assert warm[0].l_gen != cold[0].l_gen
        assert [r.e_glb for r in warm] != [r.e_glb for r in cold]

    def test_invalid_config_rejected(self):
        cfg = with_pool(tiny_config())
        cfg.policy = "nonsense"
        with pytest.raises(ValueError):
            run_experiment(cfg)


def comparable(records):
    return [replace(r, wall_ms=0.0) for r in records]


class TestSharedForward:
    """Each batch is forwarded once per parameter version."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        real = network.forward

        def counting(net, X, decode=True):
            calls.append(decode)
            return real(net, X, decode)

        for module in (harness, midae, network):
            monkeypatch.setattr(module, "forward", counting)
        return calls

    def test_sdae_forwards_once_per_batch(self, forwards):
        run_experiment(with_pool(tiny_config(policy="sdae", batches=12)))
        assert len(forwards) == 12

    def test_midae_forwards_again_only_after_events(self, forwards):
        cfg = with_pool(tiny_config(policy="midae", batches=25), capacity=60)
        cfg.midae.pool_threshold = 30
        cfg.midae.delta_init = 3
        result = run_experiment(cfg)
        events = sum(r.action == "event" for r in result.records)
        assert events > 0
        # increments also run label-only forwards of the hard pool
        assert forwards.count(True) == 25 + events

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    def test_sharing_changes_no_result(self, monkeypatch, policy):
        cfg = with_pool(tiny_config(policy=policy, seed=3, batches=20), capacity=60)
        cfg.midae.pool_threshold = 30
        cfg.midae.delta_init = 3
        shared = run_experiment(cfg)
        real_finetune, real_step = harness.finetune, harness.merge_inc_step
        # drop every forward the harness hands on, so each step recomputes
        monkeypatch.setattr(harness, "finetune", lambda net, batch, w, fwd: real_finetune(net, batch, w))
        monkeypatch.setattr(harness, "merge_inc_step", lambda *args: real_step(*args[:-1]))
        recomputed = run_experiment(cfg)
        assert comparable(shared.records) == comparable(recomputed.records)
        if policy == "radae":
            actions = {r.action for r in shared.records}
            assert {"pool", "increment", "merge"} <= actions


def one_of_each_policy():
    sdae = with_pool(tiny_config(policy="sdae", batches=20))
    # grow_step 0 keeps each event at one node added and one pair merged, or
    # none once the step halves: the parameters change, the width does not
    midae = with_pool(tiny_config(policy="midae", batches=20))
    midae.midae.pool_threshold, midae.midae.delta_init, midae.midae.grow_step = 30, 1, 0
    # pools, a grow, merges and merges sized to 0
    radae = with_pool(tiny_config(policy="radae", batches=20, delta_scale=30.0))
    return sdae, midae, radae


def finetune_calls(monkeypatch, cfg):
    """Run ``cfg``; return its records and, per ``harness.finetune`` call,
    the batch it trained and whether it came without a forward."""
    calls = []
    real = harness.finetune

    def spying(net, batch, hybrid_weight, fwd):
        calls.append((batch.seq_id, fwd is None))
        return real(net, batch, hybrid_weight, fwd)

    monkeypatch.setattr(harness, "finetune", spying)
    return run_experiment(cfg).records, calls


class TestOneFinetunePerBatch:
    """Every policy fine-tunes each batch at one call site, which alone
    decides whether the batch's forward is still valid."""

    def test_each_batch_is_finetuned_once_in_order(self, monkeypatch):
        for cfg in one_of_each_policy():
            _, calls = finetune_calls(monkeypatch, cfg)
            assert [seq_id for seq_id, _ in calls] == list(range(cfg.stream.batches)), cfg.policy

    def test_forward_is_dropped_exactly_after_structural_edits(self, monkeypatch):
        for cfg in one_of_each_policy():
            records, calls = finetune_calls(monkeypatch, cfg)
            edited = [r.action in ("pool", "event") or r.delta != 0 for r in records]
            assert [dropped for _, dropped in calls] == edited, cfg.policy
            moves = {(r.action, (r.delta > 0) - (r.delta < 0)) for r in records}
            if cfg.policy == "midae":
                assert ("event", 0) in moves
            if cfg.policy == "radae":
                assert {("pool", 0), ("increment", 1), ("merge", -1), ("merge", 0)} <= moves


def one_batch_bytes(cfg):
    spec = cfg.stream
    return spec.batch_size * (spec.dims + spec.classes) * 8


class LiveBatches:
    """Wraps ``harness.iter_stream``: counts the batches drawn and those
    drawn but not yet released, and keeps the peak of the latter.  Also
    notes how many were drawn when set-up ends, at ``init_network``."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.drawn = self.live = self.peak = 0
        self.drawn_at_setup = []
        real_stream, real_init = harness.iter_stream, harness.init_network
        monkeypatch.setattr(harness, "iter_stream", lambda *args: map(self._track, real_stream(*args)))

        def init_network(*args, **kwargs):
            self.drawn_at_setup.append(self.drawn)
            return real_init(*args, **kwargs)

        monkeypatch.setattr(harness, "init_network", init_network)

    def _track(self, batch):
        with self.lock:
            self.drawn += 1
            self.live += 1
            self.peak = max(self.peak, self.live)
        weakref.finalize(batch, self._release)
        return batch

    def _release(self):
        with self.lock:
            self.live -= 1


def producer_threads():
    # the executor names its worker adaptdae-stream_0
    return [t for t in threading.enumerate() if t.name.startswith("adaptdae-stream")]


class TestPrefetch:
    """The batches are drawn on one worker thread, as many ahead as fit in
    ``PREFETCH_BYTES``, and at least one; here the bound is cut to a few
    batches or less, so the loop overlaps the drawing."""

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    def test_a_one_batch_queue_changes_no_trace(self, monkeypatch, policy):
        cfg = with_pool(tiny_config(policy=policy, seed=4, batches=15), capacity=60)
        cfg.midae.pool_threshold = 30
        cfg.nn.pretrain_batches = 3
        buffered = run_experiment(cfg)
        monkeypatch.setattr(harness, "PREFETCH_BYTES", one_batch_bytes(cfg))
        streamed = run_experiment(cfg)
        assert comparable(streamed.records) == comparable(buffered.records)

    @pytest.mark.parametrize(
        "batches_in_bound, at_setup",
        [
            pytest.param(0, 1, id="one-byte"),  # still one batch ahead
            pytest.param(1, 1, id="one-batch"),
            pytest.param(2.5, 2, id="two-and-a-half-batches"),
        ],
    )
    def test_a_run_holds_a_bounded_number_of_batches(self, monkeypatch, batches_in_bound, at_setup):
        cfg = with_pool(tiny_config(policy="sdae", batches=60))
        monkeypatch.setattr(harness, "PREFETCH_BYTES", max(1, int(batches_in_bound * one_batch_bytes(cfg))))
        counter = LiveBatches(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between the threads as often as it can
        try:
            run_experiment(cfg)
        finally:
            sys.setswitchinterval(interval)
        # set-up waited for the batches drawn ahead
        assert counter.drawn_at_setup == [at_setup]
        assert counter.drawn == 60 and counter.live == 0
        # drawn ahead, and the loop's batch and the next
        assert counter.peak <= at_setup + 2

    def test_a_stream_that_fits_is_drawn_in_set_up(self, monkeypatch):
        cfg = with_pool(tiny_config(policy="sdae", batches=30))
        counter = LiveBatches(monkeypatch)
        run_experiment(cfg)
        assert counter.drawn_at_setup == [30]

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    def test_a_finished_run_joins_the_worker(self, monkeypatch, policy):
        cfg = with_pool(tiny_config(policy=policy, batches=30))
        monkeypatch.setattr(harness, "PREFETCH_BYTES", one_batch_bytes(cfg))
        before = threading.active_count()
        run_experiment(cfg)
        assert producer_threads() == []
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "error, failing_at",
        [
            pytest.param(RuntimeError, 5, id="RuntimeError"),
            pytest.param(KeyboardInterrupt, 5, id="KeyboardInterrupt"),
            # the last draw is submitted, and no other is left to come
            pytest.param(RuntimeError, 58, id="RuntimeError-second-to-last"),
        ],
    )
    def test_a_failing_step_stops_and_joins_the_producer(self, monkeypatch, error, failing_at):
        cfg = with_pool(tiny_config(policy="sdae", batches=60))
        monkeypatch.setattr(harness, "PREFETCH_BYTES", one_batch_bytes(cfg))
        before = threading.active_count()
        real_finetune = harness.finetune
        producing = []

        def failing(net, batch, *args):
            if batch.seq_id == failing_at:
                producing.append(bool(producer_threads()))
                raise error("step failed")
            return real_finetune(net, batch, *args)

        monkeypatch.setattr(harness, "finetune", failing)
        with pytest.raises(error, match="step failed"):
            run_experiment(cfg)
        assert producing == [True]  # the producer was still drawing
        assert threading.active_count() == before
        assert producer_threads() == []

    def test_an_error_while_drawing_reaches_the_caller_with_its_type(self, monkeypatch):
        class DrawError(Exception):
            pass

        real = harness.iter_stream

        def failing_stream(*args):
            batches = real(*args)

            def draw():
                yield from itertools.islice(batches, 4)
                raise DrawError("no batch 4")

            return draw()

        monkeypatch.setattr(harness, "iter_stream", failing_stream)
        before = threading.active_count()
        trained = []
        real_finetune = harness.finetune

        def spying(net, batch, *args):
            trained.append(batch.seq_id)
            return real_finetune(net, batch, *args)

        monkeypatch.setattr(harness, "finetune", spying)
        with pytest.raises(DrawError, match="no batch 4"):
            run_experiment(with_pool(tiny_config(policy="sdae", batches=12)))
        # the batches before the error were delivered, in order
        assert trained == [0, 1, 2, 3]
        assert threading.active_count() == before


class TestNumericalBreakdown:
    """Parameters poisoned after a batch trains: the next batch's evaluation
    stops the run, and after the last batch, with none to follow, the
    held-out evaluation does."""

    @pytest.mark.parametrize(
        "poisoned, message",
        [(2, r"^batch 3: .*l_gen=nan"), (11, r"^batch 11: held-out read-out is not finite")],
        ids=["upcoming", "last"],
    )
    def test_non_finite_evaluation_names_the_batch(self, monkeypatch, poisoned, message):
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            if batch.seq_id == poisoned:
                net.layers[0].W[:] = np.nan
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        with pytest.raises(NumericalBreakdown, match=message):
            run_experiment(with_pool(tiny_config(policy="sdae")))

    @pytest.mark.parametrize(
        "poisoned, message",
        [(2, r"^batch 3: .*l_gen=\d.*read-out finite=False"), (11, r"^batch 11: held-out read-out is not finite")],
        ids=["upcoming", "last"],
    )
    def test_non_finite_read_out_names_the_batch(self, monkeypatch, poisoned, message):
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            if batch.seq_id == poisoned:
                net.out_W[:] = np.nan
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        # the encoder and decoder are still finite, so l_gen is too
        with pytest.raises(NumericalBreakdown, match=message):
            run_experiment(with_pool(tiny_config(policy="sdae")))


def check_eval_precedes_training(events):
    """True when every batch is evaluated before anything trains on it."""
    trained = set()
    for kind, seq_id in events:
        if kind == "train":
            trained.add(seq_id)
        elif kind == "eval" and seq_id in trained:
            return False
    return True


class TestEvaluationOrdering:
    def test_run_evaluates_before_training(self, monkeypatch):
        events = []
        real_batch_errors = harness.batch_errors
        real_finetune = harness.finetune

        def spy_errors(net, batch, *args, **kwargs):
            events.append(("eval", batch.seq_id))
            return real_batch_errors(net, batch, *args, **kwargs)

        def spy_finetune(net, batch, w=0.2, *args, **kwargs):
            events.append(("train", batch.seq_id))
            return real_finetune(net, batch, w, *args, **kwargs)

        monkeypatch.setattr(harness, "batch_errors", spy_errors)
        monkeypatch.setattr(harness, "finetune", spy_finetune)
        run_experiment(with_pool(tiny_config(policy="sdae")))
        # every batch is evaluated (as the upcoming batch) before training
        assert check_eval_precedes_training(events)
        assert any(k == "eval" for k, _ in events)

    def test_checker_detects_violations(self):
        # the detector itself must flag a train-then-evaluate sequence
        assert not check_eval_precedes_training([("train", 4), ("eval", 4)])
        assert check_eval_precedes_training([("eval", 4), ("train", 4)])


def trace_records():
    """Random trace rows, one strategy per ``TraceRecord`` field: every float
    column takes -0.0 and infinities, every optional one also None."""
    floats = st.sampled_from([-0.0, math.inf, -math.inf]) | st.floats(allow_nan=False)
    columns = {
        "batch": st.integers(0, 10**6),
        "action": st.sampled_from(["", "pool", "increment", "merge", "event"]),
        "delta": st.integers(-500, 500),
        "widths": st.lists(st.integers(1, 1000), min_size=1, max_size=4).map(tuple),
    }
    for f in fields(TraceRecord):
        if f.name not in columns:
            columns[f.name] = st.none() | floats if "None" in f.type else floats
    return st.builds(TraceRecord, **columns)


class TestSummaryAndReplay:
    def test_replay_matches_in_run_summary(self, tmp_path):
        cfg = with_pool(tiny_config(policy="radae", seed=2, batches=15))
        path = str(tmp_path / "trace.csv")
        result = run_experiment(cfg, out_path=path)
        replayed = replay_summary(path, cfg.summary_last)
        assert replayed.e_lcl_mean == result.summary.e_lcl_mean
        assert replayed.e_lcl_std == result.summary.e_lcl_std
        assert replayed.e_glb_mean == result.summary.e_glb_mean
        assert replayed.e_glb_std == result.summary.e_glb_std

    def test_trace_round_trip_preserves_floats(self, tmp_path):
        cfg = with_pool(tiny_config(policy="radae", seed=4))
        path = str(tmp_path / "trace.csv")
        result = run_experiment(cfg, out_path=path)
        loaded = read_trace(path)
        for a, b in zip(result.records, loaded):
            assert a.batch == b.batch
            assert a.action == b.action
            assert a.widths == b.widths
            assert a.l_cls == b.l_cls
            assert a.e_glb == b.e_glb
            assert (a.e_lcl is None) == (b.e_lcl is None)
            if a.e_lcl is not None:
                assert a.e_lcl == b.e_lcl

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(trace_records(), max_size=12))
    def test_trace_round_trip_is_exact(self, tmp_path, records):
        path = tmp_path / "trace.csv"
        write_trace(str(path), records)
        written = path.read_bytes()
        loaded = read_trace(str(path))
        assert loaded == records
        write_trace(str(path), loaded)
        assert path.read_bytes() == written

    def test_summary_window(self):
        cfg = with_pool(tiny_config(policy="sdae", batches=8))
        result = run_experiment(cfg)
        summary = summarize(result.records, 5)
        tail = result.records[-5:]
        lcl = [r.e_lcl for r in tail if r.e_lcl is not None]
        assert summary.e_lcl_mean == pytest.approx(float(np.mean(lcl)))
        assert summary.window == 5
