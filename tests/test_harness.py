from dataclasses import replace

import numpy as np
import pytest

import adaptdae.harness as harness
import adaptdae.midae as midae
import adaptdae.network as network
from adaptdae.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    validate_experiment,
)
from adaptdae.controller import ControllerConfig
from adaptdae.harness import (
    NumericalBreakdown,
    eval_global,
    prepare_data,
    read_trace,
    replay_summary,
    run_experiment,
    summarize,
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


class TestNumericalBreakdown:
    def test_non_finite_evaluation_names_the_batch(self, monkeypatch):
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            if batch.seq_id == 2:
                net.layers[0].W[:] = np.nan
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        with pytest.raises(NumericalBreakdown, match=r"^batch 3: .*l_gen=nan"):
            run_experiment(with_pool(tiny_config(policy="sdae")))

    def test_non_finite_read_out_names_the_batch(self, monkeypatch):
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            if batch.seq_id == 2:
                net.out_W[:] = np.nan
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        # the encoder and decoder are still finite, so l_gen is too
        with pytest.raises(NumericalBreakdown, match=r"^batch 3: .*l_gen=\d.*read-out finite=False"):
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

    def test_summary_window(self):
        cfg = with_pool(tiny_config(policy="sdae", batches=8))
        result = run_experiment(cfg)
        summary = summarize(result.records, 5)
        tail = result.records[-5:]
        lcl = [r.e_lcl for r in tail if r.e_lcl is not None]
        assert summary.e_lcl_mean == pytest.approx(float(np.mean(lcl)))
        assert summary.window == 5
