import itertools
import math
import re
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adaptdae.harness as harness
import adaptdae.midae as midae
import adaptdae.network as network
import adaptdae.structure as structure
from adaptdae.config import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    _parse_optional_float,
    _parse_optional_int,
    _parse_widths,
    format_config,
    load_config,
    parse_config,
    validate_experiment,
)
from adaptdae.controller import ControllerConfig
from adaptdae.harness import (
    NumericalBreakdown,
    TraceRecord,
    check_trace_path,
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
from conftest import configs, make_batch, make_net, ranged_keys
from test_network import _collect_grads, _collect_params, masked_sigmoid, peak_in_batch_arrays, plain_network_gradients


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


class TestFormatConfig:
    @settings(max_examples=200, deadline=None)
    @given(cfg=configs())
    def test_parse_reads_back_what_format_writes(self, cfg):
        assert parse_config(format_config(cfg)) == cfg

    def test_desk_config_reparses_equal(self):
        cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"))
        text = format_config(cfg)
        assert parse_config(text) == cfg
        assert text.splitlines()[:2] == ["policy = radae", "seed = 1"]
        assert [line.partition("=")[0].strip() for line in text.splitlines()] == list(_KEYS)


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
    """(keys, defaults, ranges) per row of the README's configuration table;
    a row such as `rl.size_low` / `rl.size_high` names several keys."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | range | meaning |\n| --- | --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines():
        key_cell, default_cell, range_cell = (cell.strip() for cell in line.split("|")[1:4])
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = [cell.strip("`") for cell in default_cell.split(" / ")]
        ranges = re.findall(r"`([^`]+)`", range_cell) or [None]
        rows.append((keys, *(cells * len(keys) if len(cells) == 1 else cells for cells in (defaults, ranges))))
    return rows


class TestKeyTable:
    def test_derived_table_equals_the_hand_written_one(self):
        assert list(_KEYS) == list(HAND_WRITTEN_KEYS)
        for key, entry in HAND_WRITTEN_KEYS.items():
            assert _KEYS[key] == entry, key

    def test_readme_table_names_every_key_once(self):
        keys = [key for row_keys, _, _ in readme_config_rows() for key in row_keys]
        assert sorted(keys) == sorted(_KEYS)

    def test_readme_defaults_are_the_dataclass_defaults(self):
        defaults = ExperimentConfig()
        for keys, cells, _ in readme_config_rows():
            assert len(keys) == len(cells), keys
            for key, cell in zip(keys, cells):
                section, attr, parser = _KEYS[key]
                owner = defaults if section is None else getattr(defaults, section)
                assert parser(cell) == getattr(owner, attr), key

    def test_readme_library_use_block_runs(self, capsys):
        text = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("Summary(")

    def test_readme_ranges_are_the_field_intervals(self):
        ranged = ranged_keys()
        for keys, _, cells in readme_config_rows():
            assert len(keys) == len(cells), keys
            for key, cell in zip(keys, cells):
                assert cell == ranged.get(key, (None,))[0], key


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
        err = eval_global(net, rng.random((n, 4)), labels, 0)
        assert abs(err - 0.75) <= 0.05

    def test_eval_global_order_invariant(self, rng):
        net = make_net(rng)
        X = rng.random((40, 6))
        Y = np.eye(3)[rng.integers(0, 3, size=40)]
        perm = rng.permutation(40)
        assert eval_global(net, X, Y, 0) == pytest.approx(eval_global(net, X[perm], Y[perm], 0))

    def test_eval_global_empty_rejected(self, rng):
        net = make_net(rng)
        with pytest.raises(ValueError):
            eval_global(net, np.zeros((0, 6)), np.zeros((0, 3)), 0)


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

    @pytest.mark.parametrize("via_config", [False, True])
    def test_an_unwritable_trace_raises_before_set_up(self, monkeypatch, tmp_path, via_config):
        built = []
        monkeypatch.setattr(harness, "init_network", lambda *args, **kwargs: built.append(args))
        cfg = with_pool(tiny_config())
        out = str(tmp_path / "no" / "such" / "t.csv")
        cfg.out = out if via_config else ""
        with pytest.raises(FileNotFoundError, match=re.escape(out)):
            run_experiment(cfg, out_path=None if via_config else out)
        assert built == []
        assert list(tmp_path.iterdir()) == []

    def test_the_trace_check_leaves_an_existing_file_as_it_was_and_creates_none(self, monkeypatch, tmp_path):
        class SetUpStopped(Exception):
            pass

        def stop(cfg):
            raise SetUpStopped

        # a run stopped in set-up, after the check, writes no trace
        monkeypatch.setattr(harness, "_open_stream", stop)
        existing = tmp_path / "t.csv"
        existing.write_bytes(b"batch,action\r\n0,pool\n\xff")
        stamp = existing.stat().st_mtime_ns
        check_trace_path(str(existing))
        with pytest.raises(SetUpStopped):
            run_experiment(with_pool(tiny_config()), out_path=str(existing))
        assert existing.read_bytes() == b"batch,action\r\n0,pool\n\xff"
        assert existing.stat().st_mtime_ns == stamp
        check_trace_path(str(tmp_path / "new.csv"))
        with pytest.raises(SetUpStopped):
            run_experiment(with_pool(tiny_config()), out_path=str(tmp_path / "new.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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
        monkeypatch.setattr(harness, "finetune", lambda net, batch, w, fwd, **kw: real_finetune(net, batch, w, **kw))
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

    def spying(net, batch, hybrid_weight, fwd, **kwargs):
        calls.append((batch.seq_id, fwd is None))
        return real(net, batch, hybrid_weight, fwd, **kwargs)

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


def masked_sigmoid_into(v, out=None):
    result = masked_sigmoid(v)
    if out is None:
        return result
    out[...] = result
    return out


def plain_finetune(net, batch, hybrid_weight=0.2, fwd=None):
    # the reference runs its own forward, so ``fwd`` is ignored
    grads, _, _ = plain_network_gradients(net, batch, hybrid_weight)
    for p, g in zip(_collect_params(net), _collect_grads(grads)):
        p[...] = p - net.learning_rate * g
    return net


def growing_midae():
    cfg = with_pool(tiny_config(policy="midae", seed=3, batches=20))
    cfg.midae.pool_threshold, cfg.midae.delta_init = 30, 3
    return cfg


def pretrained(cfg):
    cfg.nn.pretrain_batches = 3
    return cfg


class TestWholeRunAgainstPlainKernels:
    """A run whose sigmoid and fine-tuning step are the plain references
    writes the same trace as one on the in-place kernels."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: one_of_each_policy()[0],
            lambda: one_of_each_policy()[1],
            lambda: one_of_each_policy()[2],
            growing_midae,
            lambda: pretrained(one_of_each_policy()[2]),
        ],
        ids=["sdae", "midae", "radae", "midae-growing", "radae-pretrained"],
    )
    def test_traces_are_equal(self, monkeypatch, make):
        cfg = make()
        kernels = run_experiment(cfg)
        monkeypatch.setattr(network, "sigmoid", masked_sigmoid_into)
        for module in (harness, structure):
            monkeypatch.setattr(module, "finetune", plain_finetune)
        plain = run_experiment(cfg)
        assert comparable(kernels.records) == comparable(plain.records)
        if cfg.policy != "sdae":
            assert {r.action for r in kernels.records} - {"none"}, "no structural change to cover"


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


def worker_threads():
    # the run's one executor names its worker adaptdae-worker_0
    return [t for t in threading.enumerate() if t.name.startswith("adaptdae-worker")]


def wide_config(policy="sdae", batches=10, rows=84):
    """A tiny 784-dimensional stream whose batches, of ``rows`` rows, are
    more than ``network.CE_BLOCK_ELEMENTS`` elements (84 x 784 = 65856)."""
    cfg = with_pool(tiny_config(policy=policy, seed=5, batches=batches, delta_scale=30.0), capacity=2 * rows)
    cfg.stream = replace(cfg.stream, dims=784, batch_size=rows)
    cfg.midae.pool_threshold, cfg.midae.delta_init = 30, 3
    return cfg


class LossHelper:
    """Wraps ``harness.ThreadPoolExecutor``: notes each executor's worker
    count, counts the loss jobs submitted to it by the name of the callable
    and, while ``inline`` is set, runs each of them at once on the caller's
    thread, as the value was computed before the worker took them.  The
    stream's draws, ``next``, are counted apart and go to the worker as
    they are."""

    def __init__(self, monkeypatch):
        self.workers = []
        self.submits = Counter()
        self.draws = 0
        self.inline = False
        real = harness.ThreadPoolExecutor

        def executor(workers, thread_name_prefix):
            self.workers.append(workers)
            pool = real(workers, thread_name_prefix=thread_name_prefix)
            pool.submit = self._submitter(pool.submit)
            return pool

        monkeypatch.setattr(harness, "ThreadPoolExecutor", executor)

    def _submitter(self, submit):
        def counted(fn, *args):
            if fn.__name__ != "_mean_rec_loss":
                assert fn is next
                self.draws += 1
                return submit(fn, *args)
            self.submits[fn.__name__] += 1
            if not self.inline:
                return submit(fn, *args)
            future = Future()
            future.set_result(fn(*args))
            return future

        return counted


class TestLossHelper:
    """On a batch of more than ``CE_BLOCK_ELEMENTS`` elements the upcoming
    batch's ``l_gen`` is summed on the run's worker, the one that draws the
    stream, while the loop goes on, and resolved where it is first read, by
    the fine-tune at the latest."""

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    def test_the_helper_changes_no_trace(self, monkeypatch, policy):
        cfg = wide_config(policy)
        helper = LossHelper(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between the threads as often as it can
        try:
            threaded = run_experiment(cfg)
        finally:
            sys.setswitchinterval(interval)
        # one l_gen sum per batch
        per_run = Counter({"_mean_rec_loss": cfg.stream.batches})
        assert helper.submits == per_run
        assert helper.workers == [1]  # one executor of one worker, which also drew the stream
        assert helper.draws == cfg.stream.batches
        helper.inline = True
        inline = run_experiment(cfg)
        # above every batch's size, the gate sends nothing to the helper:
        # each l_gen is a float from batch_errors, as on desk batches
        monkeypatch.setattr(harness, "CE_BLOCK_ELEMENTS", math.inf)
        unsent = run_experiment(cfg)
        assert helper.submits == per_run + per_run
        assert comparable(threaded.records) == comparable(inline.records) == comparable(unsent.records)
        if policy != "sdae":
            assert {r.action for r in threaded.records} - {"none"}, "no structural change to cover"

    @pytest.mark.parametrize("cfg", one_of_each_policy(), ids=["sdae", "midae", "radae"])
    def test_a_desk_sized_run_submits_nothing(self, monkeypatch, cfg):
        helper = LossHelper(monkeypatch)
        run_experiment(cfg)
        # the wrapped executor drew every batch, and took no loss job
        assert helper.workers == [1] and helper.draws == cfg.stream.batches
        assert helper.submits == {}

    @pytest.mark.parametrize("policy", ["sdae", "radae"])
    def test_a_wide_fine_tune_sees_one_worker_and_runs_one_encoder_backward_on_the_loop(self, monkeypatch, policy):
        cfg = wide_config(policy)
        assert cfg.stream.batch_size * cfg.stream.dims > network.CE_BLOCK_ELEMENTS  # every batch is wide
        assert cfg.nn.hybrid_weight != 0.0
        before = set(threading.enumerate())
        real_finetune, real_backward = harness.finetune, network._encoder_backward
        alive, backward_threads, per_finetune = [], [], []

        def spying(net, batch, *args):
            alive.append([t for t in threading.enumerate() if t not in before])
            start = len(backward_threads)
            real_finetune(net, batch, *args)
            per_finetune.append(len(backward_threads) - start)
            return net

        def noting(*args):
            backward_threads.append(threading.current_thread())
            return real_backward(*args)

        monkeypatch.setattr(harness, "finetune", spying)
        monkeypatch.setattr(network, "_encoder_backward", noting)
        run_experiment(cfg)
        # no thread but the run's one worker was started; each batch's
        # fine-tune ran one encoder backward, and every encoder backward,
        # radae's pool fine-tunes' included, ran on the loop's thread
        assert per_finetune == [1] * cfg.stream.batches
        (worker,) = alive[0]
        assert all(threads == [worker] for threads in alive)
        assert set(backward_threads) == {threading.current_thread()}
        assert not worker.is_alive()


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
        assert worker_threads() == []
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

        def failing(net, batch, *args, **kwargs):
            if batch.seq_id == failing_at:
                producing.append(bool(worker_threads()))
                raise error("step failed")
            return real_finetune(net, batch, *args, **kwargs)

        monkeypatch.setattr(harness, "finetune", failing)
        with pytest.raises(error, match="step failed"):
            run_experiment(cfg)
        assert producing == [True]  # the producer was still drawing
        assert threading.active_count() == before
        assert worker_threads() == []

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

        def spying(net, batch, *args, **kwargs):
            trained.append(batch.seq_id)
            return real_finetune(net, batch, *args, **kwargs)

        monkeypatch.setattr(harness, "finetune", spying)
        with pytest.raises(DrawError, match="no batch 4"):
            run_experiment(with_pool(tiny_config(policy="sdae", batches=12)))
        # the batches before the error were delivered, in order
        assert trained == [0, 1, 2, 3]
        assert threading.active_count() == before

    @pytest.mark.parametrize("ending", ["finished", "draw-error", "breakdown"])
    def test_a_wide_run_joins_its_worker(self, monkeypatch, ending):
        class DrawError(Exception):
            pass

        cfg = wide_config("sdae", batches=12)
        monkeypatch.setattr(harness, "PREFETCH_BYTES", one_batch_bytes(cfg))
        real_stream, real_finetune = harness.iter_stream, harness.finetune

        def failing_stream(*args):
            yield from itertools.islice(real_stream(*args), 6)
            raise DrawError("no batch 6")

        helping = []

        def spying(net, batch, *args, **kwargs):
            helping.append(len(worker_threads()) == 1)
            real_finetune(net, batch, *args, **kwargs)
            if ending == "breakdown" and batch.seq_id == 5:
                net.layers[0].b_rec[:] = np.nan
            return net

        if ending == "draw-error":
            monkeypatch.setattr(harness, "iter_stream", failing_stream)
        monkeypatch.setattr(harness, "finetune", spying)
        before = threading.active_count()
        if ending == "finished":
            run_experiment(cfg)
        else:
            error, message = (DrawError, "no batch 6") if ending == "draw-error" else (NumericalBreakdown, "^batch 6: ")
            with pytest.raises(error, match=message):
                run_experiment(cfg)
        # the one worker ran while the loop trained, and is joined now
        assert helping and all(helping)
        assert threading.active_count() == before
        assert worker_threads() == []


def test_a_784_dim_run_holds_few_batch_arrays(monkeypatch):
    """A run of 1000 x 784 batches holds at its peak the batch it evaluates
    with its forward, one drawn ahead and the one being drawn: 5.04-5.08
    arrays of 1000 x 784 float64 in 16 fresh processes.  The mmap raise's
    block is left out: that one 31 MiB allocation alone reads 5.18 arrays,
    above the loop's peak.  Keeping the trained batch's forward through the
    next evaluation read 7.25; with the stream's batch-sized scratch buffers
    the run read 6.75-7.03, and with the whole-batch cross-entropy
    temporaries, the trained batch kept through the next evaluation and two
    batches drawn ahead as well, 9.64-10.65.  The drawing thread's
    allocations count too, so the bound leaves one array for its timing."""
    monkeypatch.setattr(harness, "_MMAP_THRESHOLD_RAISE", 0)
    cfg = ExperimentConfig(
        policy="sdae",
        seed=1000,
        out="",
        summary_last=6,
        stream=StreamSpec(classes=3, dims=784, batch_size=1000, batches=6, mode="nonstationary"),
        per_class=50,
    )
    cfg.nn.widths = (32, 32, 32)
    assert peak_in_batch_arrays(lambda: run_experiment(cfg), 1000 * 784 * 8) <= 6.08


class TestNumericalBreakdown:
    """Parameters poisoned after a batch trains, on desk-sized batches here
    and on wide ones, which hand their ``l_gen`` to the run's worker, in the
    subclass below: the same poisoning raises the same message and writes
    the same rows on both.  A non-finite read-out stops the run at the next
    batch's evaluation, before the poisoned batch's row; a non-finite
    ``l_gen`` alone stops it where that batch's ``l_gen`` is resolved, after
    the poisoned batch's row.  After the last batch, with none to follow,
    the held-out evaluation stops it."""

    @staticmethod
    def config():
        return with_pool(tiny_config(policy="sdae"))

    def poisoned_run(self, monkeypatch, tmp_path, poisoned, poison, message):
        """Run ``config()`` with ``poison(net)`` applied once batch
        ``poisoned`` has trained; check that the breakdown matches
        ``message`` and return the rows written and the clean run's rows."""
        cfg = self.config()
        assert cfg.stream.batches == 12
        clean = run_experiment(cfg).records
        real_finetune = harness.finetune

        def poisoning(net, batch, *args, **kwargs):
            real_finetune(net, batch, *args, **kwargs)
            if batch.seq_id == poisoned:
                poison(net)
            return net

        monkeypatch.setattr(harness, "finetune", poisoning)
        path = str(tmp_path / "trace.csv")
        with pytest.raises(NumericalBreakdown, match=message):
            run_experiment(cfg, out_path=path)
        written = read_trace(path)
        for r in written:
            assert all(math.isfinite(v) for v in (r.l_gen, r.l_cls, r.e_lcl, r.e_glb))
        return comparable(written), comparable(clean)

    @pytest.mark.parametrize(
        "poisoned, message, rows",
        [
            (2, r"^batch 3: pre-training read-out is not finite$", 2),
            (11, r"^batch 11: held-out read-out is not finite$", 11),
        ],
        ids=["upcoming", "last"],
    )
    def test_non_finite_evaluation_names_the_batch(self, monkeypatch, tmp_path, poisoned, message, rows):
        def encoder(net):
            net.layers[0].W[:] = np.nan

        written, clean = self.poisoned_run(monkeypatch, tmp_path, poisoned, encoder, message)
        assert written == clean[:rows]

    @pytest.mark.parametrize(
        "poisoned, message, rows",
        [
            (2, r"^batch 3: pre-training read-out is not finite$", 2),
            (11, r"^batch 11: held-out read-out is not finite$", 11),
        ],
        ids=["upcoming", "last"],
    )
    def test_non_finite_read_out_names_the_batch(self, monkeypatch, tmp_path, poisoned, message, rows):
        def read_out(net):
            # the encoder and decoder are still finite, so l_gen is too
            net.out_W[:] = np.nan

        written, clean = self.poisoned_run(monkeypatch, tmp_path, poisoned, read_out, message)
        assert written == clean[:rows]

    def test_a_breakdown_seen_only_in_l_gen_names_the_batch(self, monkeypatch, tmp_path):
        def decoder(net):
            # the decoder alone: the read-out and l_cls stay finite
            net.layers[0].b_rec[:] = np.nan

        written, clean = self.poisoned_run(monkeypatch, tmp_path, 3, decoder, r"^batch 4: l_gen=nan is not finite$")
        # batch 4's l_gen is resolved after row 3 is written, while batch 4 trains
        assert written == clean[:4]

    def test_a_failed_run_writes_the_rows_it_finished(self, monkeypatch, tmp_path):
        def encoder(net):
            net.layers[0].W[:] = np.nan

        written, clean = self.poisoned_run(monkeypatch, tmp_path, 5, encoder, r"^batch 6: ")
        # batch 6's evaluation stops the run before batch 5's row is done
        assert written == clean[:5]


class TestNumericalBreakdownWide(TestNumericalBreakdown):
    """The same poisonings on batches of 84 x 784, above
    ``network.CE_BLOCK_ELEMENTS``: same messages, same rows."""

    @staticmethod
    def config():
        cfg = wide_config("sdae", batches=12)
        assert cfg.stream.batch_size * cfg.stream.dims > network.CE_BLOCK_ELEMENTS
        return cfg


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

    @pytest.mark.parametrize("policy", ["sdae", "midae", "radae"])
    @pytest.mark.parametrize(
        "order", [[0, 1, 2, 3, 4, 4, *range(5, 11)], [0, 1, 2, 3, 4, 2, *range(5, 11)]], ids=["repeat", "replay"]
    )
    def test_a_stream_that_hands_a_trained_batch_again_stops_the_run(self, monkeypatch, policy, order):
        real_iter_stream = harness.iter_stream

        def reordered(*args, **kwargs):
            drawn = list(real_iter_stream(*args, **kwargs))
            return iter([drawn[i] for i in order])

        monkeypatch.setattr(harness, "iter_stream", reordered)
        with pytest.raises(AssertionError, match="evaluation must precede training"):
            run_experiment(with_pool(tiny_config(policy=policy, batches=len(order))))

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

    @pytest.mark.parametrize(
        "column", [f.name for f in fields(TraceRecord) if f.type != "str" and not f.type.endswith("| None")]
    )
    def test_blank_cell_in_a_non_optional_column_is_rejected(self, tmp_path, column):
        # a blank e_glb read as None would drop the row from the summary
        cfg = with_pool(tiny_config(policy="sdae", batches=4))
        path = tmp_path / "trace.csv"
        run_experiment(cfg, out_path=str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = ""
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f": row 2, column {column}: ''"):
            read_trace(str(path))

    def test_summary_window(self):
        cfg = with_pool(tiny_config(policy="sdae", batches=8))
        result = run_experiment(cfg)
        summary = summarize(result.records, 5)
        tail = result.records[-5:]
        lcl = [r.e_lcl for r in tail if r.e_lcl is not None]
        assert summary.e_lcl_mean == pytest.approx(float(np.mean(lcl)))
        assert summary.window == 5

    def test_a_missing_global_error_raises_rather_than_shrinking_the_mean(self):
        records = run_experiment(with_pool(tiny_config(policy="sdae", batches=4))).records
        records[-2] = replace(records[-2], e_glb=None)
        with pytest.raises(TypeError):
            summarize(records, 3)
