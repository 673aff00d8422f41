import math
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdae import controller
from adaptdae.controller import (
    ACTIONS,
    SHORT_WINDOWS,
    ControllerConfig,
    History,
    QModel,
    RlController,
    RlState,
    compute_delta,
    compute_reward,
    compute_state,
    delta_raw,
    ema_update,
    error_score,
    kl_divergence,
    q_update,
    select_action,
    window_kl,
)
from adaptdae.structure import ActionKind


def cfg_with(**kwargs):
    base = dict(delta_scale=10.0)
    base.update(kwargs)
    return ControllerConfig(**base)


class TestEma:
    def test_fixed_point(self):
        assert ema_update(0.7, 0.7, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_alpha_one_returns_current(self):
        assert ema_update(0.2, 0.9, 1.0) == 0.9

    def test_one_step(self):
        assert ema_update(0.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-15)


class TestKl:
    def test_equal_uniform(self):
        u = np.full(4, 0.25)
        assert kl_divergence(u, u) == 0.0

    def test_closed_form(self):
        got = kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_non_negative_over_random_histograms(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = rng.random(5)
            q = rng.random(5)
            p /= p.sum()
            q /= q.sum()
            assert kl_divergence(p, q) >= 0.0

    def test_invalid_histogram_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.7, 0.7]), np.array([0.5, 0.5]))


def record_constant(history, n, lg, lc, ratio=1.0, kl=0.0):
    for _ in range(n):
        history.record(lg, lc, ratio, kl)


class TestComputeState:
    def test_constant_errors_are_fixed_points(self):
        history = History(cfg_with())
        record_constant(history, 40, lg=0.8, lc=0.3)
        state = compute_state(history, cfg_with())
        assert state.ema_gen == pytest.approx(0.8, abs=1e-12)
        assert state.ema_cls == pytest.approx(0.3, abs=1e-12)
        assert state.width_ratio == 1.0

    def test_width_ratio_after_growth(self):
        history = History(cfg_with())
        record_constant(history, 5, 0.5, 0.5, ratio=1.0)
        history.record(0.5, 0.5, 1.5, 0.0)
        state = compute_state(history, cfg_with())
        assert state.width_ratio == 1.5

    def test_kl_zero_for_identical_histograms(self):
        kl = window_kl(deque([np.array([0.3, 0.7])] * 10, maxlen=31))
        assert kl == 0.0
        cfg = cfg_with(state_space=4)
        history = History(cfg)
        record_constant(history, 10, 0.5, 0.5, kl=kl)
        state = compute_state(history, cfg)
        assert state.kl == 0.0

    def test_state_carries_the_latest_kl(self):
        for space in (1, 2, 3, 4):
            cfg = cfg_with(state_space=space)
            history = History(cfg)
            history.record(0.5, 0.5, 1.0, 0.25)
            history.record(0.5, 0.5, 1.0, 0.125)
            assert compute_state(history, cfg).kl == (0.125 if space in (2, 4) else None)

    def test_dimensions_per_state_space(self):
        for space, dim in ((1, 5), (2, 6), (3, 3), (4, 4)):
            cfg = cfg_with(state_space=space)
            history = History(cfg)
            record_constant(history, 10, 0.5, 0.5)
            assert compute_state(history, cfg).vector.shape == (dim,)

    def test_ema_matches_hand_fold(self):
        cfg = cfg_with(ema_window=30)
        history = History(cfg)
        values = [0.9, 0.4, 0.7, 0.2]
        for v in values:
            history.record(v, v, 1.0, 0.0)
        alpha = 2.0 / 31.0
        acc = values[0]
        for v in values[1:]:
            acc = alpha * v + (1 - alpha) * acc
        state = compute_state(history, cfg)
        assert state.ema_cls == pytest.approx(acc, abs=1e-15)


class TestDelta:
    def test_converged_error_gives_zero(self):
        assert compute_delta(0.4, 0.4, 1.0, cfg_with()) == 0

    def test_peak_at_target_ratio(self):
        cfg = cfg_with(delta_scale=100.0)
        assert compute_delta(0.5, 0.0, cfg.size_target, cfg) == 50

    def test_envelope_shrinks_off_target(self):
        cfg = cfg_with(delta_scale=100.0)
        at_peak = delta_raw(0.5, 0.0, cfg.size_target, cfg)
        for ratio in (0.2, 0.5, 1.7, 3.0):
            assert delta_raw(0.5, 0.0, ratio, cfg) < at_peak

    def test_monotone_in_error_change(self):
        cfg = cfg_with(delta_scale=40.0)
        diffs = np.linspace(0.0, 1.0, 21)
        values = [delta_raw(0.5 + d / 2, 0.5 - d / 2, 1.0, cfg) for d in diffs]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_small_changes_round_to_noop(self):
        cfg = cfg_with(delta_scale=1.0)
        assert compute_delta(0.41, 0.4, 1.0, cfg) == 0
        assert compute_delta(0.9, 0.2, 1.0, cfg) == 1


class TestReward:
    def test_perfect_classifier_fixed_point(self):
        assert compute_reward(0.0, 0.0, 1.0, cfg_with()) == 1.0

    def test_improvement_arithmetic(self):
        got = compute_reward(0.2, 0.3, 1.0, cfg_with())
        assert got == pytest.approx(1.1 * 0.8, abs=1e-12)

    def test_out_of_corridor_penalty(self):
        cfg = cfg_with(size_low=0.5, size_high=2.0, size_target=1.0)
        ratio = 2.0 + 0.3 + (cfg.size_target - 2.0)  # |target - ratio| = 0.3 -> ratio = 1.3? keep explicit below
        ratio = 1.3
        # inside the corridor: no penalty
        assert compute_reward(0.2, 0.3, ratio, cfg) == pytest.approx(error_score(0.2, 0.3))
        # outside: subtract the distance from the target ratio
        outside = 2.3
        expected = error_score(0.2, 0.3) - abs(cfg.size_target - outside)
        assert compute_reward(0.2, 0.3, outside, cfg) == pytest.approx(expected, abs=1e-12)

    def test_score_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            now, prev = rng.random(2)
            e = error_score(now, prev)
            assert 0.0 <= e <= 2.0
            r = compute_reward(now, prev, float(rng.uniform(0, 3)), cfg_with())
            assert r <= e + 1e-15


class TestQUpdateTabular:
    def test_myopic_limit(self):
        q = QModel(tabular=True)
        cfg = cfg_with(q_lr=1.0, discount=1e-9)
        q.table[(0, ActionKind.POOL)] = 57.0
        q_update(q, 0, ActionKind.POOL, 3.5, 1, cfg)
        assert q.table[(0, ActionKind.POOL)] == pytest.approx(3.5, abs=1e-8)

    def test_zero_learning_rate_keeps_value(self):
        q = QModel(tabular=True)
        cfg = cfg_with(q_lr=0.0)
        q.table[(0, ActionKind.MERGE)] = 2.25
        q_update(q, 0, ActionKind.MERGE, 99.0, 1, cfg)
        assert q.table[(0, ActionKind.MERGE)] == 2.25

    def test_chain_mdp_against_value_iteration(self):
        # deterministic 3-state MDP; sweeping q_update must land on the
        # value-iteration fixed point
        states = (0, 1, 2)
        step = {  # (state, action) -> next state
            (s, a): (s + i + 1) % 3 for s in states for i, a in enumerate(ACTIONS)
        }
        rng = np.random.default_rng(2)
        rewards = {(s, a): float(rng.uniform(-1, 1)) for s in states for a in ACTIONS}
        gamma = 0.9

        expected = {(s, a): 0.0 for s in states for a in ACTIONS}
        for _ in range(2000):
            expected = {
                (s, a): rewards[(s, a)]
                + gamma * max(expected[(step[(s, a)], a2)] for a2 in ACTIONS)
                for s in states
                for a in ACTIONS
            }

        q = QModel(tabular=True)
        cfg = cfg_with(q_lr=0.5, discount=gamma)
        for sweep in range(1000):
            for s in states:
                for a in ACTIONS:
                    q_update(q, s, a, rewards[(s, a)], step[(s, a)], cfg)
        for key, value in expected.items():
            assert q.table[key] == pytest.approx(value, abs=1e-3)


def state_at(cls_value, ratio=1.0):
    return RlState(ema_gen=0.5, ema_cls=cls_value, width_ratio=ratio)


class TestSelectAction:
    def test_warmup_always_pool(self):
        q = QModel()
        cfg = cfg_with(warmup_batches=30, greedy_after=60)
        rng = np.random.default_rng(0)
        for n in range(30):
            assert select_action(q.predictions(state_at(0.5)), n, cfg, rng) is ActionKind.POOL

    def test_round_robin_rotation(self):
        q = QModel()
        cfg = cfg_with(warmup_batches=30, greedy_after=60)
        rng = np.random.default_rng(0)
        expected = (ActionKind.INCREMENT, ActionKind.MERGE, ActionKind.POOL)
        for n in range(30, 60):
            assert select_action(q.predictions(state_at(0.5)), n, cfg, rng) is expected[(n - 30) % 3]

    def test_dominant_curve_always_wins_without_exploration(self):
        q = QModel(noise_var=1e-4)
        rng = np.random.default_rng(3)
        for i in range(8):
            s = state_at(0.1 * i)
            q.record(ActionKind.MERGE, s, 5.0)
            q.record(ActionKind.POOL, s, 0.1)
            q.record(ActionKind.INCREMENT, s, 0.1)
        q.refit()
        cfg = cfg_with(epsilon=0.0, warmup_batches=1, greedy_after=2)
        for i in range(20):
            chosen = select_action(q.predictions(state_at(0.05 * i)), 100 + i, cfg, rng)
            assert chosen is ActionKind.MERGE


class TestRetuneSchedule:
    """A window is re-tuned on every refit while it fills, then on full-window
    refits 1, 1 + RETUNE_EVERY, 1 + 2 * RETUNE_EVERY, ... of its action."""

    @pytest.fixture
    def gp_calls(self, monkeypatch):
        calls = {"search": [], "fit": []}

        def search(X, y, noise_var, initial):
            calls["search"].append(len(X))
            return (initial[0] + 1.0, 0.5)  # a new setting on every search

        def fit(X, y, sigma_f, length_scale, noise_var):
            calls["fit"].append((len(X), sigma_f, length_scale))
            return object()

        monkeypatch.setattr(controller.gp, "optimize_hyperparams", search)
        monkeypatch.setattr(controller.gp, "fit", fit)
        return calls

    @staticmethod
    def searched_refits(q, action, refits, calls):
        """1-based indices of the refits of ``action`` that searched."""
        searched = []
        for i in range(1, refits + 1):
            before = len(calls["search"])
            q.record(action, state_at(0.1 * i), float(i))
            q.refit()
            if len(calls["search"]) > before:
                searched.append(i)
        return searched

    def test_searched_while_filling_then_every_fifth_full_refit(self, gp_calls):
        assert controller.RETUNE_EVERY == 5
        q = QModel(max_observations=4)
        # refit 1 has one observation, 2-3 fill the window, 4 is full-window refit 1
        assert self.searched_refits(q, ActionKind.POOL, 15, gp_calls) == [2, 3, 4, 9, 14]
        assert gp_calls["search"] == [2, 3, 4, 4, 4]
        assert [n for n, _, _ in gp_calls["fit"]] == [1, 2, 3] + [4] * 12

    def test_skipped_refit_fits_with_kept_hyperparams(self, gp_calls):
        q = QModel(max_observations=4)
        self.searched_refits(q, ActionKind.MERGE, 4, gp_calls)
        kept = q.hyperparams[ActionKind.MERGE]
        assert kept == (4.0, 0.5)
        for i in range(4):
            q.record(ActionKind.MERGE, state_at(0.05 * i), 0.0)
            q.refit()
            assert q.hyperparams[ActionKind.MERGE] == kept
            assert gp_calls["fit"][-1] == (4, *kept)
        assert len(gp_calls["search"]) == 3

    def test_counts_are_per_action(self, gp_calls):
        q = QModel(max_observations=4)
        assert self.searched_refits(q, ActionKind.POOL, 6, gp_calls) == [2, 3, 4]
        # POOL has had 3 full-window refits; INCREMENT's count starts at 0
        assert self.searched_refits(q, ActionKind.INCREMENT, 6, gp_calls) == [2, 3, 4]
        assert self.searched_refits(q, ActionKind.POOL, 4, gp_calls) == [3]

    def test_one_observation_is_never_searched(self, gp_calls):
        q = QModel(max_observations=1)
        assert self.searched_refits(q, ActionKind.POOL, 7, gp_calls) == []
        assert gp_calls["fit"] == [(1, 1.0, 1.0)] * 7


def ema_fold(values, alpha):
    """The whole-history left fold the running averages must reproduce."""
    acc = values[0]
    for v in values[1:]:
        acc = alpha * v + (1.0 - alpha) * acc
    return acc


def folded_state(gen, cls, ratios, kl, cfg):
    """The state computed by re-folding every record seen so far."""
    kl = kl if cfg.state_space in (2, 4) else None
    if cfg.state_space in (1, 2):
        m1, m2, m3 = SHORT_WINDOWS
        long = 2.0 / (m3 + 1)
        extra = (ema_fold(cls, 2.0 / (m1 + 1)), ema_fold(cls, 2.0 / (m2 + 1)))
        return RlState(ema_fold(gen, long), ema_fold(cls, long), ratios[-1], kl, extra)
    return RlState(ema_fold(gen, cfg.alpha()), ema_fold(cls, cfg.alpha()), ratios[-1], kl)


class TestRunningHistory:
    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(
            st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0), st.floats(0.1, 3.0), st.floats(0.0, 2.0)),
            min_size=1,
            max_size=80,
        ),
        space=st.integers(1, 4),
        ema_alpha=st.one_of(st.none(), st.floats(0.01, 1.0)),
        ema_window=st.integers(1, 60),
    )
    def test_running_averages_equal_the_left_fold(self, records, space, ema_alpha, ema_window):
        cfg = cfg_with(state_space=space, ema_alpha=ema_alpha, ema_window=ema_window)
        history = History(cfg)
        for i, (lg, lc, ratio, kl) in enumerate(records):
            history.record(lg, lc, ratio, kl)
            seen = records[: i + 1]
            expected = folded_state([r[0] for r in seen], [r[1] for r in seen], [r[2] for r in seen], kl, cfg)
            assert compute_state(history, cfg).vector.tobytes() == expected.vector.tobytes()

    @pytest.mark.parametrize("space", [1, 2, 3, 4])
    def test_size_is_constant_over_a_long_stream(self, space):
        history = History(cfg_with(state_space=space))
        errors = np.random.default_rng(space).random((10_000, 2))
        for lg, lc in errors[:10]:
            history.record(lg, lc, 1.0, 0.0)
        size = len(pickle.dumps(history))
        for lg, lc in errors[10:]:
            history.record(lg, lc, 1.25, 0.5)
        assert len(pickle.dumps(history)) == size
        for value in vars(history).values():
            assert isinstance(value, float) or (isinstance(value, tuple) and len(value) <= 3)
        assert (history.cls, history.cls_prev) == (errors[-1, 1], errors[-2, 1])


class TestControlStep:
    def test_warmup_decision(self):
        ctrl = RlController(cfg_with(), initial_width=10, rng=np.random.default_rng(0))
        decision = ctrl.decide(0)
        assert decision.state is None
        assert decision.kind is ActionKind.POOL
        assert decision.delta == 0

    def test_first_decision_after_warmup_skips_update(self):
        ctrl = RlController(cfg_with(warmup_batches=2, greedy_after=5), initial_width=10, rng=np.random.default_rng(0))
        record_constant(ctrl.history, 3, 0.5, 0.4)
        decision = ctrl.decide(2)
        assert decision.state is not None
        assert decision.reward is None
        assert all(len(ctrl.q.observations[a]) == 0 for a in ACTIONS)

    def test_ten_step_trace_matches_hand_execution(self):
        # drive the controller over a scripted error sequence and recompute
        # every quantity independently at each step
        cfg = cfg_with(
            warmup_batches=2,
            greedy_after=5,
            epsilon=0.0,
            q_lr=0.5,
            discount=0.9,
            refit_interval=1,
            delta_scale=10.0,
        )
        rng_data = np.random.default_rng(9)
        errors = [(float(g), float(c)) for g, c in rng_data.random((10, 2))]

        ctrl = RlController(cfg, initial_width=10, rng=np.random.default_rng(1))
        prev_state = None
        prev_action = None
        obs_counts = {a: 0 for a in ACTIONS}
        rotation = (ActionKind.INCREMENT, ActionKind.MERGE, ActionKind.POOL)

        for n, (lg, lc) in enumerate(errors):
            ctrl.observe(lg, lc, 10, 0.0)
            if n >= cfg.warmup_batches:
                state_now = compute_state(ctrl.history, cfg)
                if prev_state is not None:
                    pre_old = ctrl.q.predict(prev_action, prev_state)
                    pre_best = max(ctrl.q.predict(a, state_now) for a in ACTIONS)
                    lc_prev = errors[n - 1][1]
                    expected_reward = (1 - (lc - lc_prev)) * (1 - lc)
                    expected_value = 0.5 * pre_old + 0.5 * (expected_reward + 0.9 * pre_best)
                else:
                    expected_reward = None
                    expected_value = None

            decision = ctrl.decide(n)

            if n < cfg.warmup_batches:
                assert decision.kind is ActionKind.POOL and decision.state is None
                continue

            assert np.allclose(decision.state.vector, state_now.vector, atol=1e-12)
            if expected_value is not None:
                assert decision.reward == pytest.approx(expected_reward, abs=1e-12)
                newest = ctrl.q.observations[prev_action][-1]
                assert newest[1] == pytest.approx(expected_value, abs=1e-10)
                obs_counts[prev_action] += 1
            if n < cfg.greedy_after:
                assert decision.kind is rotation[(n - cfg.warmup_batches) % 3]
            # the signed size follows the selected action; the 0.5..2.0 corridor
            # around width 10 caps an increment at 10 nodes and a merge at 5
            raw = delta_raw(lc, errors[n - 1][1], 1.0, cfg)
            expected_delta = math.floor(raw + 0.5)
            if decision.kind is ActionKind.INCREMENT:
                assert decision.delta == min(expected_delta, 10)
            elif decision.kind is ActionKind.MERGE:
                assert decision.delta == -min(expected_delta, 5)
            else:
                assert decision.delta == 0
            prev_state = decision.state
            prev_action = decision.kind

        for a in ACTIONS:
            assert len(ctrl.q.observations[a]) == obs_counts[a]

    def test_utilities_evaluated_once_per_decision(self, monkeypatch):
        # 3 for the utilities that the best next value, the choice and the
        # decision share, and 3 more after a refit; the old value is the one
        # the last decision predicted
        cfg = cfg_with(warmup_batches=2, greedy_after=6, refit_interval=2, epsilon=0.0)
        ctrl = RlController(cfg, initial_width=10, rng=np.random.default_rng(0))
        calls = []
        predict = QModel.predict
        monkeypatch.setattr(QModel, "predict", lambda q, a, s: calls.append(a) or predict(q, a, s))
        per_decision = []
        for n, (lg, lc) in enumerate(np.random.default_rng(4).random((14, 2))):
            ctrl.observe(lg, lc, 10, 0.0)
            before = len(calls)
            decision = ctrl.decide(n)
            per_decision.append(len(calls) - before)
        # refits at every batch before greedy_after, then on even batches
        assert per_decision == [0, 0, 3, 6, 6, 6, 6, 3, 6, 3, 6, 3, 6, 3]
        assert decision.q_values == {a: predict(ctrl.q, a, decision.state) for a in ACTIONS}

    def test_reused_utilities_equal_fresh_predictions(self, monkeypatch):
        # decide hands q_update the utilities it predicted already; they must
        # be the bits that q_update would predict itself, with and without a
        # refit since the last decision
        cfg = cfg_with(warmup_batches=2, greedy_after=6, refit_interval=3, epsilon=0.3)
        ctrl = RlController(cfg, initial_width=10, rng=np.random.default_rng(2))
        checked = []

        def checking_update(q, s_prev, a_prev, reward, s_new, cfg, old, best):
            assert old.hex() == q.predict(a_prev, s_prev).hex()
            assert best.hex() == q.best_value(s_new).hex()
            checked.append(q.curves[a_prev] is not None)
            return q_update(q, s_prev, a_prev, reward, s_new, cfg, old, best)

        monkeypatch.setattr(controller, "q_update", checking_update)
        for n, (lg, lc) in enumerate(np.random.default_rng(5).random((30, 2))):
            ctrl.observe(lg, lc, 10, 0.0)
            ctrl.decide(n)
        assert len(checked) == 27 and sum(checked) > 20


class TestConfigValidation:
    def test_rejects_bad_phase_order(self):
        with pytest.raises(ValueError):
            cfg_with(warmup_batches=60, greedy_after=30).validate()

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            cfg_with(discount=1.0).validate()

    def test_rejects_bad_corridor(self):
        with pytest.raises(ValueError):
            cfg_with(size_low=2.0, size_high=0.5).validate()

    # ema_alpha is set, so only the window's own check can reject it
    @pytest.mark.parametrize("key, value", [("refit_interval", 0), ("ema_window", -5), ("max_observations", 0)])
    def test_rejects_counts_below_one(self, key, value):
        with pytest.raises(ValueError, match=key):
            cfg_with(ema_alpha=0.5, **{key: value}).validate()
        cfg_with(ema_alpha=0.5, **{key: 1}).validate()


def window_kl_sliced(histograms, window):
    """The list-slicing form of the windowed divergence: the newest
    histogram against the mean of up to ``window`` predecessors."""
    if len(histograms) < 2:
        return 0.0
    prev = histograms[max(0, len(histograms) - 1 - window) : -1]
    return kl_divergence(histograms[-1], np.mean(prev, axis=0))


@st.composite
def histogram_sequences(draw):
    classes = draw(st.integers(2, 6))
    counts = st.lists(st.integers(0, 20), min_size=classes, max_size=classes).filter(lambda c: sum(c) > 0)
    rows = draw(st.lists(counts, min_size=1, max_size=60))
    return [np.asarray(c, dtype=np.float64) / sum(c) for c in rows]


class TestWindowKl:
    @settings(max_examples=200, deadline=None)
    @given(histograms=histogram_sequences(), window=st.integers(1, 40))
    def test_bounded_window_equals_slicing(self, histograms, window):
        recent = deque(maxlen=window + 1)
        for i, h in enumerate(histograms):
            recent.append(h)
            assert window_kl(recent) == window_kl_sliced(histograms[: i + 1], window)


def corridor_controller(width):
    """A controller started at width 20 that has seen an error swing large
    enough to ask for far more nodes than its corridor allows."""
    cfg = cfg_with(delta_scale=1000.0, size_low=0.8, size_high=1.5, warmup_batches=0, greedy_after=30)
    ctrl = RlController(cfg, initial_width=20, rng=np.random.default_rng(0))
    ctrl.observe(0.5, 0.9, 20, 0.0)
    ctrl.observe(0.5, 0.1, width, 0.0)
    return ctrl


class TestCorridor:
    # w0 = 20 with the 0.8..1.5 corridor: widths 16..30
    @pytest.mark.parametrize("width, room", [(15, 15), (29, 1), (30, 0), (31, 0), (45, 0)])
    def test_increment_stops_at_the_ceiling(self, width, room):
        decision = corridor_controller(width).decide(0)  # first sweep step: increment
        assert decision.kind is ActionKind.INCREMENT
        assert decision.delta == room == max(0, math.floor(1.5 * 20) - width)

    @pytest.mark.parametrize("width, room", [(15, 0), (16, 0), (17, 1), (31, 15), (40, 20), (44, 22)])
    def test_merge_stops_at_the_floor_and_at_half_the_width(self, width, room):
        decision = corridor_controller(width).decide(1)  # second sweep step: merge
        assert decision.kind is ActionKind.MERGE
        assert -decision.delta == room == min(width // 2, max(0, width - math.ceil(0.8 * 20)))

    @settings(max_examples=150, deadline=None)
    @given(
        w0=st.integers(2, 40),
        width=st.integers(1, 90),
        low=st.floats(0.1, 1.0),
        span=st.floats(0.05, 2.0),
        errors=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        n=st.integers(0, 1),
    )
    def test_decide_never_leaves_the_corridor(self, w0, width, low, span, errors, n):
        cfg = cfg_with(delta_scale=5.0 * w0, size_low=low, size_high=low + span, warmup_batches=0, greedy_after=30)
        ctrl = RlController(cfg, initial_width=w0, rng=np.random.default_rng(0))
        ctrl.observe(0.5, errors[0], w0, 0.0)
        ctrl.observe(0.5, errors[1], width, 0.0)
        decision = ctrl.decide(n)
        assert decision.kind is (ActionKind.INCREMENT, ActionKind.MERGE)[n]
        if n == 0:
            assert 0 <= decision.delta <= max(0, math.floor(cfg.size_high * w0) - width)
        else:
            assert 0 <= -decision.delta <= min(width // 2, max(0, width - math.ceil(cfg.size_low * w0)))
