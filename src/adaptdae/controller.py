"""Q-learning size controller with one GPR utility curve per action.

The schedule has three phases over the batch index: pool-only warmup while
error statistics accumulate, a round-robin sweep that gathers utility
samples for every action, and finally epsilon-greedy exploitation of the
fitted curves.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import gp
from .ranges import inside, out_of_range, within
from .structure import ActionKind

ACTIONS = (ActionKind.POOL, ActionKind.INCREMENT, ActionKind.MERGE)
ROTATION = (ActionKind.INCREMENT, ActionKind.MERGE, ActionKind.POOL)
SHORT_WINDOWS = (5, 15, 30)  # the error-smoothing windows of state spaces 1 and 2
RETUNE_EVERY = 5  # a full window's kernel is re-tuned on every this-many-th refit


@dataclass
class ControllerConfig:
    ema_window: int = field(default=30, metadata=within("[1, inf)"))
    warmup_batches: int = 30
    greedy_after: int = 60
    discount: float = field(default=0.9, metadata=within("(0, 1)"))
    q_lr: float = field(default=0.5, metadata=within("[0, 1]"))
    ema_alpha: float | None = field(default=None, metadata=within("(0, 1]"))  # defaults to 2 / (ema_window + 1)
    epsilon: float = field(default=0.1, metadata=within("[0, 1]"))
    # size-change coefficient; defaults to half the initial width
    delta_scale: float | None = field(default=None, metadata=within("[0, inf)"))
    # preferred ratio of current to initial width
    size_target: float = field(default=1.0, metadata=within("(-inf, inf)"))
    size_width: float = field(default=0.5, metadata=within("(0, inf)"))  # spread of the size-change envelope
    # the reward penalty kicks in outside [size_low, size_high]; decide never
    # merges below size_low nor increments past size_high
    size_low: float = field(default=0.5, metadata=within("[0, inf)"))
    size_high: float = field(default=2.0, metadata=within("(-inf, inf)"))
    state_space: int = 3  # 1..4, see compute_state
    refit_interval: int = field(default=10, metadata=within("[1, inf)"))
    max_observations: int = field(default=500, metadata=within("[1, inf)"))
    gp_noise: float = field(default=1e-2, metadata=within("[0, inf)"))

    def alpha(self) -> float:
        if self.ema_alpha is not None:
            return self.ema_alpha
        return 2.0 / (self.ema_window + 1)

    def validate(self) -> None:
        problems = out_of_range(self, "rl.{}".format)
        if inside(self, "warmup_batches", "greedy_after") and self.warmup_batches >= self.greedy_after:
            problems.append("rl.warmup_batches must be below rl.greedy_after")
        if inside(self, "size_low", "size_high") and self.size_low >= self.size_high:
            problems.append("rl.size_low must be below rl.size_high")
        if inside(self, "state_space") and self.state_space not in (1, 2, 3, 4):
            problems.append(f"rl.state_space must be 1, 2, 3 or 4, got {self.state_space}")
        if problems:
            raise ValueError(*problems)


@dataclass(frozen=True)
class RlState:
    """Continuous controller state: smoothed errors plus the size ratio."""

    ema_gen: float
    ema_cls: float
    width_ratio: float
    kl: float | None = None
    extra_cls: tuple[float, ...] = ()

    @property
    def vector(self) -> np.ndarray:
        parts = [self.ema_gen, *self.extra_cls, self.ema_cls, self.width_ratio]
        if self.kl is not None:
            parts.append(self.kl)
        return np.asarray(parts, dtype=np.float64)


def ema_update(prev: float, current: float, alpha: float) -> float:
    """One step of an exponential moving average; constants are fixed points."""
    return alpha * current + (1.0 - alpha) * prev


class History:
    """The stream as the state needs it, in constant space: running
    exponential averages of the errors, the last two label errors, and the
    latest width ratio and histogram divergence.

    State spaces 3 and 4 smooth both errors with ``cfg.alpha()``; spaces 1
    and 2 smooth both with the longest of ``SHORT_WINDOWS`` and the
    label error also with the two shorter ones.  Each average folds the
    records left to right with ``ema_update``, starting from the first.
    """

    def __init__(self, cfg: ControllerConfig):
        if cfg.state_space in (1, 2):
            self.cls_alphas = tuple(2.0 / (m + 1) for m in SHORT_WINDOWS)
        else:
            self.cls_alphas = (cfg.alpha(),)
        self.ema_gen: float | None = None
        self.ema_cls: tuple[float, ...] = ()  # one per entry of cls_alphas
        self.cls: float | None = None
        self.cls_prev: float | None = None
        self.ratio: float | None = None
        self.kl = 0.0

    def record(self, l_gen: float, l_cls: float, width_ratio: float, kl: float) -> None:
        l_gen, l_cls = float(l_gen), float(l_cls)
        if self.ema_gen is None:
            self.ema_gen = l_gen
            self.ema_cls = (l_cls,) * len(self.cls_alphas)
        else:
            self.ema_gen = ema_update(self.ema_gen, l_gen, self.cls_alphas[-1])
            self.ema_cls = tuple(ema_update(acc, l_cls, a) for acc, a in zip(self.ema_cls, self.cls_alphas))
        self.cls_prev, self.cls = self.cls, l_cls
        self.ratio = float(width_ratio)
        self.kl = float(kl)


def kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    """KL divergence between two class histograms, zeros in Q floored."""
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.shape != Q.shape:
        raise ValueError("histograms must have the same length")
    for h in (P, Q):
        if (h < 0).any() or abs(h.sum() - 1.0) > 1e-6:
            raise ValueError("histograms must be non-negative and sum to 1")
    Qf = np.maximum(Q, 1e-10)
    mask = P > 0
    return max(0.0, float(np.sum(P[mask] * np.log(P[mask] / Qf[mask]))))


def window_kl(window: Sequence[np.ndarray]) -> float:
    """Divergence of the newest histogram in ``window`` from the mean of the
    ones before it."""
    if len(window) < 2:
        return 0.0
    *prev, newest = window
    return kl_divergence(newest, np.mean(prev, axis=0))


def compute_state(history: History, cfg: ControllerConfig) -> RlState:
    """Build the state vector for the configured state space from a history
    built for the same one.

    Spaces 3 and 4 use one smoothing window; spaces 1 and 2 add the shorter
    windows, and the even-numbered spaces append the histogram divergence.
    Dimensions are 5, 6, 3 and 4 for spaces 1 through 4.
    """
    if history.ema_gen is None:
        raise ValueError("state requires at least one recorded batch")
    return RlState(
        ema_gen=history.ema_gen,
        ema_cls=history.ema_cls[-1],
        width_ratio=history.ratio,
        kl=history.kl if cfg.state_space in (2, 4) else None,
        extra_cls=history.ema_cls[:-1],
    )


def delta_raw(cls_now: float, cls_prev: float, width_ratio: float, cfg: ControllerConfig) -> float:
    """Size-change magnitude before rounding: a Gaussian envelope around the
    preferred width ratio scaled by the recent error change."""
    if cfg.delta_scale is None:
        raise ValueError("delta_scale has not been resolved for this config")
    envelope = math.exp(-((width_ratio - cfg.size_target) ** 2) / (2.0 * cfg.size_width**2))
    return cfg.delta_scale * envelope * abs(cls_now - cls_prev)


def compute_delta(cls_now: float, cls_prev: float, width_ratio: float, cfg: ControllerConfig) -> int:
    """Node count for a structural action, rounded to the nearest integer.

    Near-converged error rounds to 0 and the action degrades to a no-op, so
    structure only moves when the error is actually changing.
    """
    return int(math.floor(delta_raw(cls_now, cls_prev, width_ratio, cfg) + 0.5))


def error_score(cls_now: float, cls_prev: float) -> float:
    """In [0, 2]: rewards low error and error that is falling."""
    return (1.0 - (cls_now - cls_prev)) * (1.0 - cls_now)


def compute_reward(cls_now: float, cls_prev: float, width_ratio: float, cfg: ControllerConfig) -> float:
    """Error score, penalised when the width ratio leaves its corridor."""
    score = error_score(cls_now, cls_prev)
    if width_ratio < cfg.size_low or width_ratio > cfg.size_high:
        return score - abs(cfg.size_target - width_ratio)
    return score


class QModel:
    """Per-action utility estimates.

    Continuous mode keeps bounded (state, value) observation lists per
    action and fits one GPR curve per action; unseen regions fall back to
    the prior.  Tabular mode keeps a plain dictionary keyed by hashable
    states and exists for small discrete problems and their oracles.
    """

    def __init__(
        self,
        tabular: bool = False,
        max_observations: int = 500,
        noise_var: float = 1e-2,
    ):
        self.tabular = tabular
        self.table: dict = {}
        self.observations = {a: deque(maxlen=max_observations) for a in ACTIONS}
        self.curves = {a: None for a in ACTIONS}
        self.hyperparams = {a: (1.0, 1.0) for a in ACTIONS}
        self.noise_var = noise_var
        self._stale = {a: False for a in ACTIONS}
        self._full_refits = {a: 0 for a in ACTIONS}

    def predict(self, action: ActionKind, state) -> float:
        if self.tabular:
            return self.table.get((state, action), 0.0)
        curve = self.curves[action]
        if curve is None:
            return 0.0
        return gp.predict_mean(curve, state.vector)

    def predictions(self, state) -> dict:
        return {a: self.predict(a, state) for a in ACTIONS}

    def best_value(self, state) -> float:
        return max(self.predict(a, state) for a in ACTIONS)

    def record(self, action: ActionKind, state, value: float) -> None:
        self.observations[action].append((np.asarray(state.vector), float(value)))
        self._stale[action] = True

    def refit(self) -> None:
        """Refit every curve whose observations changed.

        The kernel is re-tuned by ``gp.optimize_hyperparams`` on every refit
        of an action with at least 2 observations while its window fills.
        Once the window is full, only the 1st, 6th, 11th, ... full-window
        refit of that action re-tunes (one in ``RETUNE_EVERY``); the others
        fit with the action's kept hyperparameters.
        """
        for action in ACTIONS:
            obs = self.observations[action]
            if not obs or not self._stale[action]:
                continue
            X = np.vstack([o[0] for o in obs])
            y = np.asarray([o[1] for o in obs])
            full = len(obs) == obs.maxlen
            if len(obs) >= 2 and (not full or self._full_refits[action] % RETUNE_EVERY == 0):
                self.hyperparams[action] = gp.optimize_hyperparams(
                    X, y, noise_var=self.noise_var, initial=self.hyperparams[action]
                )
            self._full_refits[action] += full
            sigma_f, length_scale = self.hyperparams[action]
            self.curves[action] = gp.fit(X, y, sigma_f, length_scale, self.noise_var)
            self._stale[action] = False


def q_update(
    q: QModel,
    s_prev,
    a_prev: ActionKind,
    reward: float,
    s_new,
    cfg: ControllerConfig,
    old: float | None = None,
    best: float | None = None,
) -> QModel:
    """Temporal-difference update of the utility for the previous action.

    ``old`` and ``best`` are ``q``'s current utility of ``a_prev`` in
    ``s_prev`` and its best utility in ``s_new``; a caller that has them
    already passes them in, and they are predicted otherwise.
    """
    if best is None:
        best = q.best_value(s_new)
    if old is None:
        old = q.predict(a_prev, s_prev)
    target = reward + cfg.discount * best
    value = (1.0 - cfg.q_lr) * old + cfg.q_lr * target
    if q.tabular:
        q.table[(s_prev, a_prev)] = value
    else:
        q.record(a_prev, s_prev, value)
    return q


def select_action(q_values: dict, n: int, cfg: ControllerConfig, rng: np.random.Generator) -> ActionKind:
    """Pool during warmup, fixed rotation while sampling, then epsilon-greedy
    over ``q_values``, the utility of each action in the current state."""
    if n < cfg.warmup_batches:
        return ActionKind.POOL
    if n < cfg.greedy_after:
        return ROTATION[(n - cfg.warmup_batches) % 3]
    if rng.random() < cfg.epsilon:
        return ACTIONS[rng.integers(0, len(ACTIONS))]
    return ACTIONS[int(np.argmax([q_values[a] for a in ACTIONS]))]


@dataclass
class ControlDecision:
    state: RlState | None
    kind: ActionKind
    delta: int  # nodes added if positive, pairs merged if negative
    q_values: dict | None = None
    reward: float | None = None


class RlController:
    """Stateful wrapper binding history, the utility model and the schedule."""

    def __init__(self, cfg: ControllerConfig, initial_width: int, rng: np.random.Generator):
        cfg.validate()
        if cfg.delta_scale is None:
            cfg = replace(cfg, delta_scale=0.5 * initial_width)
        self.cfg = cfg
        self.rng = rng
        self.initial_width = initial_width
        self.q = QModel(max_observations=cfg.max_observations, noise_var=cfg.gp_noise)
        self.history = History(cfg)
        self.prev_state = None
        self.prev_action = None
        self.prev_value = None  # the utility the last decision predicted for prev_action
        self.width = initial_width

    def observe(self, l_gen: float, l_cls: float, width: int, kl: float) -> None:
        self.width = width
        self.history.record(l_gen, l_cls, width / self.initial_width, kl)

    def decide(self, n: int) -> ControlDecision:
        """One full controller decision for batch ``n``.

        During warmup nothing is learned and the answer is always Pool.
        After that: compute the state, credit the previous action with the
        reward earned since, refit on schedule, pick the next action and
        size it as a signed ``delta``: nodes added, or minus the pairs
        merged, cut so that the width stays inside the
        ``size_low``..``size_high`` corridor around the initial width.
        """
        cfg, q, h = self.cfg, self.q, self.history
        if n < cfg.warmup_batches:
            return ControlDecision(state=None, kind=ActionKind.POOL, delta=0)
        state = compute_state(h, cfg)
        reward = None
        q_values = q.predictions(state)
        if self.prev_state is not None:
            reward = compute_reward(h.cls, h.cls_prev, h.ratio, cfg)
            # no curve has changed since the last decision predicted prev_value
            q_update(q, self.prev_state, self.prev_action, reward, state, cfg, self.prev_value, max(q_values.values()))
            if n < cfg.greedy_after or n % cfg.refit_interval == 0:
                q.refit()
                q_values = q.predictions(state)
        kind = select_action(q_values, n, cfg, self.rng)
        self.prev_state, self.prev_action, self.prev_value = state, kind, q_values[kind]
        size = 0 if h.cls_prev is None else compute_delta(h.cls, h.cls_prev, h.ratio, cfg)
        delta = 0
        if kind is ActionKind.INCREMENT:
            delta = min(size, max(0, math.floor(cfg.size_high * self.initial_width) - self.width))
        elif kind is ActionKind.MERGE:
            delta = -min(size, self.width // 2, max(0, self.width - math.ceil(cfg.size_low * self.initial_width)))
        return ControlDecision(state=state, kind=kind, delta=delta, q_values=q_values, reward=reward)
