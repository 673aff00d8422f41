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
from .structure import ActionKind

ACTIONS = (ActionKind.POOL, ActionKind.INCREMENT, ActionKind.MERGE)
ROTATION = (ActionKind.INCREMENT, ActionKind.MERGE, ActionKind.POOL)


@dataclass
class ControllerConfig:
    ema_window: int = 30
    warmup_batches: int = 30
    greedy_after: int = 60
    discount: float = 0.9
    q_lr: float = 0.5
    ema_alpha: float | None = None  # defaults to 2 / (ema_window + 1)
    epsilon: float = 0.1
    delta_scale: float | None = None  # size-change coefficient; defaults to half the initial width
    size_target: float = 1.0  # preferred ratio of current to initial width
    size_width: float = 0.5  # spread of the size-change envelope
    size_low: float = 0.5  # reward penalty kicks in below this ratio; decide never merges below it
    size_high: float = 2.0  # and above this one; decide never increments past it
    state_space: int = 3  # 1..4, see compute_state
    short_windows: tuple[int, int, int] = (5, 15, 30)
    refit_interval: int = 10
    max_observations: int = 500
    gp_noise: float = 1e-2

    def alpha(self) -> float:
        if self.ema_alpha is not None:
            return self.ema_alpha
        return 2.0 / (self.ema_window + 1)

    def validate(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must be in (0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.warmup_batches >= self.greedy_after:
            raise ValueError("warmup_batches must precede greedy_after")
        if self.size_low >= self.size_high:
            raise ValueError("size_low must be below size_high")
        if self.state_space not in (1, 2, 3, 4):
            raise ValueError("state_space must be 1..4")
        if not 0.0 < self.alpha() <= 1.0:
            raise ValueError("ema alpha must be in (0, 1]")
        if self.delta_scale is not None and self.delta_scale < 0:
            raise ValueError("delta_scale must be non-negative")


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


@dataclass
class History:
    """Per-batch error and width-ratio records and the latest histogram divergence."""

    gen: list = field(default_factory=list)
    cls: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    kl: float = 0.0

    def record(self, l_gen: float, l_cls: float, width_ratio: float, kl: float) -> None:
        self.gen.append(float(l_gen))
        self.cls.append(float(l_cls))
        self.ratios.append(float(width_ratio))
        self.kl = float(kl)


def ema_update(prev: float, current: float, alpha: float) -> float:
    """One step of an exponential moving average; constants are fixed points."""
    return alpha * current + (1.0 - alpha) * prev


def _ema(values: list, alpha: float) -> float:
    acc = values[0]
    for v in values[1:]:
        acc = ema_update(acc, v, alpha)
    return acc


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
    """Build the state vector for the configured state space.

    Spaces 3 and 4 use one smoothing window; spaces 1 and 2 add the shorter
    windows, and the even-numbered spaces append the histogram divergence.
    Dimensions are 5, 6, 3 and 4 for spaces 1 through 4.
    """
    if not history.cls:
        raise ValueError("state requires at least one recorded batch")
    kl = history.kl if cfg.state_space in (2, 4) else None
    if cfg.state_space in (1, 2):
        m1, m2, m3 = cfg.short_windows
        return RlState(
            ema_gen=_ema(history.gen, 2.0 / (m3 + 1)),
            ema_cls=_ema(history.cls, 2.0 / (m3 + 1)),
            width_ratio=history.ratios[-1],
            kl=kl,
            extra_cls=(_ema(history.cls, 2.0 / (m1 + 1)), _ema(history.cls, 2.0 / (m2 + 1))),
        )
    alpha = cfg.alpha()
    return RlState(
        ema_gen=_ema(history.gen, alpha),
        ema_cls=_ema(history.cls, alpha),
        width_ratio=history.ratios[-1],
        kl=kl,
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
        """Refit every curve whose observations changed, re-tuning the
        kernel when there is enough data."""
        for action in ACTIONS:
            obs = self.observations[action]
            if not obs or not self._stale[action]:
                continue
            X = np.vstack([o[0] for o in obs])
            y = np.asarray([o[1] for o in obs])
            if len(obs) >= 2:
                self.hyperparams[action] = gp.optimize_hyperparams(
                    X, y, noise_var=self.noise_var, initial=self.hyperparams[action]
                )
            sigma_f, length_scale = self.hyperparams[action]
            self.curves[action] = gp.fit(X, y, sigma_f, length_scale, self.noise_var)
            self._stale[action] = False


def q_update(q: QModel, s_prev, a_prev: ActionKind, reward: float, s_new, cfg: ControllerConfig) -> QModel:
    """Temporal-difference update of the utility for the previous action."""
    target = reward + cfg.discount * q.best_value(s_new)
    old = q.predict(a_prev, s_prev)
    value = (1.0 - cfg.q_lr) * old + cfg.q_lr * target
    if q.tabular:
        q.table[(s_prev, a_prev)] = value
    else:
        q.record(a_prev, s_prev, value)
    return q


def select_action(q: QModel, state, n: int, cfg: ControllerConfig, rng: np.random.Generator) -> ActionKind:
    """Pool during warmup, fixed rotation while sampling, then epsilon-greedy."""
    if n < cfg.warmup_batches:
        return ActionKind.POOL
    if n < cfg.greedy_after:
        return ROTATION[(n - cfg.warmup_batches) % 3]
    if rng.random() < cfg.epsilon:
        return ACTIONS[rng.integers(0, len(ACTIONS))]
    preds = [q.predict(a, state) for a in ACTIONS]
    return ACTIONS[int(np.argmax(preds))]


@dataclass
class ControlDecision:
    state: RlState | None
    kind: ActionKind
    delta_inc: int
    delta_mrg: int
    q_values: dict | None = None
    reward: float | None = None


def control_step(
    n: int,
    q: QModel,
    prev_state,
    prev_action,
    history: History,
    cfg: ControllerConfig,
    rng: np.random.Generator,
) -> ControlDecision:
    """One full controller decision for batch ``n``.

    During warmup nothing is learned and the answer is always Pool.  After
    that: compute the state, credit the previous action with the reward
    earned since, pick the next action on schedule, and size it.
    """
    if n < cfg.warmup_batches:
        return ControlDecision(state=None, kind=ActionKind.POOL, delta_inc=0, delta_mrg=0)
    state = compute_state(history, cfg)
    reward = None
    if prev_state is not None:
        reward = compute_reward(history.cls[-1], history.cls[-2], history.ratios[-1], cfg)
        q_update(q, prev_state, prev_action, reward, state, cfg)
        if n < cfg.greedy_after or n % cfg.refit_interval == 0:
            q.refit()
    kind = select_action(q, state, n, cfg, rng)
    delta = 0
    if len(history.cls) >= 2:
        delta = compute_delta(history.cls[-1], history.cls[-2], history.ratios[-1], cfg)
    return ControlDecision(
        state=state,
        kind=kind,
        delta_inc=delta if kind is ActionKind.INCREMENT else 0,
        delta_mrg=delta if kind is ActionKind.MERGE else 0,
        q_values=q.predictions(state),
        reward=reward,
    )


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
        self.history = History()
        self.prev_state = None
        self.prev_action = None
        self.width = initial_width

    def observe(self, l_gen: float, l_cls: float, width: int, kl: float) -> None:
        self.width = width
        self.history.record(l_gen, l_cls, width / self.initial_width, kl)

    def decide(self, n: int) -> ControlDecision:
        """The decision for batch ``n``, its size cut so that the width stays
        inside the ``size_low``..``size_high`` corridor around the initial width."""
        decision = control_step(
            n, self.q, self.prev_state, self.prev_action, self.history, self.cfg, self.rng
        )
        if decision.state is not None:
            self.prev_state = decision.state
            self.prev_action = decision.kind
        ceiling = math.floor(self.cfg.size_high * self.initial_width)
        floor = math.ceil(self.cfg.size_low * self.initial_width)
        decision.delta_inc = min(decision.delta_inc, max(0, ceiling - self.width))
        decision.delta_mrg = min(decision.delta_mrg, self.width // 2, max(0, self.width - floor))
        return decision
