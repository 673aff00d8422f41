"""Merge-incremental baseline: structural change when hard examples pile up.

Every batch contributes its above-average-loss examples to the hard pool.
Once the pool overflows its threshold, the network merges a fixed fraction
of node pairs, grows by the current step size, trains only the new nodes on
the hard examples, adapts the step size from the error trend, and starts
the pool over.  The step ends at the structural event: the harness then
fine-tunes the batch with the hybrid objective, as under every policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import DataBatch, Forward, Network, forward, mean_discriminative_loss, per_example_reconstruction_loss
from .network import finetune  # noqa: F401  a module attribute here only: the benchmark wraps it
from .pools import PoolSet, update_hard
from .structure import increment_nodes, merge_nodes


@dataclass
class MiDaeConfig:
    delta_init: int = 30
    grow_step: int = 30
    merge_ratio: float = 0.2
    improve_eps: float = 0.01
    converge_eps: float = 0.001
    pool_threshold: int | None = None  # defaults to pool.capacity

    def validate(self) -> None:
        for key in ("delta_init", "grow_step", "pool_threshold"):
            if (getattr(self, key) or 0) < 0:  # an unset pool_threshold is None
                raise ValueError(f"midae.{key} must be non-negative")
        if not (math.isfinite(self.merge_ratio) and self.merge_ratio >= 0):
            raise ValueError("midae.merge_ratio must be finite and non-negative")
        if not self.improve_eps > self.converge_eps >= 0:
            raise ValueError("midae.improve_eps must exceed midae.converge_eps >= 0")


@dataclass
class MiDaeState:
    """The node step and the last event's objective, under ``cfg``.

    The growth step widens when the batch objective is falling fast
    (relative drop beyond ``cfg.improve_eps``) and halves once it has
    flattened out (relative drop below ``cfg.converge_eps``).
    ``pool_threshold`` is ``cfg.pool_threshold`` resolved.
    """

    cfg: MiDaeConfig
    pool_threshold: int
    delta_nodes: int = field(init=False)
    prev_objective: float | None = None

    def __post_init__(self) -> None:
        self.delta_nodes = self.cfg.delta_init


def update_rule(state: MiDaeState, e_now: float, e_prev: float) -> int:
    """Adapt the node step from the ratio of consecutive objectives."""
    if e_prev <= 0:
        raise ValueError("previous objective must be positive")
    ratio = e_now / e_prev
    if ratio < 1.0 - state.cfg.improve_eps:
        state.delta_nodes += state.cfg.grow_step
    elif ratio > 1.0 - state.cfg.converge_eps:
        state.delta_nodes //= 2
    return state.delta_nodes


@dataclass
class MiDaeEvent:
    added: int
    merged: int


def merge_inc_step(
    net: Network,
    batch: DataBatch,
    pools: PoolSet,
    state: MiDaeState,
    rng: np.random.Generator,
    fwd: Forward | None = None,
) -> MiDaeEvent | None:
    """One streaming step up to the structural event; returns the event if
    one fired.  It does not fine-tune on the batch.

    ``fwd`` is a forward of the batch under the current parameters, if the
    caller has one; the losses read it.
    """
    if fwd is None:
        fwd = forward(net, batch.inputs)
    losses = per_example_reconstruction_loss(net, batch.inputs, fwd)
    objective = mean_discriminative_loss(net, batch, fwd)
    update_hard(pools, batch, losses)
    if pools.hard_count() <= state.pool_threshold:
        return None

    added = state.delta_nodes
    merged = 0
    if added > 0:
        merged = min(math.ceil(state.cfg.merge_ratio * added), net.layers[0].n_hidden // 2)
        merge_nodes(net, merged)
        increment_nodes(net, added, [pools.hard_as_batch(batch.seq_id)], rng)
    if state.prev_objective is not None:
        update_rule(state, objective, state.prev_objective)
    state.prev_objective = objective
    pools.clear_hard()
    return MiDaeEvent(added=added, merged=merged)
