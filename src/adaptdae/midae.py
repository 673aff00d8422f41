"""Merge-incremental baseline: structural change when hard examples pile up.

Every batch contributes its above-average-loss examples to the hard pool.
Once the pool overflows its threshold, the network merges a fixed fraction
of node pairs, grows by the current step size, trains only the new nodes on
the hard examples, adapts the step size from the error trend, and starts
the pool over.  The batch itself is always fine-tuned with the hybrid
objective afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    DataBatch,
    Forward,
    Network,
    finetune,
    forward,
    mean_discriminative_loss,
    per_example_reconstruction_loss,
)
from .pools import PoolSet, update_hard
from .structure import increment_nodes, merge_nodes


@dataclass
class MiDaeState:
    """Step-size state plus the thresholds steering it.

    The growth step widens when the batch objective is falling fast
    (relative drop beyond ``improve_eps``) and halves once it has flattened
    out (relative drop below ``converge_eps``).
    """

    delta_nodes: int = 30
    grow_step: int = 30
    merge_ratio: float = 0.2
    improve_eps: float = 0.01
    converge_eps: float = 0.001
    pool_threshold: int = 10000
    prev_objective: float | None = None

    def __post_init__(self):
        if self.delta_nodes < 0:
            raise ValueError("delta_nodes must be non-negative")
        if not self.improve_eps > self.converge_eps >= 0:
            raise ValueError("improve_eps must exceed converge_eps >= 0")


def update_rule(state: MiDaeState, e_now: float, e_prev: float) -> int:
    """Adapt the node step from the ratio of consecutive objectives."""
    if e_prev <= 0:
        raise ValueError("previous objective must be positive")
    ratio = e_now / e_prev
    if ratio < 1.0 - state.improve_eps:
        state.delta_nodes += state.grow_step
    elif ratio > 1.0 - state.converge_eps:
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
    hybrid_weight: float = 0.2,
    fwd: Forward | None = None,
) -> MiDaeEvent | None:
    """One streaming step; returns the structural event if one fired.

    ``fwd`` is a forward of the batch under the current parameters, if the
    caller has one.  The losses and the fine-tune share it, unless an
    event edits the network in between.
    """
    if fwd is None:
        fwd = forward(net, batch.inputs)
    losses = per_example_reconstruction_loss(net, batch.inputs, fwd)
    objective = mean_discriminative_loss(net, batch, fwd)
    update_hard(pools, batch, losses)

    event = None
    if pools.hard_count() > state.pool_threshold:
        added = state.delta_nodes
        merged = 0
        if added > 0:
            merged = min(math.ceil(state.merge_ratio * added), net.layers[0].n_hidden // 2)
            merge_nodes(net, merged)
            increment_nodes(net, added, [pools.hard_as_batch(batch.seq_id)], rng)
        if state.prev_objective is not None:
            update_rule(state, objective, state.prev_objective)
        state.prev_objective = objective
        pools.clear_hard()
        event = MiDaeEvent(added=added, merged=merged)
        fwd = None

    finetune(net, batch, hybrid_weight, fwd)
    return event
