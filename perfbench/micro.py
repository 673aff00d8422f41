"""Kernel microbenchmarks at shapes taken from the benchmark's workloads.

Each kernel is timed on fixed inputs made from the seed: calls repeat until
they have taken ``budget_s`` seconds (at least three calls), and the median
call time is reported.  The GP kernels run at n = 150 (the desk cap on
``rl.max_observations``) and n = 500 (its default).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from adaptdae import gp, network, structure
from adaptdae.network import DataBatch, init_network


def _median_call_s(fn, budget_s: float) -> float:
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _batch(rng, rows: int, dims: int, classes: int) -> DataBatch:
    labels = np.eye(classes)[rng.integers(0, classes, rows)]
    return DataBatch(seq_id=0, inputs=rng.random((rows, dims)), labels=labels)


def _net(rng, dims: int, widths: tuple[int, ...]):
    return init_network(dims, widths, 3, rng, learning_rate=0.1)


def kernels(seed: int) -> list[tuple[str, str, object, float]]:
    """(metric name, unit, zero-argument call, unit scale) per kernel."""
    rng = np.random.default_rng([seed, 7])
    us, ms = 1e6, 1e3
    desk = _net(rng, 16, (32, 32, 32))
    wide = _net(rng, 784, (32, 32, 32))
    switch = _net(rng, 16, (1024, 32, 32))
    desk_batch = _batch(rng, 100, 16, 3)
    wide_batch = _batch(rng, 1000, 784, 3)
    desk_code = rng.random((100, 32))
    wide_code = rng.random((1000, 32))
    desk_logits = rng.standard_normal((100, 32)) * 4
    wide_logits = rng.standard_normal((1000, 784)) * 4
    desk_rows = rng.standard_normal((64, 16))
    switch_rows = rng.standard_normal((1024, 16))
    out = [
        ("micro.sigmoid.desk_us", "us", lambda: network.sigmoid(desk_logits), us),
        ("micro.sigmoid.wide_us", "us", lambda: network.sigmoid(wide_logits), us),
        ("micro.encode.desk_us", "us", lambda: network.encode(desk.layers[0], desk_batch.inputs), us),
        ("micro.decode.desk_us", "us", lambda: network.decode(desk.layers[0], desk_code), us),
        ("micro.encode.wide_us", "us", lambda: network.encode(wide.layers[0], wide_batch.inputs), us),
        ("micro.decode.wide_us", "us", lambda: network.decode(wide.layers[0], wide_code), us),
        ("micro.network_gradients.desk_us", "us", lambda: network.network_gradients(desk, desk_batch, 0.2), us),
        ("micro.network_gradients.switch_us", "us", lambda: network.network_gradients(switch, desk_batch, 0.2), us),
        ("micro.network_gradients.wide_ms", "ms", lambda: network.network_gradients(wide, wide_batch, 0.2), ms),
        ("micro.closest_pairs.desk_us", "us", lambda: structure.closest_pairs(desk_rows, 8), us),
        ("micro.closest_pairs.switch_ms", "ms", lambda: structure.closest_pairs(switch_rows, 60), ms),
    ]
    for n in (150, 500):
        X = rng.random((n, 3))
        y = rng.standard_normal(n)
        out.append((f"micro.gp.fit.n{n}_ms", "ms", lambda X=X, y=y: gp.fit(X, y, 1.0, 0.5, 0.2), ms))
        out.append(
            (
                f"micro.gp.optimize_hyperparams.n{n}_ms",
                "ms",
                lambda X=X, y=y: gp.optimize_hyperparams(X, y, noise_var=0.2),
                ms,
            )
        )
    return out


def run(seed: int, budget_s: float = 0.2) -> dict[str, dict]:
    """Time every kernel; returns metric name -> {"value", "unit"}."""
    return {
        name: {"value": _median_call_s(call, budget_s) * scale, "unit": unit}
        for name, unit, call, scale in kernels(seed)
    }
