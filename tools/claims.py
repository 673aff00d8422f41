"""The paper's claims over seeds 1..N: acceptance criteria 9 and 10's experiments, repeated.

    python3 tools/claims.py [--root DIR] [--seeds N]

Runs, for each seed 1..N (default 20) and with the library of the
checkout at DIR (default: this one), the experiments that criteria 9 and
10 of ``tests/test_acceptance.py`` run on seeds 1-5: sdae, midae and
radae on ``desk_config``, and radae on ``switch_config``'s switch stream
and its stationary twin.  It also runs the three policies on
``desk_config``'s stationary stream, which no criterion runs: the paper
claims its advantage on stationary data too.  The configs are DIR's own,
loaded from that test file by path, so they have one home and the gate
stays as it is.

Prints one JSON document.  ``seeds`` holds, per seed, each policy's
``e_glb_mean`` on the desk stream and ``stationary_e_glb_mean`` on the
stationary desk stream, and the number of growing increments in batches
150-169 (the gate's window) on the switch and on the stationary stream.
Its ``switch_window`` says what radae did in that window on the switch
stream: the actions chosen, by kind; the increments sized to 0; the
batches on which ``q_increment`` was the largest of the three Q-values
(ties count); and the corridor headroom, ``floor(rl.size_high x initial
width)`` minus the window's largest width.  A seed that did not grow in
the window, a non-responder, also gets a ``why``, by this rule: "corridor
full" if the headroom is 0; otherwise "increment never preferred" if
``q_increment`` was never the largest; otherwise "sized to 0".
It also records what radae's controller buys, without tuning anything:
``action_mix`` counts radae's actions on both desk streams from
``rl.greedy_after`` on (pools, increments and merges that changed the
width, and those sized to 0); ``ablations`` runs radae with pool on every
batch (``rl.warmup_batches = stream.batches``, ``rl.greedy_after =
stream.batches + 1``) and with uniform random actions (``rl.epsilon =
1.0``) on both desk streams and the switch stream; and
``midae_pool_threshold`` runs midae on both desk streams at
``midae.pool_threshold`` 500 and 4500, on each side of the desk setting
(``pool.capacity``, 1500).  Every variant is the gate's config changed by
``dataclasses.replace`` only.
``summary`` holds the sign counts (radae below sdae, radae at or below
midae, midae above sdae, seeds that grew after the switch), the mean
paired differences with their standard errors, the count of each
``why``, and, for each of the gate's count thresholds on 5 seeds, the
chance that 5 seeds drawn at the measured rate meet it;
``stationary_e_glb`` holds the same sign counts and differences on the
stationary desk stream.  Its ``ablations`` and ``midae_pool_threshold``
compare each variant with sdae and with radae or midae on each desk
stream by the same ``compare``, and count each ablation's switch
responders; its ``action_mix`` gives each kind's share of the batches.
``machine`` is the host and library versions.  One BLAS thread, as the
benchmark uses.  20 seeds took 215 s on a 2-vCPU Intel Xeon host
(AVX-512, OpenBLAS's SkylakeX kernels), and the 2-seed smoke test in
``tests/test_tools.py`` 24 s, 15 s more than before the ablations, the
action mix and the midae rows.  To judge a trace-changing change, run it
on both checkouts:

    git archive PARENT | tar -x -C ../parent
    python3 tools/claims.py --root ../parent > parent.json
    python3 tools/claims.py > change.json
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from trace_digests import ROOT, _load  # tools/ is first on sys.path when run as a script

POLICIES = ("sdae", "midae", "radae")
WINDOW = slice(150, 170)  # criterion 10's batches after the switch
ACTIONS = ("pool", "increment", "merge")
WHY = ("corridor full", "increment never preferred", "sized to 0")
GATE_SEEDS = 5
# criterion: (the count it asserts on GATE_SEEDS seeds, the summary key counted)
GATE = {
    "9: radae < sdae": (4, "radae_below_sdae"),
    "9: radae <= midae": (3, "radae_at_or_below_midae"),
    "10: grew after the switch": (4, "responders"),
}


def growth(records) -> int:
    return sum(r.action == "increment" and r.delta > 0 for r in records[WINDOW])


def switch_window(records, cfg) -> dict:
    """What radae did in the window, and, if it did not grow, why: the rule
    is in the module docstring."""
    window = records[WINDOW]
    actions = Counter(r.action for r in window)
    preferred = [r.batch for r in window if r.q_increment >= max(r.q_pool, r.q_merge)]
    headroom = math.floor(cfg.rl.size_high * cfg.nn.widths[0]) - max(r.widths[0] for r in window)
    row = {
        "actions": {kind: actions[kind] for kind in ACTIONS},
        "increments_sized_0": sum(r.action == "increment" and r.delta == 0 for r in window),
        "q_increment_largest": preferred,
        "headroom": headroom,
    }
    if growth(records) == 0:
        row["why"] = WHY[0] if headroom == 0 else WHY[1] if not preferred else WHY[2]
    return row


def pool_always(cfg):
    """radae with pool on every batch: the warm-up covers the whole stream."""
    batches = cfg.stream.batches
    return replace(cfg, rl=replace(cfg.rl, warmup_batches=batches, greedy_after=batches + 1))


def random_actions(cfg):
    """radae choosing uniformly among the three actions once greedy, sized as before."""
    return replace(cfg, rl=replace(cfg.rl, epsilon=1.0))


ABLATIONS = {"pool_always": pool_always, "random_actions": random_actions}
# each desk stream, by the row key of its errors
STREAMS = {"nonstationary": "e_glb_mean", "stationary": "stationary_e_glb_mean"}
# midae's hard-pool threshold on each side of the desk setting, pool.capacity = 1500
POOL_THRESHOLDS = (500, 4500)


def action_mix(records, cfg) -> dict:
    """radae's actions from ``rl.greedy_after`` on: pools, increments and
    merges that changed the width, and those sized to 0."""
    late = records[cfg.rl.greedy_after :]
    return {
        "pool": sum(r.action == "pool" for r in late),
        "width_changed": sum(r.action != "pool" and r.delta != 0 for r in late),
        "sized_0": sum(r.action != "pool" and r.delta == 0 for r in late),
    }


def seed_row(acceptance, run_experiment, seed: int) -> dict:
    desk = {mode: acceptance.desk_config("radae", seed, mode=mode) for mode in STREAMS}
    runs = {mode: {p: run_experiment(replace(cfg, policy=p)) for p in POLICIES} for mode, cfg in desk.items()}

    def errors(mode: str) -> dict:
        return {p: run.summary.e_glb_mean for p, run in runs[mode].items()}

    def varied(change, policy="radae") -> dict:
        """``e_glb_mean`` on both desk streams of ``policy``, with ``change`` made to its config."""
        cfgs = {key: change(replace(desk[mode], policy=policy)) for mode, key in STREAMS.items()}
        return {key: run_experiment(cfg).summary.e_glb_mean for key, cfg in cfgs.items()}

    switch_cfg = acceptance.switch_config(seed, "switch")
    switched = run_experiment(switch_cfg).records
    flat = run_experiment(acceptance.switch_config(seed, "stationary")).records
    return {
        "seed": seed,
        "e_glb_mean": errors("nonstationary"),
        "switch_increments": growth(switched),
        "stationary_increments": growth(flat),
        "stationary_e_glb_mean": errors("stationary"),
        "switch_window": switch_window(switched, switch_cfg),
        "action_mix": {mode: action_mix(runs[mode]["radae"].records, cfg) for mode, cfg in desk.items()},
        "ablations": {
            name: {**varied(change), "switch_increments": growth(run_experiment(change(switch_cfg)).records)}
            for name, change in ABLATIONS.items()
        },
        "midae_pool_threshold": {
            str(k): varied(lambda cfg: replace(cfg, midae=replace(cfg.midae, pool_threshold=k)), "midae")
            for k in POOL_THRESHOLDS
        },
    }


def paired(diffs: list[float]) -> dict:
    se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else None
    return {"mean": statistics.fmean(diffs), "se": se}


def at_least(k: int, n: int, p: float) -> float:
    """Chance of k or more successes in n draws at rate p."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def compare(errors: list[dict], a: str = "radae", b: str = "sdae", c: str = "midae") -> tuple[dict, dict]:
    """The sign counts and the mean paired differences over seeds, from
    each seed's ``e_glb_mean`` by name: ``a`` against ``b`` and ``c``, and
    ``c`` against ``b``."""
    pairs = [(e[a], e[b], e[c]) for e in errors]
    counts = {
        f"{a}_below_{b}": sum(bool(r < s) for r, s, _ in pairs),
        f"{a}_at_or_below_{c}": sum(bool(r <= m) for r, _, m in pairs),
        f"{c}_above_{b}": sum(bool(m > s) for _, s, m in pairs),
    }
    differences = {
        f"{a}_minus_{b}": paired([r - s for r, s, _ in pairs]),
        f"{a}_minus_{c}": paired([r - m for r, _, m in pairs]),
        f"{c}_minus_{b}": paired([m - s for _, s, m in pairs]),
    }
    return counts, differences


def versus(rows: list[dict], variant: str, errors: list[dict], reference: str) -> dict:
    """``variant``, with ``errors`` its per-seed rows, against sdae and
    ``reference`` on each desk stream, by ``compare``."""
    out = {}
    for stream, key in STREAMS.items():
        seeds = [{**r[key], variant: e[key]} for r, e in zip(rows, errors)]
        counts, differences = compare(seeds, variant, "sdae", reference)
        out[stream] = {k: v for k, v in {**counts, **differences}.items() if k.startswith(variant)}
    return out


def mix_shares(mixes: list[dict]) -> dict:
    """Each kind's share of all the seeds' batches in ``mixes``."""
    total = sum(sum(mix.values()) for mix in mixes)
    return {kind: sum(mix[kind] for mix in mixes) / total for kind in mixes[0]}


def ablation(rows: list[dict], name: str) -> dict:
    """The ablation ``name`` against sdae and radae, and its switch responders."""
    runs = [r["ablations"][name] for r in rows]
    switch = [run["switch_increments"] for run in runs]
    return {
        **versus(rows, name, runs, "radae"),
        "responders": sum(c >= 1 for c in switch),
        "switch_increments_mean": statistics.fmean(switch),
    }


def summarise(rows: list[dict]) -> dict:
    counts, differences = compare([r["e_glb_mean"] for r in rows])
    switch = [r["switch_increments"] for r in rows]
    counts["responders"] = sum(c >= 1 for c in switch)
    why = Counter(r["switch_window"].get("why") for r in rows)
    stationary_counts, stationary_differences = compare([r["stationary_e_glb_mean"] for r in rows])
    return {
        "seeds": len(rows),
        **counts,
        **differences,
        "switch_increments_mean": statistics.fmean(switch),
        "stationary_increments_mean": statistics.fmean(r["stationary_increments"] for r in rows),
        "gate_chance": {
            f"{name}: >= {k}/{GATE_SEEDS}": at_least(k, GATE_SEEDS, counts[key] / len(rows))
            for name, (k, key) in GATE.items()
        },
        "stationary_e_glb": {**stationary_counts, **stationary_differences},
        "why": {reason: why[reason] for reason in WHY},
        "ablations": {name: ablation(rows, name) for name in ABLATIONS},
        "action_mix": {stream: mix_shares([r["action_mix"][stream] for r in rows]) for stream in STREAMS},
        "midae_pool_threshold": {
            str(k): versus(rows, f"midae_{k}", [r["midae_pool_threshold"][str(k)] for r in rows], "midae")
            for k in POOL_THRESHOLDS
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose library and gate configs run")
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 1..N")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    root = args.root.resolve()
    # first: it sets the BLAS thread count before numpy loads and puts root's src/ first
    bench = _load(root / "perfbench" / "run.py", "perfbench_run")
    acceptance = _load(root / "tests" / "test_acceptance.py", "claims_acceptance")
    import adaptdae
    from adaptdae.harness import run_experiment

    if not Path(adaptdae.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"adaptdae loaded from {adaptdae.__file__}, not from {root}")

    rows = [seed_row(acceptance, run_experiment, seed) for seed in range(1, args.seeds + 1)]
    report = {"machine": bench.environment(), "summary": summarise(rows), "seeds": rows}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
