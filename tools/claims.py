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
``summary`` holds the sign counts (radae below sdae, radae at or below
midae, midae above sdae, seeds that grew after the switch), the mean
paired differences with their standard errors, the count of each
``why``, and, for each of the gate's count thresholds on 5 seeds, the
chance that 5 seeds drawn at the measured rate meet it;
``stationary_e_glb`` holds the same sign counts and differences on the
stationary desk stream.  ``machine`` is the host and library versions.
One BLAS thread, as the benchmark uses.  20 seeds take about 90 s on a
2-vCPU host.  To judge a trace-changing change, run
it on both checkouts:

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


def seed_row(acceptance, run_experiment, seed: int) -> dict:
    def errors(mode: str) -> dict:
        return {p: run_experiment(acceptance.desk_config(p, seed, mode=mode)).summary.e_glb_mean for p in POLICIES}

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
    }


def paired(diffs: list[float]) -> dict:
    se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else None
    return {"mean": statistics.fmean(diffs), "se": se}


def at_least(k: int, n: int, p: float) -> float:
    """Chance of k or more successes in n draws at rate p."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def compare(errors: list[dict]) -> tuple[dict, dict]:
    """The sign counts and the mean paired differences over seeds, from
    each seed's ``e_glb_mean`` per policy."""
    pairs = [(e["radae"], e["sdae"], e["midae"]) for e in errors]
    counts = {
        "radae_below_sdae": sum(bool(r < s) for r, s, _ in pairs),
        "radae_at_or_below_midae": sum(bool(r <= m) for r, _, m in pairs),
        "midae_above_sdae": sum(bool(m > s) for _, s, m in pairs),
    }
    differences = {
        "radae_minus_sdae": paired([r - s for r, s, _ in pairs]),
        "radae_minus_midae": paired([r - m for r, _, m in pairs]),
        "midae_minus_sdae": paired([m - s for _, s, m in pairs]),
    }
    return counts, differences


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
