"""The paper's claims over seeds 1..N: acceptance criteria 9 and 10's experiments, repeated.

    python3 tools/claims.py [--root DIR] [--seeds N]

Runs, for each seed 1..N (default 20) and with the library of the
checkout at DIR (default: this one), the experiments that criteria 9 and
10 of ``tests/test_acceptance.py`` run on seeds 1-5: sdae, midae and
radae on ``desk_config``, and radae on ``switch_config``'s switch stream
and its stationary twin.  The configs are DIR's own, loaded from that
test file by path, so they have one home and the gate stays as it is.

Prints one JSON document.  ``seeds`` holds, per seed, each policy's
``e_glb_mean`` and the number of growing increments in batches 150-170
(the gate's window) on the switch and on the stationary stream.
``summary`` holds the sign counts (radae below sdae, radae at or below
midae, midae above sdae, seeds that grew after the switch), the mean
paired differences with their standard errors, and, for each of the
gate's count thresholds on 5 seeds, the chance that 5 seeds drawn at the
measured rate meet it.  ``machine`` is the host and library versions.  One
BLAS thread, as the benchmark uses.  20 seeds take about 25 s on a
2-vCPU host.  To judge a trace-changing change, run it on both checkouts:

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
from pathlib import Path

from trace_digests import ROOT, _load  # tools/ is first on sys.path when run as a script

POLICIES = ("sdae", "midae", "radae")
WINDOW = slice(150, 170)  # criterion 10's batches after the switch
GATE_SEEDS = 5
# criterion: (the count it asserts on GATE_SEEDS seeds, the summary key counted)
GATE = {
    "9: radae < sdae": (4, "radae_below_sdae"),
    "9: radae <= midae": (3, "radae_at_or_below_midae"),
    "10: grew after the switch": (4, "responders"),
}


def growth(records) -> int:
    return sum(r.action == "increment" and r.delta > 0 for r in records[WINDOW])


def seed_row(acceptance, run_experiment, seed: int) -> dict:
    errors = {p: run_experiment(acceptance.desk_config(p, seed)).summary.e_glb_mean for p in POLICIES}
    switched = run_experiment(acceptance.switch_config(seed, "switch")).records
    flat = run_experiment(acceptance.switch_config(seed, "stationary")).records
    return {
        "seed": seed,
        "e_glb_mean": errors,
        "switch_increments": growth(switched),
        "stationary_increments": growth(flat),
    }


def paired(diffs: list[float]) -> dict:
    se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else None
    return {"mean": statistics.fmean(diffs), "se": se}


def at_least(k: int, n: int, p: float) -> float:
    """Chance of k or more successes in n draws at rate p."""
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def summarise(rows: list[dict]) -> dict:
    e = {p: [r["e_glb_mean"][p] for r in rows] for p in POLICIES}
    pairs = list(zip(e["radae"], e["sdae"], e["midae"]))
    switch = [r["switch_increments"] for r in rows]
    counts = {
        "radae_below_sdae": sum(bool(r < s) for r, s, _ in pairs),
        "radae_at_or_below_midae": sum(bool(r <= m) for r, _, m in pairs),
        "midae_above_sdae": sum(bool(m > s) for _, s, m in pairs),
        "responders": sum(c >= 1 for c in switch),
    }
    return {
        "seeds": len(rows),
        **counts,
        "radae_minus_sdae": paired([r - s for r, s, _ in pairs]),
        "radae_minus_midae": paired([r - m for r, _, m in pairs]),
        "midae_minus_sdae": paired([m - s for _, s, m in pairs]),
        "switch_increments_mean": statistics.fmean(switch),
        "stationary_increments_mean": statistics.fmean(r["stationary_increments"] for r in rows),
        "gate_chance": {
            f"{name}: >= {k}/{GATE_SEEDS}": at_least(k, GATE_SEEDS, counts[key] / len(rows))
            for name, (k, key) in GATE.items()
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
