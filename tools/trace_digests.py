"""Trace digests of a fixed set of 38 configs: a refactor's "traces unchanged" check.

    python3 tools/trace_digests.py [--root DIR]

Runs every config of the set, one after another in this process, with the
library of the checkout at DIR (default: this one), and prints one
``name digest`` line per config.  A digest is the sha256 of the trace with
its ``wall_ms`` column dropped, as ``perfbench/child.py`` computes it.  Two
configs with one digest cover the same behaviour twice, so the tool names
them and exits 1 after printing every line.  To check that a change leaves
every trace as it was, run it on both checkouts and compare:

    git archive PARENT | tar -x -C ../parent
    python3 tools/trace_digests.py --root ../parent > parent.txt
    python3 tools/trace_digests.py > change.txt
    diff parent.txt change.txt

The set is built from DIR's ``configs/desk.cfg`` and ``perfbench/run.py``:
desk seeds 1-3 under every policy; radae at ``rl.state_space`` 1, 2 and 4;
radae with ``rl.ema_alpha = none`` in spaces 3 and 4, the only ones that
read it; radae in a tight size corridor at seeds 1 and 2; radae with the
controller's defaults (desk.cfg without its ``rl.*`` lines) in state
spaces 3 and 1; radae and midae on 784-dimensional desk batches, a
stream larger than the harness's ``PREFETCH_BYTES``; every benchmark workload
at sub-seeds 1000 and 1001; sdae on four batches of ``sdae-wide``'s
1000 x 784, whose ``l_gen`` the harness sums on its worker; every policy with pre-training, with a
one-layer net and with the label loss alone; radae on a stationary stream;
and radae with a diverse pool small enough to evict.  One BLAS thread, as
the benchmark uses.  A full pass takes about 20 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POLICIES = ("sdae", "midae", "radae")


def _load(path: Path, name: str):
    # perfbench's modules put their own checkout's src/ first on sys.path;
    # run.py's dataclasses need their module registered
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trace_configs(root: Path = ROOT) -> dict[str, str]:
    """name -> config text, for the checkout at ``root``."""
    bench = _load(root / "perfbench" / "run.py", "perfbench_run")
    desk = (root / "configs" / "desk.cfg").read_text(encoding="utf-8")
    no_rl = "".join(line for line in desk.splitlines(keepends=True) if not line.startswith("rl."))

    def cfg(policy: str, seed: int, *lines: str, base: str = desk) -> str:
        # later lines override desk.cfg's
        return base + "".join(f"{line}\n" for line in (f"policy = {policy}", f"seed = {seed}", *lines))

    configs = {f"desk-{p}-s{s}": cfg(p, s) for s in (1, 2, 3) for p in POLICIES}
    for space in (1, 2, 4):
        configs[f"radae-space{space}"] = cfg("radae", 1, f"rl.state_space = {space}")
    for space in (3, 4):
        configs[f"radae-space{space}-ema-none"] = cfg("radae", 1, f"rl.state_space = {space}", "rl.ema_alpha = none")
    for s in (1, 2):
        configs[f"radae-tight-s{s}"] = cfg("radae", s, "rl.delta_scale = 60", "rl.size_low = 0.9", "rl.size_high = 1.3")
    for space in (3, 1):
        configs[f"radae-rl-defaults-space{space}"] = cfg("radae", 1, f"rl.state_space = {space}", base=no_rl)
    # streams larger than PREFETCH_BYTES, so that the loop trains while the
    # harness is still drawing batches, under the two policies that keep
    # batches in pools
    for p in ("radae", "midae"):
        configs[f"desk-{p}-wide"] = cfg(p, 1, "stream.dims = 784")
    for workload in bench.WORKLOADS:
        for s in (1000, 1001):
            configs[f"{workload}-{s}"] = bench.config_text(workload, s)
    configs["sdae-wide-4-batches"] = cfg(
        "sdae", 1, "stream.dims = 784", "stream.batch_size = 1000", "stream.batches = 4", "summary_last = 4"
    )
    for tag, line in (("pretrain5", "nn.pretrain_batches = 5"), ("width24", "nn.widths = 24"), ("hybrid0", "nn.hybrid_weight = 0")):
        for p in POLICIES:
            configs[f"desk-{p}-{tag}"] = cfg(p, 1, line)
    # no config above reaches the stationary ratio schedule or a diverse-pool eviction
    configs["desk-radae-stationary"] = cfg("radae", 1, "stream.mode = stationary")
    configs["radae-small-pool"] = cfg("radae", 1, "pool.capacity = 300", "pool.distance_threshold = 0.1")
    return configs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose library runs the configs")
    root = parser.parse_args(argv).root.resolve()
    configs = trace_configs(root)  # first: it sets the BLAS thread count before numpy loads
    trace_digest = _load(root / "perfbench" / "child.py", "perfbench_child").trace_digest
    import adaptdae
    from adaptdae.config import parse_config, validate_experiment
    from adaptdae.harness import run_experiment

    if not Path(adaptdae.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"adaptdae loaded from {adaptdae.__file__}, not from {root}")

    by_digest: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as work:
        for name, text in configs.items():
            cfg = parse_config(text)
            problems = validate_experiment(cfg)
            if problems:
                raise SystemExit(f"{name}: {'; '.join(problems)}")
            out = str(Path(work) / f"{name}.csv")
            run_experiment(cfg, out_path=out)
            digest = trace_digest(out)
            by_digest.setdefault(digest, []).append(name)
            print(name, digest, flush=True)
    repeats = [names for names in by_digest.values() if len(names) > 1]
    for names in repeats:
        print(f"equal digests: {' '.join(names)}", file=sys.stderr)
    return 1 if repeats else 0


if __name__ == "__main__":
    sys.exit(main())
