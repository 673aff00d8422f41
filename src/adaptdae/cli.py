"""Command line entry points: run experiments, validate configs, replay traces."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import POLICIES, ConfigError, ExperimentConfig, load_config, validate_experiment
from .harness import replay_summary, run_experiment


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adaptdae")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--seed", type=int, nargs="+", help="override the config seed(s)")
    run.add_argument("--policy", choices=POLICIES, nargs="+", help="override the policy (one run per value)")
    run.add_argument("--out", help="trace path; gets a _policy_sSEED suffix for multi-run invocations")
    run.add_argument("--last", type=int, help="summary window override")

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True)

    rep = sub.add_parser("replay", help="recompute summary statistics from a trace")
    rep.add_argument("trace")
    rep.add_argument("--last", type=_positive_int, default=ExperimentConfig.summary_last)
    return parser


def _fmt_summary(tag: str, summary) -> str:
    def pair(mean, std):
        if mean is None:
            return "n/a"
        return f"{mean:.6f}±{std:.6f}"

    return (
        f"{tag} last={summary.window} "
        f"e_lcl={pair(summary.e_lcl_mean, summary.e_lcl_std)} "
        f"e_glb={pair(summary.e_glb_mean, summary.e_glb_std)}"
    )


def _suffixed(path: str, policy: str, seed: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_{policy}_s{seed}{ext}"


def _report_problems(path: str, problems: list[str]) -> int:
    for p in problems:
        print(f"{path}: {p}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.last is not None:
        cfg = replace(cfg, summary_last=args.last)
    seeds = args.seed if args.seed else [cfg.seed]
    policies = args.policy if args.policy else [cfg.policy]
    base_out = args.out if args.out is not None else cfg.out
    runs = [replace(cfg, policy=policy, seed=seed) for policy in policies for seed in seeds]
    # every run's config is checked first, so exit 2 means that nothing ran
    seen = set()
    for run_cfg in runs:
        problems = validate_experiment(run_cfg)
        key = (run_cfg.policy, run_cfg.seed)
        if key in seen:  # a run is deterministic: a repeat would only rewrite its trace
            problems.append(f"policy={key[0]} seed={key[1]} is asked for more than once")
        seen.add(key)
        if problems:
            return _report_problems(args.config, problems)
    for run_cfg in runs:
        out = _suffixed(base_out, run_cfg.policy, run_cfg.seed) if len(runs) > 1 and base_out else base_out
        result = run_experiment(run_cfg, out_path=out)
        where = f" -> {result.trace_path}" if result.trace_path else ""
        print(_fmt_summary(f"policy={run_cfg.policy} seed={run_cfg.seed}", result.summary) + where)
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    problems = validate_experiment(cfg)
    if problems:
        return _report_problems(args.config, problems)
    print(f"{args.config}: ok")
    return 0


def _cmd_replay(args) -> int:
    summary = replay_summary(args.trace, args.last)
    print(_fmt_summary(args.trace, summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_replay(args)
    except ConfigError as err:
        print(f"{getattr(args, 'config', '?')}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as err:
        # config problems were reported above; this is the run itself failing,
        # e.g. a GP factorisation (LinAlgError) or a numerical breakdown
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
