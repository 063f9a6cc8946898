"""Command-line driver.

Verbs: validate (config + the assumption rows of run), run (Monte-Carlo
experiment with diagnostics), study (dt / viscosity rate tables), replay
(re-execute a run manifest). Every verdict is the sign of a margin, and the
exit code comes from one list of them: 0 all pass, 1 any failure, 2 invalid
input, 3 inconclusive results only.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .diagnostics import STATUS_TEXT
from .harness import (assumption_rows, convergence_study, replay,
                      resolve_problem, run_experiment)
from .model import InvalidSpecError
from .solver import StepFailureError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _status_code(statuses) -> int:
    statuses = set(statuses)  # True pass, False fail, None inconclusive
    if False in statuses:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if None in statuses else EXIT_PASS


def _print_report(checks) -> int:
    for c in checks:
        print("%-12s %-28s value=%.6g bound=%.6g" % (
            STATUS_TEXT[c.passed].upper(), c.name, c.value, c.bound))
    return _status_code(c.passed for c in checks)


def _config(args) -> ExperimentConfig:
    """The --config file with --seed applied, checked as a whole."""
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.set("run", "seed", args.seed)
        cfg.validate()
    return cfg


def _cmd_validate(args) -> int:
    cfg = _config(args)
    spec, grid = resolve_problem(cfg)
    return _print_report(assumption_rows(cfg, spec, grid))


def _cmd_run(args) -> int:
    return _print_report(run_experiment(_config(args), out_dir=args.out,
                                        workers=args.workers).checks)


def _cmd_study(args) -> int:
    reports = convergence_study(_config(args), out_dir=args.out,
                                workers=args.workers)
    for rep in reports:
        print("%-12s %-13s slope=%.4g ratios=%s" % (
            STATUS_TEXT[rep.passed].upper(), rep.lane, rep.slope,
            ["%.3g" % r for r in rep.ratios]))
    return _status_code(rep.passed for rep in reports)


def _cmd_replay(args) -> int:
    return _print_report(replay(args.manifest, args.out,
                                workers=args.workers).checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stoclaw",
        description="Simulation and verification lab for jump-noise driven "
                    "degenerate parabolic conservation laws.")
    sub = parser.add_subparsers(dest="verb", required=True)

    # each verb takes only the flags it reads
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="override run.seed from the config")
    pooled = argparse.ArgumentParser(add_help=False)
    pooled.add_argument("--workers", type=int, default=1,
                        help="processes for the (path, lane) jobs, at least 1 "
                             "(results are identical for any worker count)")
    pooled.add_argument("--out", default=None,
                        help="output directory (default: config value)")

    p_val = sub.add_parser("validate", parents=[seeded],
                           help="check config and structural assumptions")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    p_run = sub.add_parser("run", parents=[seeded, pooled],
                           help="run the experiment and its diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_study = sub.add_parser("study", parents=[seeded, pooled],
                             help="dt / viscosity convergence study")
    p_study.add_argument("--config", required=True)
    p_study.set_defaults(fn=_cmd_study)

    p_replay = sub.add_parser("replay", parents=[pooled],
                              help="re-execute a run from its manifest")
    p_replay.add_argument("--manifest", required=True)
    p_replay.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.fn(args)
    except (ConfigError, InvalidSpecError) as err:
        print("error: %s" % (err,), file=sys.stderr)
        return EXIT_INVALID
    except StepFailureError as err:
        print("solver failure: %s" % (err,), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
