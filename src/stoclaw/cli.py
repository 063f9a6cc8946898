"""Command-line driver.

Verbs: validate (config + structural assumptions), run (Monte-Carlo
experiment with diagnostics), study (dt / viscosity rate tables), replay
(re-execute a run manifest). Exit codes: 0 all checks pass, 1 any failure,
2 invalid input, 3 inconclusive results only.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .harness import convergence_study, replay, run_experiment
from .model import VALIDATION_SAMPLES, InvalidSpecError, validate_assumptions
from .solver import StepFailureError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _status_code(any_failed: bool, any_inconclusive: bool) -> int:
    if any_failed:
        return EXIT_FAIL
    if any_inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _print_report(report) -> None:
    for c in report.checks:
        status = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[c.passed]
        print("%-12s %-28s value=%.6g bound=%.6g" % (
            status, c.name, c.value, c.bound))


def _cmd_validate(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.set("run", "seed", args.seed)
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    rep = validate_assumptions(spec, VALIDATION_SAMPLES,
                               cfg.get("run", "seed"), grid=grid)
    for e in rep.entries:
        print("%-6s %-4s worst ratio %.6g %s" % (
            "PASS" if e.passed else "FAIL", e.name, e.worst_ratio, e.detail))
    trend = "decreasing" if rep.modulus_decreasing else "not decreasing"
    print("modulus trend: %s (required: %s)"
          % (trend, rep.modulus_required))
    return EXIT_PASS if rep.all_passed else EXIT_FAIL


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    report = run_experiment(cfg, out_dir=args.out, workers=args.workers,
                            seed_override=args.seed)
    _print_report(report)
    return _status_code(report.any_failed, report.any_inconclusive)


def _cmd_study(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.set("run", "seed", args.seed)
    reports = convergence_study(cfg, out_dir=args.out, workers=args.workers)
    if not reports:
        print("study needs run.steps_list or run.eps_list", file=sys.stderr)
        return EXIT_INVALID
    failed = inconclusive = False
    for rep in reports:
        status = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[rep.status]
        print("%-12s %-13s slope=%.4g ratios=%s" % (
            status, rep.lane, rep.slope,
            ["%.3g" % r for r in rep.ratios]))
        failed |= rep.status is False
        inconclusive |= rep.status is None
    return _status_code(failed, inconclusive)


def _cmd_replay(args) -> int:
    report = replay(args.manifest, args.out, workers=args.workers)
    _print_report(report)
    return _status_code(report.any_failed, report.any_inconclusive)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stoclaw",
        description="Simulation and verification lab for jump-noise driven "
                    "degenerate parabolic conservation laws.")
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=1,
                        help="processes for the per-path jobs of run, study "
                             "and replay, at least 1 (results are identical "
                             "for any worker count)")
    common.add_argument("--seed", type=int, default=None,
                        help="override run.seed from the config")
    common.add_argument("--out", default=None,
                        help="output directory (default: config value)")

    p_val = sub.add_parser("validate", parents=[common],
                           help="check config and structural assumptions")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    p_run = sub.add_parser("run", parents=[common],
                           help="run the experiment and its diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_study = sub.add_parser("study", parents=[common],
                             help="dt / viscosity convergence study")
    p_study.add_argument("--config", required=True)
    p_study.set_defaults(fn=_cmd_study)

    p_replay = sub.add_parser("replay", parents=[common],
                              help="re-execute a run from its manifest")
    p_replay.add_argument("--manifest", required=True)
    p_replay.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.fn(args)
    except (ConfigError, InvalidSpecError, FileNotFoundError) as err:
        print("error: %s" % (err,), file=sys.stderr)
        return EXIT_INVALID
    except StepFailureError as err:
        print("solver failure: %s" % (err,), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
