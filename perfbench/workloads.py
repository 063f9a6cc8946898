"""The benchmark's workloads: which bundled config, which overrides, which
verb, and what a traced run must count.

A workload's inputs are generated from a bundled config plus overrides; the
benchmark seed only sets ``run.seed``.  Path seeds are ``run.seed xor k``,
so ``run.seed = SEED_STRIDE * seed`` keeps the path sets (and the identity
sample at offset 977) of different benchmark seeds disjoint.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

SEED_STRIDE = 1024

# Seeds whose references were recorded but which are kept out of tuning, so
# a later claim can be re-checked on inputs nobody optimised against.
HELD_OUT_SEEDS = (7919,)


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                      # "run" or "study"
    base_config: str               # path relative to the repository root
    overrides: Dict[str, Dict[str, str]]
    paths: int
    workers: int
    artifact: str                  # the report the gate reads
    # traced-run counter -> closed form in the path count P
    counts: Dict[str, Callable[[int], int]] = field(default_factory=dict)


WORKLOADS = {
    # Per-path reductions dominate: entropy_residual and batch_simpson.
    "residual-1d": Workload(
        name="residual-1d", verb="run",
        base_config="configs/stochastic-default.cfg",
        overrides={"run": {"paths": "4"}}, paths=4, workers=2, artifact="report.csv",
        counts={
            "solver.implicit_step.calls": lambda p: 32 * p + 96,
            "diagnostics.entropy_residual.calls": lambda p: 15 * p,
            "entropy.kirchhoff.evals": lambda p: 496 * p,
        }),
    # 1D implicit steps dominate; never enters entropy or quadrature.
    "ladder-1d": Workload(
        name="ladder-1d", verb="study",
        base_config="configs/stochastic-default.cfg",
        overrides={"run": {"paths": "2",
                           "steps_list": "16, 32, 64, 128, 256",
                           "eps_list": "0.2, 0.1, 0.05, 0.025"}},
        paths=2, workers=2, artifact="rates.csv",
        counts={
            "solver.implicit_step.calls": lambda p: 1648 * p,
            "solver.solve_path.calls": lambda p: 15 * p,
        }),
    # 2D steps, where the sparse LU dominates, under the check loops.
    "checks-2d": Workload(
        name="checks-2d", verb="run",
        base_config="configs/contraction.cfg",
        overrides={"model": {"dim": "2"}, "grid": {"cells": "32"},
                   "run": {"paths": "1"},
                   "diagnostics": {
                       "checks": "max_principle, moments, contraction, "
                                 "determinism"}},
        paths=1, workers=2, artifact="report.csv",
        counts={
            "solver.implicit_step.calls": lambda p: 416 * p + 96,
            "solver.solve_path.calls": lambda p: 9 * p + 3,
        }),
}


def config_text(root: str, workload: Workload, seed: int) -> str:
    """The workload's config for one seed, rendered as config text."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    with open(os.path.join(root, workload.base_config)) as fh:
        parser.read_file(fh)
    for section, values in workload.overrides.items():
        for key, value in values.items():
            parser.set(section, key, value)
    parser.set("run", "seed", str(SEED_STRIDE * seed))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def worker_count(workload: Workload) -> int:
    """The workload's pool size, never above the CPUs this process may use."""
    return max(1, min(workload.workers, len(os.sched_getaffinity(0))))


def split_seeds(text: str) -> Tuple[int, ...]:
    """Parse '0-3,7' into (0, 1, 2, 3, 7)."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return tuple(out)
