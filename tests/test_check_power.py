"""Check power: a verdict that cannot fail tracks nothing.

Each mutant below breaks one piece of the program through a monkeypatch,
runs a small config, and names the report row and the status that row must
show. A mutant whose row fails is caught by that row. A mutant listed with
"pass" is one that no row catches; the README's check-power table gives the
reason, and the entry pins it so that a change in either direction shows.
"""

import os

import numpy as np
import pytest

from stoclaw import diagnostics
from stoclaw.config import ExperimentConfig
from stoclaw.harness import run_experiment
from stoclaw.noise import JumpPath

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
REAL_MARTINGALE_TERM = diagnostics.martingale_term


def _no_events(path):
    return JumpPath(np.empty(0), np.empty(0), path.horizon, path.intensity)


def martingale_without_jump_sum(path, *args):
    # the real term on a path with no events is its compensator alone
    return REAL_MARTINGALE_TERM(_no_events(path), *args)


def martingale_without_compensator(path, *args):
    # the compensator does not depend on the events: subtracting the
    # event-free term leaves the jump sum alone
    return (REAL_MARTINGALE_TERM(path, *args)
            - REAL_MARTINGALE_TERM(_no_events(path), *args))


def stochastic_default_residual():
    cfg = ExperimentConfig.from_file(
        os.path.join(CONFIG_DIR, "stochastic-default.cfg"))
    cfg.set("grid", "cells", 48)
    cfg.set("run", "steps", 16)
    cfg.set("run", "paths", 4)
    cfg.set("diagnostics", "checks", ("entropy_residual",))
    return cfg


# (mutant name, module, attribute, replacement, config, row, status)
MUTANTS = [
    ("noise-term-without-jump-sum", diagnostics,
     "martingale_term", martingale_without_jump_sum,
     stochastic_default_residual, "entropy_residual", "fail"),
    # not caught: the inequality is a one-sided lower bound, and dropping
    # the compensator raises the residual
    ("noise-term-without-compensator", diagnostics,
     "martingale_term", martingale_without_compensator,
     stochastic_default_residual, "entropy_residual", "pass"),
]


def _row_status(cfg, out_dir, row):
    report = run_experiment(cfg, out_dir=str(out_dir), workers=1)
    (status,) = [r["status"] for r in report.rows() if r["check"] == row]
    return status


def test_rows_pass_without_mutants(tmp_path):
    for config, row in dict.fromkeys((m[4], m[5]) for m in MUTANTS):
        assert _row_status(config(), tmp_path, row) == "pass"


@pytest.mark.parametrize("name, module, attr, mutant, config, row, status",
                         MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_row_status(name, module, attr, mutant, config, row, status,
                           tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, mutant)
    assert _row_status(config(), tmp_path, row) == status, name
