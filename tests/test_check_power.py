"""Check power: a verdict that cannot fail tracks nothing.

Each mutant below breaks one piece of the program through a monkeypatch,
runs a small config, and names the report row and the status that row must
show. A mutant whose row fails is caught by that row. A mutant listed with
"pass" is one that no row catches; the README's check-power table gives the
reason, and the entry pins it so that a change in either direction shows.
A mutant of the step itself is caught by an exact oracle of the solver
tests instead of a report row.
"""

import csv
import dataclasses
import os

import numpy as np
import pytest

from stoclaw import diagnostics, harness, solver
from stoclaw.config import ExperimentConfig
from stoclaw.harness import run_experiment
from stoclaw.noise import JumpPath
from test_solver import BARENBLATT_LADDERS, barenblatt_orders

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
REAL_MARTINGALE_TERM = diagnostics.martingale_term
REAL_COMPENSATED_INCREMENT = solver.compensated_increment
REAL_STEP_OPERATOR = solver._step_operator


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


def increment_without_compensator(path, *args, **kwargs):
    # as above: the event-free increment is the compensator alone
    return (REAL_COMPENSATED_INCREMENT(path, *args, **kwargs)
            - REAL_COMPENSATED_INCREMENT(_no_events(path), *args, **kwargs))


def one_seed_for_every_path(base, k):
    return base


def _bundled(name, overrides):
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name + ".cfg"))
    for (section, key), value in overrides.items():
        cfg.set(section, key, value)
    return cfg


def stochastic_default_residual():
    return _bundled("stochastic-default", {
        ("grid", "cells"): 48, ("run", "steps"): 16, ("run", "paths"): 4,
        ("diagnostics", "checks"): ("entropy_residual",)})


def linear_smoke_isometry():
    return _bundled("linear-smoke", {
        ("diagnostics", "checks"): ("isometry",),
        ("diagnostics", "isometry_paths"): 200})


def moments_linear_p2():
    # u0 and g are constant in space, so the cell count does not change the
    # moments; the row needs the bundled 400 paths and 32 steps to catch
    return _bundled("moments-linear", {
        ("grid", "cells"): 4, ("run", "steps"): 32, ("run", "paths"): 400,
        ("diagnostics", "checks"): ("moments",),
        ("diagnostics", "moment_orders"): (2,)})


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
    ("increment-without-compensator", solver,
     "compensated_increment", increment_without_compensator,
     moments_linear_p2, "moment_p2", "fail"),
    ("one-seed-for-every-path", harness,
     "path_seed", one_seed_for_every_path,
     linear_smoke_isometry, "isometry", "fail"),
]


def _row_status(cfg, out_dir, row):
    run_experiment(cfg, out_dir=str(out_dir), workers=1)
    with open(out_dir / "report.csv", newline="") as fh:
        (status,) = [r["status"] for r in csv.DictReader(fh)
                     if r["check"] == row]
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


def lap_phi_halved(u, spec, grid):
    # the residual's lap phi(u) term at half strength; the Newton matrix
    # keeps the full dphi, so Newton still converges, to the wrong step
    half = dataclasses.replace(spec.phi, phi=lambda v: 0.5 * spec.phi.phi(v))
    return REAL_STEP_OPERATOR(u, dataclasses.replace(spec, phi=half), grid)


def test_lap_phi_mutant_caught_by_barenblatt_order(monkeypatch):
    # the mutant solves u_t = lap phi(u) / 2, which reaches B(x, 1.5), not
    # B(x, 2): the L1 error stalls and the observed orders fall below the
    # h^(1/2) floor that test_barenblatt_l1_order asserts
    monkeypatch.setattr(solver, "_step_operator", lap_phi_halved)
    orders = barenblatt_orders(1, BARENBLATT_LADDERS[1])
    assert np.all(orders < 0.5), orders
