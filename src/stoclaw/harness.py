"""Batch driver: resolves a config, plans the Monte-Carlo path jobs and runs
them across workers, collects the report rows that the diagnostics
aggregators return, and writes the run artifacts (manifest, and through one
CSV writer the report, energy means, field snapshots and rate tables).

Every solve of ``run`` and ``study`` is one pool job, a pure function of
(config, seed, checks): one lane of checks on one path, or one of the two
path-0 jobs (determinism, snapshot). Worker count changes wall time only;
the results are merged per seed and the checks aggregate them in seed order.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig
from .diagnostics import (STATUS_TEXT, THETA_VALUES, VALIDATION_SAMPLES,
                          CheckResult, at_most, boundary_mass_test,
                          cauchy_path_errors, cauchy_rate_test,
                          contraction_path_distances, contraction_test,
                          determinism_test, energy_bound_test,
                          entropy_residual, entropy_residual_test,
                          isometry_test, max_principle_test,
                          moment_bound_test, moment_path_rows,
                          test_function_catalog, validate_assumptions,
                          viscosity_convergence_test, viscosity_path_errors)
from .entropy import (BETA_M1, BETA_M2, identity_check_batch, kirchhoff,
                      make_beta_theta)
from .model import discretize_initial
from .noise import sample_jump_path
from .solver import (discrete_energy_report, lemma_ratios, mass_outside,
                     solve_path)

__all__ = ["run_experiment", "convergence_study", "replay", "path_seed",
           "assumption_rows", "resolve_problem", "write_csv", "report_rows",
           "REPORT_COLUMNS"]


# Half-width of the box the exchange-identity pairs are drawn from.
IDENTITY_RANGE = 5.0


def path_seed(base: int, k: int) -> int:
    """Per-path seed splitting rule: base xor path index."""
    return int(base) ^ int(k)


# ---------------------------------------------------------------------------
# Per-path reductions

# The lanes of ``run`` in job order: groups of per-path checks that read the
# same trajectories; the first reduces the run.steps solve
_LANES = (("energy", "entropy_residual", "max_principle", "boundary_mass"),
          ("moments",), ("contraction",))


def _path_reductions(cfg: ExperimentConfig, seed: int, selected) -> dict:
    """Every per-path reduction of the ``selected`` checks and study lanes
    ("cauchy", "viscosity") on the path of ``seed``, sampled once: only
    what an aggregator reads, each a reduction over whole trajectories.
    "determinism" solves the path twice and compares the two bitwise;
    "snapshot" returns the fields at steps 0, N/2, N, the step stats and
    the one-step estimate ratios, which no other job computes."""
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    n_steps = cfg.get("run", "steps")
    path = sample_jump_path(spec.levy, spec.horizon, seed)
    out = {}

    if "determinism" in selected:
        again = sample_jump_path(spec.levy, spec.horizon, seed)
        out["determinism"] = bool(
            np.array_equal(solve_path(spec, grid, n_steps, path).fields,
                           solve_path(spec, grid, n_steps, again).fields)
            and np.array_equal(path.times, again.times))
    if "snapshot" in selected:
        traj = solve_path(spec, grid, n_steps, path)
        out["snapshot"] = (traj.fields[[0, n_steps // 2, n_steps]],
                           traj.stats, lemma_ratios(traj))

    if "moments" in selected:
        out["moments"] = [moment_path_rows(spec, grid, path, p, n_steps)
                          for p in cfg.get("diagnostics", "moment_orders")]
    if "contraction" in selected:
        out["contraction"] = contraction_path_distances(
            spec, grid, path, cfg.build_v0(),
            cfg.get("diagnostics", "contraction_weight"), n_steps)
    if "cauchy" in selected:
        out["cauchy"] = cauchy_path_errors(spec, grid, path,
                                           cfg.get("run", "steps_list"))
    if "viscosity" in selected:
        out["viscosity"] = viscosity_path_errors(
            spec, grid, path, cfg.get("run", "eps_list"), n_steps)
    if not set(_LANES[0]) & set(selected):
        return out

    traj = solve_path(spec, grid, n_steps, path)
    G = (kirchhoff(spec.phi)
         if {"energy", "entropy_residual"} & set(selected) else None)
    if "energy" in selected:
        out["energy"] = discrete_energy_report(traj, G)
    if "entropy_residual" in selected:
        psis = test_function_catalog(grid.half_width, spec.horizon)
        worst = math.inf
        for th in THETA_VALUES:
            triple = make_beta_theta(th, phi=spec.phi, flux=spec.flux)
            for psi in psis:
                worst = min(worst, entropy_residual(traj, path, triple, psi, G))
        out["residual_min"] = worst
    if "max_principle" in selected:
        out["max_abs"] = float(np.max(np.abs(traj.fields)))
    if "boundary_mass" in selected:
        out["boundary_mass"] = float(np.max(mass_outside(traj.fields, grid)))
    return out


def _worker(args):
    cfg_text, seed, selected = args
    return _path_reductions(ExperimentConfig.from_text(cfg_text), seed,
                            selected)


def _run_paths(cfg: ExperimentConfig, jobs: Sequence[tuple],
               workers: int) -> List[dict]:
    """``_path_reductions`` of every (seed, checks) job in job order, from
    min(workers, jobs, usable CPUs) processes, or inline when that is 1."""
    workers = min(workers, len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [_path_reductions(cfg, seed, checks) for seed, checks in jobs]
    text = cfg.manifest_text()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, [(text, seed, tuple(checks))
                                       for seed, checks in jobs]))


def _merge_by_seed(jobs: Sequence[tuple], results: List[dict]) -> List[dict]:
    """One dict per distinct job seed, in first-job order, holding the
    results of every job on that seed."""
    merged = {}
    for (seed, _), out in zip(jobs, results):
        merged.setdefault(seed, {}).update(out)
    return list(merged.values())


# ---------------------------------------------------------------------------
# Individual report sections

def assumption_rows(cfg, spec, grid) -> List[CheckResult]:
    """The ``assumption_*`` rows, which ``run`` reports and ``validate``
    prints: A1-A5 and the modulus trend of sqrt(phi')."""
    return validate_assumptions(spec, grid, VALIDATION_SAMPLES,
                                cfg.get("run", "seed"))


def _check_sandwich() -> List[CheckResult]:
    mesh = np.linspace(-3.0, 3.0, 10001)
    worst_low = worst_high = worst_d2 = 0.0
    for th in THETA_VALUES:
        triple = make_beta_theta(th)
        vals = triple.beta(mesh)
        worst_low = max(worst_low, float(np.max((np.abs(mesh) - BETA_M1 * th)
                                                - vals)))
        worst_high = max(worst_high, float(np.max(vals - np.abs(mesh))))
        d2 = np.abs(triple.d2beta(mesh))
        allowed = np.where(np.abs(mesh) <= th, BETA_M2 / th, 0.0)
        worst_d2 = max(worst_d2, float(np.max(d2 - allowed)))
    return [at_most(name, worst, 1e-12, statement)
            for name, worst, statement in (
                ("sandwich_lower", worst_low,
                 "|r| - M1 theta <= beta_theta(r) on a 10^4-point mesh"),
                ("sandwich_upper", worst_high,
                 "beta_theta(r) <= |r| on a 10^4-point mesh"),
                ("sandwich_curvature", worst_d2,
                 "|beta_theta''| <= (M2/theta) 1_{|r| <= theta}"))]


def _check_identities(cfg, spec) -> List[CheckResult]:
    rng = np.random.default_rng(path_seed(cfg.get("run", "seed"), 977))
    n = cfg.get("diagnostics", "identity_pairs")
    a = rng.uniform(-IDENTITY_RANGE, IDENTITY_RANGE, n)
    b = rng.uniform(-IDENTITY_RANGE, IDENTITY_RANGE, n)
    worst_sym = worst_id1 = worst_id2 = 0.0
    for th in THETA_VALUES:
        triple = make_beta_theta(th, phi=spec.phi, flux=spec.flux)
        res = identity_check_batch(a, b, triple, spec.phi)
        worst_sym = max(worst_sym,
                        float(np.max(np.abs(res["i_ab"] - res["i_ba"]))))
        worst_id1 = max(worst_id1, float(np.max(
            np.abs(res["i_ab"] - res["identity1_ref"]))))
        worst_id2 = max(worst_id2, float(np.max(
            np.abs(res["identity2_lhs"] - res["identity2_ref"]))))
    return [at_most(name, worst, 1e-7, statement)
            for name, worst, statement in (
                ("ibeta_symmetry", worst_sym,
                 "interaction form is symmetric in its arguments"),
                ("ibeta_identity1", worst_id1,
                 "nested interaction form equals -1/2 of the shifted double "
                 "integral"),
                ("ibeta_identity2", worst_id2,
                 "2 I + both entropy-flux differences equal the nonnegative "
                 "square-difference double integral"))]


# ---------------------------------------------------------------------------
# Artifact writing

REPORT_COLUMNS = ("check", "value", "bound", "margin", "status", "statement")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of the iterable ``rows`` as it
    comes: a float as %.17g and, by the csv module's rule, a missing value
    (None) as an empty cell and anything else with str. The one writer of
    every CSV artifact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else v
                             for v in row])


def report_rows(checks):
    """The ``report.csv`` rows of ``checks``; a None margin (inconclusive)
    reads nan."""
    for c in checks:
        yield (c.name, c.value, c.bound,
               math.nan if c.margin is None else c.margin,
               STATUS_TEXT[c.passed], c.statement)


def _energy_rows(means, dt):
    """``energy.csv``: the path means of the energy terms at every knot; the
    step terms have no value at the last knot."""
    n = len(means["increment_sq"])
    for k in range(n + 1):
        yield ([k, k * dt, means["u_norm_sq"][k]]
               + [means[key][k] if k < n else None
                  for key in ("increment_sq", "grad_phi_sq", "grad_u_sq")]
               + [means["grad_g_sq"][k]])


def _write_snapshots(out_dir, cfg, spec, snapshot):
    """Path 0's field at steps 0, N/2 and N, and its per-step solver stats
    and one-step estimate ratios."""
    fields, stats, ratios = snapshot
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    os.makedirs(os.path.join(out_dir, "fields"), exist_ok=True)
    write_csv(os.path.join(out_dir, "fields", "u_path0000.csv"),
              ("t", "index", "u"),
              ((s * dt, i, val)
               for s, field in zip((0, n_steps // 2, n_steps), fields)
               for i, val in enumerate(field.ravel())))
    write_csv(os.path.join(out_dir, "fields", "stats_path0000.csv"),
              ("step", "newton_iterations", "jacobians", "residual",
               "lemma_ratio"),
              ((s + 1, st.newton_iterations, st.jacobians, st.residual, ratio)
               for s, (st, ratio) in enumerate(zip(stats, ratios))))


# ---------------------------------------------------------------------------
# Entry points

def resolve_problem(cfg: ExperimentConfig):
    """The config's ``(spec, grid)``, once its initial data, and v0 when
    set, are found to fit inside the truncation margin: the input checks
    each verb makes before it writes anything."""
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    discretize_initial(spec, grid)
    if cfg.get("diagnostics", "v0"):
        discretize_initial(spec.with_u0(cfg.build_v0()), grid)
    return spec, grid


def _open_out_dir(cfg: ExperimentConfig, out_dir: Optional[str]) -> str:
    """Create the output directory, ``output.directory`` unless given, and
    write the manifest there; a ConfigError if it cannot be a directory."""
    out_dir = out_dir or cfg.get("output", "directory")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError("cannot create output directory %s: %s" % (
            out_dir, err.strerror or err)) from err
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(cfg.manifest_text())
    return out_dir


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   workers: int = 1) -> List[CheckResult]:
    """Execute every selected check, write the run artifacts and return the
    report's rows.

    Deterministic given the resolved config: the manifest written next to
    the report is sufficient to reproduce every output byte for byte.
    """
    spec, grid = resolve_problem(cfg)
    out_dir = _open_out_dir(cfg, out_dir)
    selected = list(cfg.get("diagnostics", "checks"))
    dt = spec.horizon / cfg.get("run", "steps")
    report = []

    seeds = [path_seed(cfg.get("run", "seed"), k)
             for k in range(cfg.get("run", "paths"))]
    lanes = [tuple(c for c in lane if c in selected) for lane in _LANES]
    jobs = [(s, lane) for s in seeds for lane in lanes if lane]
    jobs += [(seeds[0], ("determinism",))] * ("determinism" in selected)
    jobs.append((seeds[0], ("snapshot",)))
    results = _merge_by_seed(jobs, _run_paths(cfg, jobs, workers))

    def each(key):
        return [r[key] for r in results]

    if "assumptions" in selected:
        report += assumption_rows(cfg, spec, grid)
    if "sandwich" in selected:
        report += _check_sandwich()
    if "identities" in selected:
        report += _check_identities(cfg, spec)
    means = None
    if "energy" in selected:
        row, means = energy_bound_test(spec, each("energy"))
        report.append(row)
    if "entropy_residual" in selected:
        report.append(entropy_residual_test(spec, grid, dt,
                                            each("residual_min")))
    if "max_principle" in selected:
        report.append(max_principle_test(spec, each("max_abs")))
    if "moments" in selected:
        report += [
            moment_bound_test(spec, p, [m[i] for m in each("moments")])
            for i, p in enumerate(cfg.get("diagnostics", "moment_orders"))]
    if "isometry" in selected:
        base = path_seed(cfg.get("run", "seed"), 40739)
        report.append(isometry_test(spec, [path_seed(base, k) for k in range(
            cfg.get("diagnostics", "isometry_paths"))]))
    if "boundary_mass" in selected:
        report.append(boundary_mass_test(spec, grid, each("boundary_mass")))
    if "contraction" in selected:
        report += contraction_test(spec, grid, each("contraction"))
    if "determinism" in selected:
        report.append(determinism_test(results[0]["determinism"]))

    write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS,
              report_rows(report))
    if means is not None:
        write_csv(os.path.join(out_dir, "energy.csv"),
                  ("step", "time", "u_norm_sq", "increment_sq",
                   "grad_phi_sq", "grad_u_sq", "grad_g_sq"),
                  _energy_rows(means, dt))
    _write_snapshots(out_dir, cfg, spec, results[0]["snapshot"])
    return report


def convergence_study(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                      workers: int = 1) -> List:
    """Rate studies driven by steps_list (coupled dt refinement) and
    eps_list (vanishing viscosity); emits rates.csv."""
    spec, _ = resolve_problem(cfg)
    steps_list = cfg.get("run", "steps_list")
    eps_list = cfg.get("run", "eps_list")
    if not (steps_list or eps_list):
        raise ConfigError("study needs run.steps_list or run.eps_list")
    out_dir = _open_out_dir(cfg, out_dir)
    lanes = ([("cauchy",)] * bool(steps_list)
             + [("viscosity",)] * bool(eps_list))
    # silent noise gives every path the same solves: solve one path
    jobs = [(path_seed(cfg.get("run", "seed"), k), lane)
            for k in range(1 if spec.silent else cfg.get("run", "paths"))
            for lane in lanes]
    results = _merge_by_seed(jobs, _run_paths(cfg, jobs, workers))
    reports = []
    if steps_list:
        reports.append(cauchy_rate_test(
            spec, steps_list, [r["cauchy"] for r in results]))
    if eps_list:
        reports.append(viscosity_convergence_test(
            eps_list, [r["viscosity"] for r in results]))
    write_csv(os.path.join(out_dir, "rates.csv"),
              ("lane", "parameter", "error", "stderr", "ratio", "slope",
               "status"),
              ((rep.lane, p, rep.errors_sq[i], rep.stderr[i],
                rep.ratios[i - 1] if i > 0 else None, rep.slope,
                STATUS_TEXT[rep.passed])
               for rep in reports for i, p in enumerate(rep.parameters)))
    return reports


def replay(manifest_path: str, out_dir: str,
           workers: int = 1) -> List[CheckResult]:
    """Re-execute a run from its manifest. Paths are re-sampled from their
    seeds, so outputs are byte-identical under the same numpy build."""
    cfg = ExperimentConfig.from_file(manifest_path)
    return run_experiment(cfg, out_dir=out_dir, workers=workers)
