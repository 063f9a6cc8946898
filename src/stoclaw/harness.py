"""Batch driver: resolves a config, runs the Monte-Carlo path loop across
workers, assembles the diagnostics report (each row's margin is the signed
slack of its condition, which alone decides the row's status), and writes
the run artifacts (manifest, report CSV, energy CSV, field snapshots).

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
from .diagnostics import (BAND_SIGMAS, STATUS_TEXT, THETA_VALUES,
                          CheckResult, DiagnosticsReport, cauchy_path_errors,
                          cauchy_rate_test, contraction_path_distances,
                          contraction_test, entropy_residual,
                          entropy_tolerance, linear_moment_rate,
                          max_principle_test, moment_bound_test,
                          moment_path_rows, path_mean_stderr,
                          test_function_catalog,
                          viscosity_convergence_test, viscosity_path_errors)
from .entropy import (BETA_M1, BETA_M2, identity_check_batch, kirchhoff,
                      make_beta_theta)
from .model import VALIDATION_SAMPLES, discretize_initial, validate_assumptions
from .noise import sample_jump_path
from .solver import (discrete_energy_report, lemma_ratios, mass_outside,
                     norm_l1, solve_path)

__all__ = ["run_experiment", "convergence_study", "replay", "path_seed",
           "assumption_rows", "resolve_problem"]


# Half-width of the box the exchange-identity pairs are drawn from.
IDENTITY_RANGE = 5.0


def path_seed(base: int, k: int) -> int:
    """Per-path seed splitting rule: base xor path index."""
    return int(base) ^ int(k)


# ---------------------------------------------------------------------------
# Per-path reductions

# Lanes in job order: groups of per-path checks that read the same
# trajectories; the first reduces the run.steps solve
_LANES = (("energy", "entropy_residual", "max_principle", "boundary_mass"),
          ("moments",), ("contraction",), ("cauchy",), ("viscosity",))


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
    need_energy = "energy" in selected
    need_residual = "entropy_residual" in selected
    G = kirchhoff(spec.phi) if (need_energy or need_residual) else None

    if need_energy:
        out["energy"] = discrete_energy_report(traj, G)
    if need_residual:
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
    cfg = ExperimentConfig.from_text(cfg_text)
    return _path_reductions(cfg, seed, selected)


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
    rep = validate_assumptions(spec, grid, VALIDATION_SAMPLES,
                               cfg.get("run", "seed"))
    rows = [CheckResult(
        name="assumption_%s" % e.name.lower(),
        value=e.worst_ratio, bound=1.0 + 1e-8, margin=e.margin,
        statement="worst sampled ratio of %s against its declared "
                  "constant stays <= 1" % e.name) for e in rep.entries]
    # the trend binds only when eta depends on x; otherwise no bound applies
    required = rep.modulus_required
    return rows + [CheckResult(
        name="assumption_a1_modulus_trend",
        value=float(rep.modulus_ratio[-1]),
        bound=float(rep.modulus_ratio[0]) if required else math.inf,
        margin=rep.modulus_slack if required else math.inf,
        statement="sampled sup |sqrt(phi')(a)-sqrt(phi')(b)| / r^(2/3) "
                  "trends to 0 (finite-sample trend, never a certification)")]


def _at_most(name, value, bound, statement):
    """The row of an upper-bound condition value <= bound."""
    return CheckResult(name=name, value=value, bound=bound,
                       margin=bound - value, statement=statement)


def _check_sandwich(report):
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
    bound = 1e-12
    for name, worst, statement in (
            ("sandwich_lower", worst_low,
             "|r| - M1 theta <= beta_theta(r) on a 10^4-point mesh"),
            ("sandwich_upper", worst_high,
             "beta_theta(r) <= |r| on a 10^4-point mesh"),
            ("sandwich_curvature", worst_d2,
             "|beta_theta''| <= (M2/theta) 1_{|r| <= theta}")):
        report.add(_at_most(name, worst, bound, statement))


def _check_identities(cfg, spec, report):
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
    bound = 1e-7
    for name, worst, statement in (
            ("ibeta_symmetry", worst_sym,
             "interaction form is symmetric in its arguments"),
            ("ibeta_identity1", worst_id1,
             "nested interaction form equals -1/2 of the shifted double "
             "integral"),
            ("ibeta_identity2", worst_id2,
             "2 I + both entropy-flux differences equal the nonnegative "
             "square-difference double integral")):
        report.add(_at_most(name, worst, bound, statement))


def _check_energy(cfg, spec, grid, results, report):
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    means = {k: np.mean([r["energy"][k] for r in results], axis=0)
             for k in results[0]["energy"]}
    total = (float(np.max(means["u_norm_sq"]))
             + spec.epsilon * dt * float(np.sum(means["grad_u_sq"]))
             + dt * float(np.sum(means["grad_g_sq"][1:])))
    report.add(CheckResult(
        name="energy_bound", value=total, bound=math.inf,
        margin=math.inf if np.isfinite(total) else -math.inf,
        statement="sup_n E||u_n||^2 + eps dt sum E||grad u_n||^2 + dt sum "
                  "E||grad G(u_n)||^2 stays bounded"))
    return means


def _check_residual(cfg, spec, grid, results, report):
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    tol = entropy_tolerance(spec, grid, dt)
    worst = min(r["residual_min"] for r in results)
    report.add(CheckResult(
        name="entropy_residual", value=worst, bound=-tol, margin=worst + tol,
        statement="entropy-inequality residual >= -C (eps + h + dt) for "
                  "every path, test function, and smoothing scale"))


def _check_max_principle(spec, results, report):
    if spec.m1 is None:
        report.add(CheckResult(
            name="max_principle", value=math.nan, bound=math.nan, margin=None,
            statement="sup bound requires a noise amplitude with compact "
                      "u-support"))
        return
    rep = max_principle_test(spec, [r["max_abs"] for r in results])
    report.add(CheckResult(
        name="max_principle", value=rep.worst,
        bound=rep.bound + rep.tolerance, margin=rep.slack,
        statement="|u_n(x)| <= max(M + M1, ||u0||_inf) cellwise at every "
                  "step on every path"))


def _check_moments(cfg, spec, results, report):
    for i, p in enumerate(cfg.get("diagnostics", "moment_orders")):
        try:
            oracle = linear_moment_rate(
                spec, p, spec.horizon / cfg.get("run", "steps"))
        except ValueError:
            oracle = None
        rep = moment_bound_test(spec, p, [r["moments"][i] for r in results],
                                oracle_rate=oracle)
        report.add(CheckResult(
            name="moment_p%d" % p, value=rep.fit, bound=rep.fit_half,
            margin=min(rep.slack, rep.oracle_slack),
            statement="finite growth rate K with E int |u|^p <= exp(K t) "
                      "E int |u0|^p, stable under dt halving"))


def _check_isometry(cfg, spec, grid, report):
    if spec.silent:
        report.add(CheckResult(
            name="isometry", value=0.0, bound=0.0, margin=0.0,
            statement="silent noise: compensated sums vanish identically"))
        return
    if spec.eta.sigma_kind != "const":
        report.add(CheckResult(
            name="isometry", value=math.nan, bound=math.nan, margin=None,
            statement="isometry check applies to state-independent noise "
                      "amplitudes (constant sigma)"))
        return
    sig = spec.eta.sigma_scale * spec.eta.g_inf
    n_paths = cfg.get("diagnostics", "isometry_paths")
    base = path_seed(cfg.get("run", "seed"), 40739)
    total = np.array([np.sum(spec.eta.h(sample_jump_path(
        spec.levy, spec.horizon, path_seed(base, k)).sizes))
        for k in range(n_paths)])
    w = total - spec.horizon * spec.levy.h_moment(spec.eta.h_power)
    var_emp = float(np.var(w, ddof=1))
    var_pred = spec.horizon * spec.levy.h_moment(spec.eta.h_power, 2)
    band = BAND_SIGMAS * float(path_mean_stderr((w - np.mean(w)) ** 2)[1])
    dev = abs(var_emp - var_pred)
    report.add(CheckResult(
        name="isometry", value=dev * sig ** 2, bound=band * sig ** 2,
        margin=(band - dev) * sig ** 2,
        statement="per-cell variance of the compensated sum matches "
                  "T g(x)^2 int h^2 dm within 3 sigma"))


def _check_boundary_mass(cfg, spec, grid, results, report):
    u0 = discretize_initial(spec, grid)
    budget = 1e-6 * max(norm_l1(u0, grid), 1e-300)
    worst = max(r["boundary_mass"] for r in results)
    report.add(_at_most(
        "boundary_mass", worst, budget,
        "L1 mass inside the truncation margin stays below "
        "1e-6 ||u0||_1 (domain truncation is inert)"))


def _check_contraction(spec, grid, results, report):
    rep = contraction_test(spec, [r["contraction"] for r in results])
    if rep.mean[0] == 0.0:
        worst = float(np.max(rep.mean))
        bound = 1e-8 * max(norm_l1(discretize_initial(spec, grid), grid),
                           1e-300)
        report.add(_at_most(
            "contraction_zero", worst, bound,
            "equal initial data under one noise stay identical "
            "in weighted L1"))
    report.add(CheckResult(
        name="contraction_growth", value=rep.fit, bound=rep.fit_half,
        margin=rep.slack,
        statement="weighted-L1 distance obeys exp(C t) with C stable under "
                  "dt halving"))


def _check_determinism(same, report):
    report.add(_at_most(
        "determinism", 0.0 if same else 1.0, 0.0,
        "identical seeds reproduce bitwise-identical paths and "
        "trajectories"))


# ---------------------------------------------------------------------------
# Artifact writing

def _write_energy_csv(path, means, dt):
    n = len(means["increment_sq"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "u_norm_sq", "increment_sq",
                         "grad_phi_sq", "grad_u_sq", "grad_g_sq"])
        for k in range(n + 1):
            row = [k, "%.17g" % (k * dt),
                   "%.17g" % means["u_norm_sq"][k]]
            if k < n:
                row += ["%.17g" % means["increment_sq"][k],
                        "%.17g" % means["grad_phi_sq"][k],
                        "%.17g" % means["grad_u_sq"][k]]
            else:
                row += ["", "", ""]
            row.append("%.17g" % means["grad_g_sq"][k])
            writer.writerow(row)


def _write_snapshots(out_dir, cfg, spec, snapshot):
    """Path 0's field at steps 0, N/2 and N, and its per-step solver stats
    and one-step estimate ratios."""
    fields, stats, ratios = snapshot
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    os.makedirs(os.path.join(out_dir, "fields"), exist_ok=True)
    fname = os.path.join(out_dir, "fields", "u_path0000.csv")
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "index", "u"])
        for s, field in zip((0, n_steps // 2, n_steps), fields):
            for i, val in enumerate(field.ravel()):
                writer.writerow(["%.17g" % (s * dt), i, "%.17g" % val])
    sname = os.path.join(out_dir, "fields", "stats_path0000.csv")
    with open(sname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "newton_iterations", "jacobians",
                         "residual", "lemma_ratio"])
        for s, (st, ratio) in enumerate(zip(stats, ratios)):
            writer.writerow([s + 1, st.newton_iterations, st.jacobians,
                             "%.17g" % st.residual, "%.17g" % ratio])


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
                   workers: int = 1) -> DiagnosticsReport:
    """Execute every selected check and write the run artifacts.

    Deterministic given the resolved config: the manifest written next to
    the report is sufficient to reproduce every output byte for byte.
    """
    spec, grid = resolve_problem(cfg)
    out_dir = _open_out_dir(cfg, out_dir)
    selected = list(cfg.get("diagnostics", "checks"))
    report = DiagnosticsReport()

    seeds = [path_seed(cfg.get("run", "seed"), k)
             for k in range(cfg.get("run", "paths"))]
    lanes = [tuple(c for c in lane if c in selected) for lane in _LANES]
    jobs = [(s, lane) for s in seeds for lane in lanes if lane]
    jobs += [(seeds[0], ("determinism",))] * ("determinism" in selected)
    jobs.append((seeds[0], ("snapshot",)))
    results = _merge_by_seed(jobs, _run_paths(cfg, jobs, workers))

    if "assumptions" in selected:
        report.checks += assumption_rows(cfg, spec, grid)
    if "sandwich" in selected:
        _check_sandwich(report)
    if "identities" in selected:
        _check_identities(cfg, spec, report)
    means = None
    if "energy" in selected:
        means = _check_energy(cfg, spec, grid, results, report)
    if "entropy_residual" in selected:
        _check_residual(cfg, spec, grid, results, report)
    if "max_principle" in selected:
        _check_max_principle(spec, results, report)
    if "moments" in selected:
        _check_moments(cfg, spec, results, report)
    if "isometry" in selected:
        _check_isometry(cfg, spec, grid, report)
    if "boundary_mass" in selected:
        _check_boundary_mass(cfg, spec, grid, results, report)
    if "contraction" in selected:
        _check_contraction(spec, grid, results, report)
    if "determinism" in selected:
        _check_determinism(results[0]["determinism"], report)

    report.write_csv(os.path.join(out_dir, "report.csv"))
    if means is not None:
        _write_energy_csv(os.path.join(out_dir, "energy.csv"), means,
                          spec.horizon / cfg.get("run", "steps"))
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
    # silent noise gives every path the same Cauchy ladder: solve one
    jobs = [(path_seed(cfg.get("run", "seed"), k), lane)
            for k in range(cfg.get("run", "paths")) for lane in lanes
            if not (lane == ("cauchy",) and spec.silent and k > 0)]
    results = _merge_by_seed(jobs, _run_paths(cfg, jobs, workers))
    reports = []
    if steps_list:
        reports.append(cauchy_rate_test(
            spec, steps_list, [r["cauchy"] for r in results if "cauchy" in r]))
    if eps_list:
        reports.append(viscosity_convergence_test(
            eps_list, [r["viscosity"] for r in results]))
    with open(os.path.join(out_dir, "rates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lane", "parameter", "error", "stderr", "ratio",
                         "slope", "status"])
        for rep in reports:
            for i, p in enumerate(rep.parameters):
                writer.writerow([
                    rep.lane, "%.17g" % p, "%.17g" % rep.errors_sq[i],
                    "%.17g" % rep.stderr[i],
                    "%.17g" % rep.ratios[i - 1] if i > 0 else "",
                    "%.17g" % rep.slope, STATUS_TEXT[rep.passed]])
    return reports


def replay(manifest_path: str, out_dir: str,
           workers: int = 1) -> DiagnosticsReport:
    """Re-execute a run from its manifest. Paths are re-sampled from their
    seeds, so outputs are byte-identical under the same numpy build."""
    cfg = ExperimentConfig.from_file(manifest_path)
    return run_experiment(cfg, out_dir=out_dir, workers=workers)
