"""Batch driver: resolves a config, runs the Monte-Carlo path loop across
workers, assembles the diagnostics report, and writes the run artifacts
(manifest, report CSV, energy CSV, field snapshots).

Every Monte-Carlo loop of ``run`` and ``study`` is one per-path job, a pure
function of (config, seed, checks), so worker count changes wall time only;
the checks aggregate the results in seed order.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .diagnostics import (ENTROPY_TOL_COEFF, STATUS_TEXT, THETA_VALUES,
                          CheckResult, DiagnosticsReport, cauchy_path_errors,
                          cauchy_rate_test, contraction_path_distances,
                          contraction_test, entropy_residual,
                          entropy_tolerance, linear_moment_rate,
                          max_principle_test, moment_bound_test,
                          moment_path_rows, test_function_catalog,
                          viscosity_convergence_test, viscosity_path_errors)
from .entropy import (BETA_M1, BETA_M2, identity_check_batch, kirchhoff,
                      make_beta_theta)
from .model import VALIDATION_SAMPLES, discretize_initial, validate_assumptions
from .noise import sample_jump_path
from .solver import discrete_energy_report, mass_outside, norm_l1, solve_path

__all__ = ["run_experiment", "convergence_study", "replay", "path_seed"]


# Half-width of the box the exchange-identity pairs are drawn from.
IDENTITY_RANGE = 5.0


def path_seed(base: int, k: int) -> int:
    """Per-path seed splitting rule: base xor path index."""
    return int(base) ^ int(k)


# ---------------------------------------------------------------------------
# Per-path reductions

# run's checks with a per-path part; the first four reduce the run.steps solve
_RUN_TRAJECTORY_CHECKS = {"energy", "entropy_residual", "max_principle",
                          "boundary_mass"}
_PER_PATH_CHECKS = _RUN_TRAJECTORY_CHECKS | {"moments", "contraction"}


def _path_reductions(cfg: ExperimentConfig, seed: int, selected) -> dict:
    """Every per-path reduction of the ``selected`` checks and study lanes
    ("cauchy", "viscosity") on the path of ``seed``, sampled once."""
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    n_steps = cfg.get("run", "steps")
    path = sample_jump_path(spec.levy, spec.horizon, seed)
    out = {"seed": seed, "events": path.count}

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
    if not _RUN_TRAJECTORY_CHECKS & set(selected):
        return out

    traj = solve_path(spec, grid, n_steps, path)
    need_energy = "energy" in selected
    need_residual = "entropy_residual" in selected
    G = kirchhoff(spec.phi) if (need_energy or need_residual) else None

    if need_energy:
        out["energy"] = discrete_energy_report(traj, G)
    if need_residual:
        psis = test_function_catalog(grid.half_width, spec.horizon, grid.dim)
        worst = math.inf
        worst_tag = ""
        for th in THETA_VALUES:
            triple = make_beta_theta(th, phi=spec.phi, flux=spec.flux)
            for psi in psis:
                r = entropy_residual(traj, path, triple, psi, G)
                if r < worst:
                    worst, worst_tag = r, "theta=%g %s" % (th, psi.name)
        out["residual_min"] = worst
        out["residual_tag"] = worst_tag
    if "max_principle" in selected:
        out["max_abs"] = float(np.max(np.abs(traj.fields)))
    if "boundary_mass" in selected:
        out["boundary_mass"] = max(
            mass_outside(traj.fields[k], grid) for k in range(n_steps + 1))
    return out


def _worker(args):
    cfg_text, seed, selected = args
    cfg = ExperimentConfig.from_text(cfg_text)
    return _path_reductions(cfg, seed, selected)


def _run_paths(cfg: ExperimentConfig, jobs: Sequence[tuple],
               workers: int) -> List[dict]:
    """``_path_reductions`` of every (seed, checks) job in job order, from
    min(workers, jobs) processes, or inline when that is 1."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [_path_reductions(cfg, seed, checks) for seed, checks in jobs]
    text = cfg.manifest_text()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, [(text, seed, tuple(checks))
                                       for seed, checks in jobs]))


# ---------------------------------------------------------------------------
# Individual report sections

def _check_assumptions(cfg, spec, grid, report):
    rep = validate_assumptions(spec, VALIDATION_SAMPLES,
                               cfg.get("run", "seed"), grid=grid)
    for e in rep.entries:
        report.add(CheckResult(
            name="assumption_%s" % e.name.lower(),
            value=e.worst_ratio, bound=1.0 + 1e-8,
            margin=1.0 + 1e-8 - e.worst_ratio, passed=e.passed,
            statement="worst sampled ratio of %s against its declared "
                      "constant stays <= 1" % e.name,
            extras={"detail": e.detail}))
    report.add(CheckResult(
        name="assumption_a1_modulus_trend",
        value=float(rep.modulus_ratio[-1]),
        bound=float(rep.modulus_ratio[0]),
        margin=float(rep.modulus_ratio[0] - rep.modulus_ratio[-1]),
        passed=bool(rep.modulus_decreasing) if rep.modulus_required else True,
        statement="sampled sup |sqrt(phi')(a)-sqrt(phi')(b)| / r^(2/3) "
                  "trends to 0 (finite-sample trend, never a certification)",
        extras={"required": rep.modulus_required,
                "ratios": list(map(float, rep.modulus_ratio))}))


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
    report.add(CheckResult(
        name="sandwich_lower", value=worst_low, bound=1e-12,
        margin=1e-12 - worst_low, passed=bool(worst_low <= 1e-12),
        statement="|r| - M1 theta <= beta_theta(r) on a 10^4-point mesh"))
    report.add(CheckResult(
        name="sandwich_upper", value=worst_high, bound=1e-12,
        margin=1e-12 - worst_high, passed=bool(worst_high <= 1e-12),
        statement="beta_theta(r) <= |r| on a 10^4-point mesh"))
    report.add(CheckResult(
        name="sandwich_curvature", value=worst_d2, bound=1e-12,
        margin=1e-12 - worst_d2, passed=bool(worst_d2 <= 1e-12),
        statement="|beta_theta''| <= (M2/theta) 1_{|r| <= theta}"))


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
        report.add(CheckResult(
            name=name, value=worst, bound=bound, margin=bound - worst,
            passed=bool(worst <= bound), statement=statement))


def _check_energy(cfg, spec, grid, results, report):
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    means = {k: np.mean([r["energy"][k] for r in results], axis=0)
             for k in results[0]["energy"]}
    u_norm = means["u_norm_sq"]
    total = (float(np.max(u_norm))
             + spec.epsilon * dt * float(np.sum(means["grad_u_sq"]))
             + dt * float(np.sum(means["grad_g_sq"][1:])))
    finite = bool(np.isfinite(total))
    report.add(CheckResult(
        name="energy_bound", value=total, bound=float("inf"),
        margin=float("inf"), passed=finite,
        statement="sup_n E||u_n||^2 + eps dt sum E||grad u_n||^2 + dt sum "
                  "E||grad G(u_n)||^2 stays bounded",
        extras={"sup_u_norm_sq": float(np.max(u_norm))}))
    return means


def _check_residual(cfg, spec, grid, results, report):
    n_steps = cfg.get("run", "steps")
    dt = spec.horizon / n_steps
    tol = entropy_tolerance(spec, grid, dt)
    worst = min(r["residual_min"] for r in results)
    tag = min(results, key=lambda r: r["residual_min"])["residual_tag"]
    report.add(CheckResult(
        name="entropy_residual", value=worst, bound=-tol,
        margin=worst + tol, passed=bool(worst >= -tol),
        statement="entropy-inequality residual >= -C (eps + h + dt) for "
                  "every path, test function, and smoothing scale",
        extras={"worst_case": tag, "coefficient": ENTROPY_TOL_COEFF}))


def _check_max_principle(spec, results, report):
    if spec.m1 is None:
        report.add(CheckResult(
            name="max_principle", value=float("nan"), bound=float("nan"),
            margin=float("nan"), passed=None,
            statement="sup bound requires a noise amplitude with compact "
                      "u-support"))
        return
    rep = max_principle_test(spec, [r["max_abs"] for r in results])
    limit = rep.bound + rep.tolerance
    report.add(CheckResult(
        name="max_principle", value=rep.worst, bound=limit,
        margin=limit - rep.worst, passed=rep.passed,
        statement="|u_n(x)| <= max(M + M1, ||u0||_inf) cellwise at every "
                  "step on every path",
        extras=rep.extras))


def _check_moments(cfg, spec, results, report):
    for i, p in enumerate(cfg.get("diagnostics", "moment_orders")):
        oracle = None
        try:
            oracle = linear_moment_rate(
                spec, p, spec.horizon / cfg.get("run", "steps"))
        except ValueError:
            oracle = None
        rep = moment_bound_test(spec, p, [r["moments"][i] for r in results],
                                oracle_rate=oracle)
        passed = rep.stable and (rep.within_oracle is not False)
        report.add(CheckResult(
            name="moment_p%d" % p, value=rep.fit, bound=rep.fit_half,
            margin=abs(rep.fit - rep.fit_half),
            passed=bool(passed),
            statement="finite growth rate K with E int |u|^p <= exp(K t) "
                      "E int |u0|^p, stable under dt halving",
            extras={"oracle_rate": oracle,
                    "oracle_band": rep.oracle_band,
                    "within_oracle": rep.within_oracle}))


def _check_isometry(cfg, spec, grid, report):
    if spec.eta.is_zero:
        report.add(CheckResult(
            name="isometry", value=0.0, bound=0.0, margin=0.0, passed=True,
            statement="silent noise: compensated sums vanish identically"))
        return
    if spec.eta.params.get("sigma") != "const":
        report.add(CheckResult(
            name="isometry", value=float("nan"), bound=float("nan"),
            margin=float("nan"), passed=None,
            statement="isometry check applies to state-independent noise "
                      "amplitudes (constant sigma)"))
        return
    n_paths = cfg.get("diagnostics", "isometry_paths")
    base = path_seed(cfg.get("run", "seed"), 40739)
    h = spec.eta.h
    total = np.zeros(n_paths)
    for k in range(n_paths):
        path = sample_jump_path(spec.levy, spec.horizon, path_seed(base, k))
        total[k] = float(np.sum(h(path.sizes))) if path.count else 0.0
    w = total - spec.horizon * spec.levy.h_moment(spec.eta.h_power)
    var_emp = float(np.var(w, ddof=1))
    var_pred = spec.horizon * spec.levy.h_moment(spec.eta.h_power, 2)
    centered_sq = (w - np.mean(w)) ** 2
    se = float(np.std(centered_sq, ddof=1) / math.sqrt(n_paths))
    dev = abs(var_emp - var_pred)
    sig = spec.eta.params["sigma_scale"] * spec.eta.g_inf
    report.add(CheckResult(
        name="isometry", value=dev * sig ** 2, bound=3.0 * se * sig ** 2,
        margin=(3.0 * se - dev) * sig ** 2,
        passed=bool(dev <= 3.0 * se),
        statement="per-cell variance of the compensated sum matches "
                  "T g(x)^2 int h^2 dm within 3 sigma",
        extras={"paths": n_paths, "var_emp": var_emp, "var_pred": var_pred}))


def _check_boundary_mass(cfg, spec, grid, results, report):
    u0 = discretize_initial(spec, grid)
    budget = 1e-6 * max(norm_l1(u0, grid), 1e-300)
    worst = max(r["boundary_mass"] for r in results)
    report.add(CheckResult(
        name="boundary_mass", value=worst, bound=budget,
        margin=budget - worst, passed=bool(worst <= budget),
        statement="L1 mass inside the truncation margin stays below "
                  "1e-6 ||u0||_1 (domain truncation is inert)"))


def _check_contraction(spec, grid, results, report):
    rep = contraction_test(spec, [r["contraction"] for r in results])
    if rep.mean[0] == 0.0:
        worst = float(np.max(rep.mean))
        scale = max(norm_l1(discretize_initial(spec, grid), grid), 1e-300)
        report.add(CheckResult(
            name="contraction_zero", value=worst, bound=0.0, margin=-worst,
            passed=bool(worst <= 1e-8 * scale),
            statement="equal initial data under one noise stay identical "
                      "in weighted L1"))
    report.add(CheckResult(
        name="contraction_growth", value=rep.fit, bound=rep.fit_half,
        margin=abs(rep.fit - rep.fit_half), passed=bool(rep.stable),
        statement="weighted-L1 distance obeys exp(C t) with C stable under "
                  "dt halving",
        extras={"c_fit": rep.fit, "c_fit_half": rep.fit_half}))


def _check_determinism(cfg, spec, grid, report):
    seed = path_seed(cfg.get("run", "seed"), 0)
    path_a = sample_jump_path(spec.levy, spec.horizon, seed)
    path_b = sample_jump_path(spec.levy, spec.horizon, seed)
    traj_a = solve_path(spec, grid, cfg.get("run", "steps"), path_a)
    traj_b = solve_path(spec, grid, cfg.get("run", "steps"), path_b)
    same = bool(np.array_equal(traj_a.fields, traj_b.fields)
                and np.array_equal(path_a.times, path_b.times))
    report.add(CheckResult(
        name="determinism", value=0.0 if same else 1.0, bound=0.0,
        margin=0.0, passed=same,
        statement="identical seeds reproduce bitwise-identical paths and "
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


def _write_snapshots(out_dir, cfg, spec, grid):
    """Path 0's field at steps 0, N/2 and N, and its per-step solver stats."""
    n_steps = cfg.get("run", "steps")
    os.makedirs(os.path.join(out_dir, "fields"), exist_ok=True)
    dt = spec.horizon / n_steps
    path = sample_jump_path(spec.levy, spec.horizon,
                            path_seed(cfg.get("run", "seed"), 0))
    traj = solve_path(spec, grid, n_steps, path)
    fname = os.path.join(out_dir, "fields", "u_path0000.csv")
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "index", "u"])
        for s in (0, n_steps // 2, n_steps):
            for i, val in enumerate(traj.fields[s].ravel()):
                writer.writerow(["%.17g" % (s * dt), i, "%.17g" % val])
    sname = os.path.join(out_dir, "fields", "stats_path0000.csv")
    with open(sname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "newton_iterations", "picard_iterations",
                         "residual", "used_fallback", "lemma_ratio"])
        for s, st in enumerate(traj.stats):
            writer.writerow([s + 1, st.newton_iterations,
                             st.picard_iterations, "%.17g" % st.residual,
                             int(st.used_fallback), "%.17g" % st.lemma_ratio])


# ---------------------------------------------------------------------------
# Entry points

def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   workers: int = 1,
                   seed_override: Optional[int] = None) -> DiagnosticsReport:
    """Execute every selected check and write the run artifacts.

    Deterministic given the resolved config: the manifest written next to
    the report is sufficient to reproduce every output byte for byte.
    """
    if seed_override is not None:
        cfg.set("run", "seed", int(seed_override))
    out_dir = out_dir or cfg.get("output", "directory")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(cfg.manifest_text())

    spec = cfg.build_spec()
    grid = cfg.build_grid()
    selected = list(cfg.get("diagnostics", "checks"))
    report = DiagnosticsReport()

    seeds = [path_seed(cfg.get("run", "seed"), k)
             for k in range(cfg.get("run", "paths"))]
    results = []
    if _PER_PATH_CHECKS & set(selected):
        results = _run_paths(cfg, [(s, selected) for s in seeds], workers)

    if "assumptions" in selected:
        _check_assumptions(cfg, spec, grid, report)
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
        _check_determinism(cfg, spec, grid, report)

    report.write_csv(os.path.join(out_dir, "report.csv"))
    if means is not None:
        _write_energy_csv(os.path.join(out_dir, "energy.csv"), means,
                          spec.horizon / cfg.get("run", "steps"))
    _write_snapshots(out_dir, cfg, spec, grid)
    return report


def convergence_study(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                      workers: int = 1) -> List:
    """Rate studies driven by steps_list (coupled dt refinement) and
    eps_list (vanishing viscosity); emits rates.csv."""
    out_dir = out_dir or cfg.get("output", "directory")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(cfg.manifest_text())
    spec = cfg.build_spec()
    steps_list = cfg.get("run", "steps_list")
    eps_list = cfg.get("run", "eps_list")
    lanes = ["cauchy"] * bool(steps_list) + ["viscosity"] * bool(eps_list)
    # silent noise gives every path the same Cauchy ladder: solve one
    jobs = [(path_seed(cfg.get("run", "seed"), k),
             [x for x in lanes if not (x == "cauchy" and spec.eta.is_zero
                                       and k > 0)])
            for k in range(cfg.get("run", "paths"))]
    results = _run_paths(cfg, jobs, workers) if lanes else []
    reports = []
    if steps_list:
        rep = cauchy_rate_test(spec, steps_list,
                               [r["cauchy"] for r in results if "cauchy" in r])
        if len(steps_list) < 3:
            rep.status = None  # too short for a stable rate fit
        reports.append(rep)
    if eps_list:
        rep = viscosity_convergence_test(eps_list,
                                         [r["viscosity"] for r in results])
        if len(eps_list) < 3:
            rep.status = None
        reports.append(rep)
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
                    "%.17g" % rep.slope, STATUS_TEXT[rep.status]])
    return reports


def replay(manifest_path: str, out_dir: str,
           workers: int = 1) -> DiagnosticsReport:
    """Re-execute a run from its manifest. Paths are re-sampled from their
    seeds, so outputs are byte-identical under the same numpy build."""
    cfg = ExperimentConfig.from_file(manifest_path)
    return run_experiment(cfg, out_dir=out_dir, workers=workers)
