"""Acceptance criteria at their stated tolerances, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Everything is seeded; reruns are bitwise identical.
"""

import os
import time

import numpy as np
import pytest
from scipy.linalg import solve_circulant

import stoclaw as sc
from stoclaw.config import ExperimentConfig
from stoclaw.diagnostics import (ENTROPY_TOL_COEFF, THETA_VALUES,
                                 cauchy_rate_test, contraction_test,
                                 entropy_tolerance, linear_moment_rate,
                                 max_principle_test, moment_bound_test,
                                 viscosity_convergence_test)
from stoclaw.entropy import BETA_M1, BETA_M2, identity_check_batch
from stoclaw.harness import _run_paths, path_seed, replay, run_experiment
from stoclaw.solver import norm_l1, norm_l2

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
# every artifact a run writes besides its manifest
ARTIFACTS = ("report.csv", "energy.csv", "fields/u_path0000.csv",
             "fields/stats_path0000.csv")


def _report(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %-18s %s %s" % (
        num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    return ok


def load(name):
    return ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name + ".cfg"))


@pytest.fixture(scope="module")
def bundled():
    cfg = load("stochastic-default")
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    seeds = [path_seed(cfg.get("run", "seed"), k) for k in range(200)]
    return cfg, spec, grid, seeds


@pytest.fixture(scope="module")
def bundled_reductions(bundled):
    # one pass over the 200 bundled paths: energy terms and worst residuals
    cfg, spec, grid, seeds = bundled
    results = _run_paths(cfg, [(s, ("energy", "entropy_residual"))
                               for s in seeds], workers=2)
    cfg_half = ExperimentConfig.from_text(cfg.manifest_text())
    cfg_half.set("run", "steps", 2 * cfg.get("run", "steps"))
    results_half = _run_paths(cfg_half, [(s, ("energy",)) for s in seeds],
                              workers=2)
    return results, results_half


def test_criterion_01_interaction_identities(bundled):
    _, spec, _, _ = bundled
    rng = np.random.default_rng(20117)
    a = rng.uniform(-5.0, 5.0, 1000)
    b = rng.uniform(-5.0, 5.0, 1000)
    tic = time.time()
    worst = 0.0
    for theta in THETA_VALUES:
        triple = sc.make_beta_theta(theta, phi=spec.phi, flux=spec.flux)
        res = identity_check_batch(a, b, triple, spec.phi)
        worst = max(
            worst,
            float(np.max(np.abs(res["i_ab"] - res["i_ba"]))),
            float(np.max(np.abs(res["i_ab"] - res["identity1_ref"]))),
            float(np.max(np.abs(res["identity2_lhs"] - res["identity2_ref"]))))
    elapsed = time.time() - tic
    ok = worst <= 1e-7 and elapsed < 60.0
    assert _report(1, "identities", ok,
                   "worst dev %.2e, %.1fs" % (worst, elapsed))


def test_criterion_02_sandwich():
    mesh = np.linspace(-3.0, 3.0, 10000)
    worst = 0.0
    for theta in THETA_VALUES:
        t = sc.make_beta_theta(theta)
        vals = t.beta(mesh)
        worst = max(worst,
                    float(np.max((np.abs(mesh) - BETA_M1 * theta) - vals)),
                    float(np.max(vals - np.abs(mesh))))
        allowed = np.where(np.abs(mesh) <= theta, BETA_M2 / theta, 0.0)
        worst = max(worst, float(np.max(np.abs(t.d2beta(mesh)) - allowed)))
    ok = worst <= 1e-12
    assert _report(2, "sandwich", ok, "worst excess %.2e" % worst)


def test_criterion_03_banded_oracle():
    eps, dt, m = 1.0, 0.1, 128
    levy = load("linear-smoke").build_intensity()
    spec = sc.ProblemSpec(
        phi=sc.phi_family("zero"), flux=sc.flux_family("zero"),
        eta=sc.eta_family("zero"), u0=sc.init_family("bump"),
        levy=levy, epsilon=eps, horizon=0.5)
    grid = sc.Grid(dim=1, half_width=2.0, cells=m)
    h2 = grid.h ** 2
    # first column of the circulant I - dt eps lap on the periodic grid
    col = np.zeros(m)
    col[0] = 1.0 + 2.0 * dt * eps / h2
    col[1] = col[-1] = -dt * eps / h2
    rng = np.random.default_rng(3317)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-1, 1, m)
        ours, _, _ = sc.implicit_step(spec, grid, u, np.zeros(m), dt)
        oracle = solve_circulant(col, u)
        worst = max(worst, norm_l2(ours - oracle, grid))
    ok = worst <= 1e-12
    assert _report(3, "banded_oracle", ok, "worst L2 gap %.2e" % worst)


def test_criterion_03_banded_oracle_2d():
    # criterion 03 on a 32^2 torus: the circulant I - dt eps lap is
    # diagonal in the 2D Fourier basis, so numpy.fft solves it exactly
    eps, dt, m = 1.0, 0.1, 32
    levy = load("linear-smoke").build_intensity()
    spec = sc.ProblemSpec(
        phi=sc.phi_family("zero"), flux=sc.flux_family("zero"),
        eta=sc.eta_family("zero"), u0=sc.init_family("bump"),
        levy=levy, epsilon=eps, horizon=0.5)
    grid = sc.Grid(dim=2, half_width=2.0, cells=m)
    # eigenvalue of the 1D periodic second difference for each frequency
    lam = (2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(m)) - 2.0) / grid.h ** 2
    symbol = 1.0 - dt * eps * (lam[:, None] + lam[None, :])
    rng = np.random.default_rng(3318)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-1, 1, grid.shape)
        ours, _, _ = sc.implicit_step(spec, grid, u, np.zeros_like(u), dt)
        oracle = np.real(np.fft.ifft2(np.fft.fft2(u) / symbol))
        worst = max(worst, norm_l2(ours - oracle, grid))
    ok = worst <= 1e-12
    assert _report(3, "banded_oracle_2d", ok, "worst L2 gap %.2e" % worst)


def _energy_total(results, spec, dt):
    u_norm = np.mean([r["energy"]["u_norm_sq"] for r in results], axis=0)
    grad_u = np.mean([r["energy"]["grad_u_sq"] for r in results], axis=0)
    grad_g = np.mean([r["energy"]["grad_g_sq"] for r in results], axis=0)
    return (float(np.max(u_norm))
            + spec.epsilon * dt * float(np.sum(grad_u))
            + dt * float(np.sum(grad_g[1:])))


def test_criterion_04_energy_estimate(bundled, bundled_reductions):
    cfg, spec, grid, _ = bundled
    results, results_half = bundled_reductions
    n = cfg.get("run", "steps")
    q = _energy_total(results, spec, spec.horizon / n)
    q_half = _energy_total(results_half, spec, spec.horizon / (2 * n))
    rel = abs(q - q_half) / q
    ok = np.isfinite(q) and rel < 0.10
    assert _report(4, "energy_estimate", ok,
                   "Q=%.5f Q_half=%.5f drift %.2f%%" % (q, q_half, 100 * rel))


def test_criterion_05_entropy_residual(bundled, bundled_reductions):
    cfg, spec, grid, _ = bundled
    results, _ = bundled_reductions
    dt = spec.horizon / cfg.get("run", "steps")
    tol = entropy_tolerance(spec, grid, dt)
    worst = min(r["residual_min"] for r in results)
    ok = worst >= -tol
    assert _report(5, "entropy_residual", ok,
                   "worst R %.5f vs -%.5f (C=%.3f)"
                   % (worst, tol, ENTROPY_TOL_COEFF))


def test_criterion_06_cauchy_rate(bundled):
    cfg, spec, grid, seeds = bundled
    steps = [16, 32, 64, 128, 256]
    cfg = ExperimentConfig.from_text(cfg.manifest_text())
    cfg.set("run", "steps_list", tuple(steps))
    tic = time.time()
    results = _run_paths(cfg, [(s, ("cauchy",)) for s in seeds], workers=2)
    rep = cauchy_rate_test(spec, steps, [r["cauchy"] for r in results])
    elapsed = time.time() - tic
    ok = rep.passed is True and 0.8 <= rep.slope <= 1.3 and elapsed < 1200.0
    assert _report(6, "cauchy_rate", ok,
                   "slope %.3f, %.0fs" % (rep.slope, elapsed))


def test_criterion_07_contraction():
    cfg = load("contraction")
    spec = cfg.build_spec()
    grid = cfg.build_grid()
    seeds = [path_seed(cfg.get("run", "seed"), k) for k in range(40)]
    # equal data on the first ten paths: v0 = u0
    cfg_same = ExperimentConfig.from_text(cfg.manifest_text())
    for key in ("height", "center", "width"):
        cfg_same.set("diagnostics", "v0_" + key,
                     cfg.get("model", "u0_" + key))
    same = contraction_test(spec, [r["contraction"] for r in _run_paths(
        cfg_same, [(s, ("contraction",)) for s in seeds[:10]], workers=2)])
    rep = contraction_test(spec, [r["contraction"] for r in _run_paths(
        cfg, [(s, ("contraction",)) for s in seeds], workers=2)])
    zero = float(np.max(same.mean))
    u0_l1 = norm_l1(sc.discretize_initial(spec, grid), grid)
    ok = same.mean[0] == 0.0 and zero <= 1e-8 * u0_l1 and rep.slack >= 0.0
    assert _report(7, "contraction", ok,
                   "zero max %.1e; C %.4f vs %.4f"
                   % (zero, rep.fit, rep.fit_half))


def test_criterion_08_max_principle():
    cfg = load("maxprinciple")
    spec = cfg.build_spec()
    seeds = [path_seed(cfg.get("run", "seed"), k) for k in range(100)]
    results = _run_paths(cfg, [(s, ("max_principle",)) for s in seeds],
                         workers=2)
    rep = max_principle_test(spec, [r["max_abs"] for r in results])
    ok = rep.slack >= 0.0 and rep.bound == pytest.approx(1.5)
    assert _report(8, "max_principle", ok,
                   "worst |u| %.6f vs %.6f" % (rep.worst, rep.bound))


def test_criterion_09_moments():
    cfg = load("moments-linear")
    spec = cfg.build_spec()
    seeds = [path_seed(cfg.get("run", "seed"), k) for k in range(400)]
    n = cfg.get("run", "steps")
    assert cfg.get("diagnostics", "moment_orders") == (2, 4)
    results = _run_paths(cfg, [(s, ("moments",)) for s in seeds], workers=2)
    ok = True
    details = []
    for i, p in enumerate((2, 4)):
        oracle = linear_moment_rate(spec, p, spec.horizon / n)
        rep = moment_bound_test(spec, p, [r["moments"][i] for r in results],
                                oracle_rate=oracle)
        ok = ok and min(rep.slack, rep.oracle_slack) >= 0.0
        details.append("p%d K=%.3f oracle=%.3f band=%.3f"
                       % (p, rep.fit, oracle, rep.oracle_band))
    assert _report(9, "moments", ok, "; ".join(details))


def test_criterion_10_isometry():
    cfg = load("linear-smoke")
    spec = cfg.build_spec()
    grid = sc.Grid(dim=1, half_width=2.0, cells=8)
    gx = spec.eta.g(grid.coords())
    T = spec.horizon
    n = 10_000
    tic = time.time()
    samples = np.zeros((n,) + grid.shape)
    zeros = np.zeros(grid.shape)
    for k in range(n):
        path = sc.sample_jump_path(spec.levy, T, path_seed(515, k))
        samples[k] = sc.compensated_increment(path, spec, grid, zeros, 0.0, T)
    var_emp = samples.var(axis=0, ddof=1)
    var_pred = T * gx ** 2 * spec.levy.h_moment(spec.eta.h_power, 2)
    centered_sq = (samples - samples.mean(axis=0)) ** 2
    band = 3.0 * centered_sq.std(axis=0, ddof=1) / np.sqrt(n)
    elapsed = time.time() - tic
    ok = bool(np.all(np.abs(var_emp - var_pred) <= band + 1e-15)) \
        and elapsed < 120.0
    active = band > 0
    assert _report(10, "isometry", ok,
                   "worst dev %.2e vs band %.2e, %.0fs"
                   % (float(np.max(np.abs(var_emp - var_pred))),
                      float(np.min(band[active])), elapsed))


def test_criterion_11_viscosity_limit(bundled):
    cfg, spec, grid, seeds = bundled
    eps_list = [0.2, 0.1, 0.05, 0.025]
    cfg = ExperimentConfig.from_text(cfg.manifest_text())
    cfg.set("run", "eps_list", tuple(eps_list))
    results = _run_paths(cfg, [(s, ("viscosity",)) for s in seeds[:100]],
                         workers=2)
    rep = viscosity_convergence_test(eps_list,
                                     [r["viscosity"] for r in results])
    ok = rep.passed is True
    assert _report(11, "viscosity_limit", ok,
                   "ratios %s" % ["%.3f" % r for r in rep.ratios])


def test_criterion_12_determinism(tmp_path):
    cfg = load("linear-smoke")
    cfg.set("run", "paths", 12)
    cfg.set("diagnostics", "isometry_paths", 300)
    cfg.set("diagnostics", "identity_pairs", 40)
    run_experiment(cfg, out_dir=str(tmp_path / "orig"))
    replay(str(tmp_path / "orig" / "manifest.txt"),
           out_dir=str(tmp_path / "redo"))
    differ = [name for name in ARTIFACTS
              if (tmp_path / "orig" / name).read_bytes()
              != (tmp_path / "redo" / name).read_bytes()]
    assert _report(12, "determinism", not differ,
                   "differing artifacts: %s" % (differ or "none"))
